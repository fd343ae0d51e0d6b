package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one sent operation. Times are seconds on the run's clock.
type sample struct {
	op     *op
	due    float64 // open loop: when the request was scheduled
	sent   float64
	done   float64
	first  float64 // stream: first frame carrying a match; 0 if none
	status int
	bytes  int
	ok     bool
	err    string
	body   []byte // kept only for op.check
}

// latencyMs is the open-loop latency: from the instant the request was due.
func (s *sample) latencyMs() float64 { return (s.done - s.due) * 1000 }

// driver sends operations to one server over at most `senders` keep-alive
// connections from this one process.
type driver struct {
	base    string
	senders int
	client  *http.Client
	ref     *http.Client   // to the reference server, on connections of its own
	clock   func() float64 // seconds since the run began
}

func newDriver(base string, senders int, clock func() float64) *driver {
	tr := &http.Transport{
		MaxIdleConns:        senders,
		MaxIdleConnsPerHost: senders,
		MaxConnsPerHost:     senders,
		DisableCompression:  true,
	}
	ref := &http.Transport{MaxIdleConnsPerHost: senders, MaxConnsPerHost: senders, DisableCompression: true}
	return &driver{base: base, senders: senders, clock: clock,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		ref:    &http.Client{Transport: ref, Timeout: 5 * time.Second}}
}

func (d *driver) close() {
	d.client.CloseIdleConnections()
	d.ref.CloseIdleConnections()
}

var (
	matchKey = []byte(`"match":{`)
	doneKey  = []byte(`"done":true`)
	errorKey = []byte(`"error":`)
)

// do sends one operation and reads its whole response.
func (d *driver) do(o *op) sample {
	since := d.clock
	s := sample{op: o, sent: since()}
	req, err := http.NewRequest(o.method, d.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err, s.done = err.Error(), since()
		return s
	}
	if len(o.body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		s.err, s.done = err.Error(), since()
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	switch {
	case o.class == clsStream && resp.StatusCode == http.StatusOK:
		finished, failed := false, false
		var kept bytes.Buffer
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadBytes('\n')
			s.bytes += len(line)
			if len(line) > 0 {
				if s.first == 0 && bytes.Contains(line, matchKey) {
					s.first = since()
				}
				if bytes.Contains(line, doneKey) {
					finished = true
				}
				if bytes.HasPrefix(line, []byte(`{"error":`)) {
					failed = true
				}
				if o.check {
					kept.Write(line)
				}
			}
			if err != nil {
				break
			}
		}
		s.done = since()
		s.ok = finished && !failed
		if !s.ok {
			s.err = "stream ended without a trailer"
		}
		s.body = kept.Bytes()
	case o.check:
		s.body, err = io.ReadAll(resp.Body)
		s.done = since()
		s.bytes = len(s.body)
		s.ok = err == nil && s.status == o.want
	default:
		n, err := io.Copy(io.Discard, resp.Body)
		s.done = since()
		s.bytes = int(n)
		s.ok = err == nil && s.status == o.want
	}
	if !s.ok && s.err == "" {
		s.err = fmt.Sprintf("status %d, want %d", s.status, o.want)
		if bytes.Contains(s.body, errorKey) {
			s.err += ": " + string(s.body)
		}
	}
	return s
}

// phase is one stretch of traffic. Sample times are on the run's clock;
// t0 is where the lead-in ended and measurement began.
type phase struct {
	name    string
	rate    float64 // open loop: offered requests per second; 0 for closed
	t0      float64
	seconds float64 // measured traffic time, lead-in and pauses excluded
	samples []sample
	starts  []float64 // closed loop: start of each measured window
	win     float64
	// Open phases: the latency in ms of each reference request sent
	// beside the traffic, from when it was due.
	refLatency []float64
	// The slowness the fixed CPU work read: every streamEvery seconds
	// through an open phase, on all cores after each closed window.
	cpuSlow []float64
}

// slowness is the machine's slowness over the phase. A closed phase keeps
// every core busy, and the fixed work on all cores in its pauses says how
// slow that was. An open phase leaves the machine mostly idle, where a
// request's time is wake-ups and HTTP as much as computing; the reference
// server's latency and the fixed work streamed beside it are two
// independent readings of that, each noisy, and their geometric mean is
// steadier than either.
func (p *phase) slowness() float64 {
	switch {
	case len(p.cpuSlow) == 0:
		return 1
	case p.rate == 0:
		return median(p.cpuSlow)
	case len(p.refLatency) > 0:
		return math.Sqrt(median(p.refLatency) / refLatencyMs * median(p.cpuSlow))
	}
	return 1
}

// reference sends one request to the reference server and reports
// whether the whole answer came back.
func (d *driver) reference() bool {
	resp, err := d.ref.Post(calib.refURL, "application/json", bytes.NewReader(refBody))
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// open sends ops on a fixed schedule of `rate` per second regardless of
// how fast answers come back: request i is due at i/rate. A sender that
// is still busy when a request falls due sends it late, and the lateness
// is charged to that request's latency. The first `lead` seconds are the
// lead-in. Beside the senders, one more goroutine calls the reference
// server on its own fixed schedule and times those calls the same way.
func (d *driver) open(name string, ops []*op, rate, lead float64) *phase {
	out := make([]sample, len(ops))
	p := &phase{name: name, rate: rate}
	streamStart()
	start := d.clock()
	length := float64(len(ops)) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < d.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start + float64(i)/rate
				if wait := due - d.clock(); wait > 0 {
					time.Sleep(time.Duration(wait * float64(time.Second)))
				}
				s := d.do(ops[i])
				s.due = due
				out[i] = s
			}
		}()
	}
	if calib.refURL != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; float64(j)/refRate < length; j++ {
				due := start + float64(j)/refRate
				if wait := due - d.clock(); wait > 0 {
					time.Sleep(time.Duration(wait * float64(time.Second)))
				}
				if d.reference() && due >= start+lead {
					p.refLatency = append(p.refLatency, (d.clock()-due)*1000)
				}
			}
		}()
	}
	wg.Wait()
	p.cpuSlow = streamStop()
	p.t0, p.seconds, p.samples = start+lead, length-lead, out
	return p
}

// closed keeps d.senders clients each sending its next request as soon
// as the previous one answered, in `windows` windows of `win` seconds
// (the first is the lead-in), or until ops run out. After every window
// traffic pauses while the fixed work runs on every core.
func (d *driver) closed(name string, ops []*op, windows int, win float64) *phase {
	p := &phase{name: name, win: win}
	for k := 0; k < windows && len(ops) > 0; k++ {
		start := d.clock()
		w := d.run(name, ops, win)
		ops = ops[len(w.samples):]
		p.samples = append(p.samples, w.samples...)
		if slow := calibrate(true); k > 0 {
			p.cpuSlow = append(p.cpuSlow, slow)
		}
		if k == 0 {
			p.t0 = d.clock()
		} else {
			p.starts = append(p.starts, start)
			p.seconds += win
		}
	}
	return p
}

// all sends every op back to back (warm-up, drill writes, probes).
func (d *driver) all(name string, ops []*op) *phase { return d.run(name, ops, 1e9) }

// run is the closed loop itself: it stops issuing after `seconds` or when
// ops run out, and returns once every issued request has answered. ops
// are consumed in order, so the samples are a prefix of them.
func (d *driver) run(name string, ops []*op, seconds float64) *phase {
	out := make([]sample, len(ops))
	start := d.clock()
	end := start + seconds
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < d.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d.clock() < end {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := d.do(ops[i])
				s.due = s.sent
				out[i] = s
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(ops)) // every claimed index was sent
	return &phase{name: name, t0: start, seconds: d.clock() - start, samples: out[:n]}
}
