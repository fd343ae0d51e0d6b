package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in changes speed by tens of per cent
// for seconds to minutes at a time (other tenants of the host), which is
// more than any bound a metric could be given. So the benchmark measures
// the machine beside the system and reports each timing scaled by how
// slow the machine was around it. Two instruments do that, both the
// benchmark's own code on the standard library only, so neither changes
// when the code under test does and a faster engine still shows as
// faster:
//
//   - a fixed piece of CPU work — JSON encoding and decoding, small
//     allocations, a map and a sort, the kinds of instructions and memory
//     traffic the engine spends its time on (a pure arithmetic loop
//     tracked the engine's slow-downs less than half as well) — timed
//     before and after everything that is timed once;
//   - a reference server (see below) called beside the measured traffic.

const (
	calibJSONReps = 50
	calibAllocs   = 2500
	refAllocs     = 60 // the reference server's share of the work per request
	// The fixed work's duration in seconds, alone and on every core at
	// once, in the machine state the seed-commit figures were taken in.
	// They only fix the scale of the reported numbers.
	calibRefSingle = 0.0043
	calibRefDual   = 0.0056
	calibRefStream = 0.0054 // one repetition at a time every streamEvery seconds starts colder
	// The reference server's median latency in ms at refRate requests per
	// second from when each was due, in the same machine state.
	refLatencyMs = 1.29
	refRate      = 100.0 // reference requests per second beside an open phase
	streamEvery  = 0.05  // seconds between the fixed work's repetitions beside an open phase
)

var (
	calibVals = func() []float64 {
		v := make([]float64, 128)
		for i := range v {
			v[i] = float64(i*i%97) + 0.125*float64(i)
		}
		return v
	}()
	calibSink atomic.Int64
)

type calibRequest struct {
	ID     string    `json:"id"`
	Values []float64 `json:"values"`
}

// calibWork is the fixed work, in the given amounts.
func calibWork(jsonReps, allocs int) int {
	n := 0
	for r := 0; r < jsonReps; r++ {
		b, _ := json.Marshal(calibRequest{ID: "calibration", Values: calibVals})
		var req calibRequest
		_ = json.Unmarshal(b, &req) // its own output always decodes
		n += len(req.Values)
	}
	keep := make([][]float64, 0, 64)
	index := map[string][]float64{}
	for i := 0; i < allocs; i++ {
		s := make([]float64, 128)
		for j := range s {
			s[j] = float64(i ^ j)
		}
		keep = append(keep, s)
		index["id-"+strconv.Itoa(i)] = s
	}
	sort.Slice(keep, func(a, b int) bool { return keep[a][5] < keep[b][5] })
	return n + len(keep) + len(index)
}

const (
	calibSingleReps = 8 // repetitions on one thread per calibration
	calibDualReps   = 6 // repetitions on every core at once
)

// timeWork runs the fixed work once and returns the seconds it took.
func timeWork() float64 {
	t0 := time.Now()
	calibSink.Add(int64(calibWork(calibJSONReps, calibAllocs)))
	return time.Since(t0).Seconds()
}

// calibrateHere times the fixed work — a few repetitions on one thread, or
// with allCores the same on every core at the same time — and returns the
// machine's slowness: the median repetition ÷ its duration in the
// reference state. Medians shed the repetitions an interrupt fell into.
func calibrateHere(allCores bool) float64 {
	if !allCores {
		took := make([]float64, calibSingleReps)
		for i := range took {
			took[i] = timeWork()
		}
		return median(took) / calibRefSingle
	}
	n := runtime.GOMAXPROCS(0)
	took := make([]float64, n*calibDualReps)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // one thread per core for the whole burst
			defer runtime.UnlockOSThread()
			for i := 0; i < calibDualReps; i++ {
				took[c*calibDualReps+i] = timeWork()
			}
		}()
	}
	wg.Wait()
	return median(took) / calibRefDual
}

// The work allocates, so how long it takes depends on the heap of the
// process running it: beside the benchmark's own heap, which grows through
// a run, its timing drifted by a third. It therefore runs in a child
// process that does nothing else, whose heap is the same every time.
//
// The child is also the reference server: a fixed HTTP endpoint, POST
// /ref, that decodes a 128-sample JSON request, does a little of the
// fixed work and encodes an answer — a stand-in with the shape of the
// server under test (two processes, loopback TCP, net/http, JSON, a
// wake-up on each side) that never changes. Requests to it travel beside
// the measured traffic, and how slow they are is how slow the machine is
// for a request.

// calibratorMain is the child: `bench -calibrator`. It prints the
// reference server's address, then answers each line on its standard
// input with one calibration, and exits when the input closes.
func calibratorMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("error", err)
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		var req calibRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := calibWork(1, refAllocs)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(calibRequest{ID: strconv.Itoa(n), Values: req.Values[:16]}) // the client sees a short body as a failure
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }() // ends with the process
	fmt.Println(ln.Addr().String())
	in := bufio.NewReader(os.Stdin)
	var (
		stop   chan struct{}
		stream chan []float64
	)
	for {
		line, err := in.ReadString('\n')
		if err != nil {
			return
		}
		switch line {
		case "stream\n":
			// One repetition of the fixed work every streamEvery seconds
			// until told to stop: the machine's speed all through an open
			// phase, for a few per cent of one core.
			stop, stream = make(chan struct{}), make(chan []float64, 1)
			go func() {
				var took []float64 // slowness readings
				tick := time.NewTicker(time.Duration(streamEvery * float64(time.Second)))
				defer tick.Stop()
				for {
					took = append(took, timeWork()/calibRefStream)
					select {
					case <-stop:
						stream <- took
						return
					case <-tick.C:
					}
				}
			}()
		case "stop\n":
			var took []float64
			if stop != nil {
				close(stop)
				took = <-stream
				stop = nil
			}
			fmt.Println(strings.Trim(fmt.Sprint(took), "[]"))
		default:
			fmt.Println(calibrateHere(line == "all\n"))
		}
	}
}

// calibrator is the parent's handle on the child. Until start is called
// there is no child and no reference server, and every calibration reads
// the reference state (slowness 1): all the smoke test needs.
type calibrator struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	refURL string // the reference server's POST /ref
}

var calib calibrator

func (c *calibrator) start() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-calibrator")
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	c.cmd, c.in, c.out = cmd, in, bufio.NewReader(out)
	children.add(cmd.Process)
	addr, err := c.out.ReadString('\n')
	if err != nil || strings.HasPrefix(addr, "error") {
		c.stop()
		return fmt.Errorf("calibrator did not start: %q %v", addr, err)
	}
	c.refURL = "http://" + strings.TrimSpace(addr) + "/ref"
	return nil
}

// stop closes the child's input, which ends it, and waits for it.
func (c *calibrator) stop() {
	if c.cmd == nil {
		return
	}
	c.in.Close()
	_ = c.cmd.Wait() // its exit status says nothing the timings did not
	children.remove(c.cmd.Process)
	c.cmd = nil
}

// ask sends the child one command and returns its one-line answer.
func (c *calibrator) ask(cmd string) (string, bool) {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return "", false
	}
	line, err := c.out.ReadString('\n')
	return line, err == nil
}

// calibrate returns the machine's slowness now, for work on one core or
// on all at once.
func calibrate(allCores bool) float64 {
	if calib.cmd == nil {
		return 1
	}
	cmd := "one"
	if allCores {
		cmd = "all"
	}
	if line, ok := calib.ask(cmd); ok {
		if v, err := strconv.ParseFloat(strings.TrimSpace(line), 64); err == nil {
			return v
		}
	}
	return calibrateHere(allCores) // the child died; a drifting scale beats none
}

// streamStart asks the child to time the fixed work every streamEvery
// seconds from now on; streamStop ends that and returns the slowness each
// repetition read (nil without a child).
func streamStart() {
	if calib.cmd != nil {
		_, _ = io.WriteString(calib.in, "stream\n") // a dead child shows as no readings at streamStop
	}
}

func streamStop() []float64 {
	if calib.cmd == nil {
		return nil
	}
	line, ok := calib.ask("stop")
	if !ok {
		return nil
	}
	var slow []float64
	for _, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			slow = append(slow, v)
		}
	}
	return slow
}

// refBody is the request every reference call sends.
var refBody = func() []byte {
	b, _ := json.Marshal(calibRequest{ID: "reference", Values: calibVals})
	return b
}()
