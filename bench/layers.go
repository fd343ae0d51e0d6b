package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqrep/api"
)

// counters is one reading of the server's own counters: /metrics as a
// name → value map and /healthz decoded.
type counters struct {
	metrics map[string]float64
	health  api.HealthResponse
}

// scrape reads /metrics and /healthz. It is called between phases, never
// while one is being timed.
func (r *run) scrape() counters {
	c := counters{metrics: map[string]float64{}}
	client := &http.Client{Timeout: 5 * time.Second}
	if resp, err := client.Get(r.node.URL() + "/metrics"); err == nil {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					c.metrics[line[:i]] = v
				}
			}
		}
		resp.Body.Close()
	}
	if resp, err := client.Get(r.node.URL() + "/healthz"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&c.health) // a missing reading shows as zero deltas
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	return c
}

// queueWatch polls /healthz while the closed phase runs and remembers the
// deepest admission queue it saw.
type queueWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int
}

func (r *run) watchQueue() *queueWatch {
	q := &queueWatch{stop: make(chan struct{})}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				if h := r.scrape().health; h.Admission != nil && h.Admission.Queued > q.max {
					q.max = h.Admission.Queued
				}
			}
		}
	}()
	return q
}

func (q *queueWatch) close() int {
	close(q.stop)
	q.wg.Wait()
	return q.max
}

// clientLayer fills the client.* and counter-derived layer metrics from
// the phases already run: tails of the latency figures, the validity of
// the open loop, failure kinds, cache, admission, segment-cache and
// residency counters.
func (r *run) clientLayer(carrier map[class]*phase, open []*phase, closedPhase *phase, before, afterMain, afterClosed counters, queuedMax int) {
	L := r.res.Layers
	mainPhase := open[0]
	lat := func(c class) []float64 {
		var v []float64
		for _, s := range classSamples(carrier[c], c) {
			v = append(v, s.latencyMs())
		}
		return v
	}
	// A tail is reported at the named percentile when at least ten
	// samples lie beyond it, and otherwise at the highest percentile that
	// has ten beyond it; parts records which.
	tailOf := func(name string, v []float64, q float64) {
		if len(v) < 20 {
			L[name] = value{0, "ms", len(v)}
			return
		}
		q = min(q, 1-10/float64(len(v)))
		L[name] = value{quantile(v, q), "ms", len(v)}
		r.res.Parts[name+"_percentile"] = q * 100
	}
	tailOf("client.query_p99_ms", lat(clsQuery), 0.99)
	tailOf("client.query_p999_ms", lat(clsQuery), 0.999)
	tailOf("client.ingest_p99_ms", lat(clsIngest), 0.99)

	// Latency limit: a request misses when it fails or takes longer than
	// sloFactor × the seed-commit p50 of its class.
	missed, limited := 0, 0
	var lag []float64
	shed, err5 := 0, 0
	for _, p := range append(append([]*phase(nil), open...), closedPhase) {
		for i := range p.samples {
			s := &p.samples[i]
			if s.status == http.StatusTooManyRequests {
				shed++
			}
			if s.status >= 500 {
				err5++
			}
			if p == closedPhase || s.due < p.t0 {
				continue
			}
			if p == mainPhase {
				lag = append(lag, (s.sent-s.due)*1000)
			}
			if limit, ok := r.cfg.w.seedP50[s.op.class]; ok {
				limited++
				if !s.ok || s.latencyMs() > sloFactor*limit {
					missed++
				}
			}
		}
	}
	L["client.slo_miss_share"] = value{float64(missed) / float64(max(limited, 1)), "ratio", limited}
	lagP99 := quantile(lag, 0.99)
	L["client.sched_lag_p99_ms"] = value{lagP99, "ms", len(lag)}
	done := 0
	for i := range mainPhase.samples {
		if s := &mainPhase.samples[i]; s.ok && s.due >= mainPhase.t0 {
			done++
		}
	}
	achieved := float64(done) / mainPhase.seconds
	L["client.offered_rps"] = value{mainPhase.rate, "1/s", len(mainPhase.samples)}
	L["client.achieved_rps"] = value{achieved, "1/s", done}
	if lagP99 > 5 || achieved < 0.98*mainPhase.rate {
		r.res.Valid = false
	}
	L["client.shed_429"] = value{float64(shed), "count", 1}
	L["client.err_5xx"] = value{float64(err5), "count", 1}

	delta := func(a, b counters, name string) float64 { return b.metrics[name] - a.metrics[name] }
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	hits, misses := delta(before, afterMain, "seqserved_cache_hits_total"), delta(before, afterMain, "seqserved_cache_misses_total")
	L["server.cache_hit_ratio"] = value{ratio(hits, misses), "ratio", int(hits + misses)}
	L["server.cache_invalidations"] = value{delta(before, afterMain, "seqserved_cache_invalidations_total"), "count", 1}
	L["server.admission_rejected"] = value{delta(afterMain, afterClosed, "seqserved_admission_rejected_total"), "count", 1}
	L["server.admission_queued_max"] = value{float64(queuedMax), "count", 1}
	sh, sm := delta(before, afterMain, "seqserved_segment_cache_hits_total"), delta(before, afterMain, "seqserved_segment_cache_misses_total")
	L["segment.cache_hit_ratio"] = value{ratio(sh, sm), "ratio", int(sh + sm)}

	// Residency: zero where the workload sets no memory budget.
	reads := 0
	for i := range mainPhase.samples {
		if c := mainPhase.samples[i].op.class; c == clsQuery || c == clsStream {
			reads++
		}
	}
	cold := float64(afterMain.health.ColdHits) - float64(before.health.ColdHits)
	L["resident.cold_hits_per_query"] = value{cold / float64(max(reads, 1)), "count", reads}
	L["resident.evictions"] = value{float64(afterMain.health.Evictions) - float64(before.health.Evictions), "count", 1}
	over := 0.0
	if b := afterMain.health.MemoryBudget; b > 0 {
		over = float64(afterMain.health.ResidentBytes) / float64(b)
	}
	L["resident.bytes_over_budget"] = value{over, "ratio", 1}
}
