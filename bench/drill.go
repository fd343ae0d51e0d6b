package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// drills runs the kill -9 drills. Each drill checkpoints, lands a fixed
// number of acknowledged writes (so every recovery replays the same
// amount of log), notes the log's length after the last acknowledgement,
// kills the server with two more writes in flight, cuts the log back to
// the noted length — the page cache would otherwise keep bytes a power
// cut would lose — restarts, and then requires every acknowledged id to
// answer and every acknowledged delete to be gone. recovery_s is reported
// only if every drill passes.
func (r *run) drills() error {
	var recoveries, recoveriesRaw []float64
	var replayed, atKill []float64
	passed := true
	drills, drillWrites := r.cfg.sizes().drills, r.cfg.sizes().drillWrites
	for d := 0; d < drills; d++ {
		r.account(r.drv.all("drill", []*op{checkpointOp()}))
		r.account(r.drv.all("drill", r.gen.list(drillWrites, r.gen.ingest, 0)))

		walPath, ackedLen, err := activeWAL(r.data)
		if err != nil {
			return err
		}
		atKill = append(atKill, float64(r.scrape().health.WALRecords))
		calBefore := calibrate(false)
		// Two writes race the kill. One that is acknowledged after all
		// moves the cut point to the log's length at that moment.
		var mu sync.Mutex
		var wg sync.WaitGroup
		inflight := r.gen.list(2, r.gen.ingest, 0)
		for _, o := range inflight {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := r.drv.do(o)
				if !s.ok {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if _, n, err := activeWAL(r.data); err == nil && n > ackedLen {
					ackedLen = n
				}
				r.orc.observe(&phase{samples: []sample{s}})
			}()
		}
		time.Sleep(200 * time.Microsecond) // let the requests reach the server
		if err := r.node.Crash(); err != nil {
			return err
		}
		wg.Wait()
		r.drv.close()
		info, err := os.Stat(walPath)
		if err != nil {
			return err
		}
		if info.Size() > ackedLen {
			if err := os.Truncate(walPath, ackedLen); err != nil {
				return err
			}
		}
		r.res.Parts[fmt.Sprintf("drill%d_wal_bytes_cut", d)] = info.Size() - ackedLen

		t0 := time.Now()
		if err := r.node.Start(); err != nil {
			r.fail("drill %d: restart: %v", d, err)
			return err
		}
		raw := time.Since(t0).Seconds()
		recoveriesRaw = append(recoveriesRaw, raw)
		recoveries = append(recoveries, raw/mean([]float64{calBefore, calibrate(false)}))
		r.drv = newDriver(r.node.URL(), senders(), r.clock)
		// Nothing has been written since the boot, so the log depth is
		// what recovery replayed.
		replayed = append(replayed, float64(r.scrape().health.WALRecords))

		// Every acknowledged write must have survived: each drill probes
		// the writes not probed since the last one plus a sample of corpus
		// records, and the last drill probes every write of the run.
		var probes []*op
		for id, w := range r.orc.writes {
			if w.probed && d < drills-1 {
				continue
			}
			w.probed = true
			switch {
			case w.delAcked:
				probes = append(probes, getOp(id, 404))
			case w.acked && w.delSent == 0:
				probes = append(probes, getOp(id, 200))
			}
		}
		for _, rec := range r.corpus.recs[:min(200, len(r.corpus.recs))] {
			probes = append(probes, getOp(rec.id, 200))
		}
		p := r.drv.all("crash-verify", probes)
		for i := range p.samples {
			if !p.samples[i].ok {
				passed = false
			}
		}
		r.account(p)
	}
	r.res.Parts["recovery_s_each"] = recoveries
	r.res.Parts["recovery_raw_s_each"] = recoveriesRaw
	r.unscaled["recovery_s"] = median(recoveriesRaw)
	r.res.Layers["wal.records_at_kill"] = value{median(atKill), "count", len(atKill)}
	r.res.Layers["core.recovery_replayed"] = value{median(replayed), "count", len(replayed)}
	if passed {
		r.res.EndToEnd["recovery_s"] = value{median(recoveries), "s", len(recoveries)}
	} else {
		r.fail("durability drill failed: recovery_s withheld")
	}
	return nil
}
