package core

// BenchmarkCheckpointDelta quantifies what the segment tier buys: after
// a base checkpoint of the full working set, each further checkpoint
// writes a delta segment proportional to the churn since the last one —
// not a full rewrite. The benchmark fails itself when the full/delta
// byte ratio drops below the 10x floor at 1% churn.
//
// The default 2000-record working set keeps the smoke run cheap; set
// SEQREP_BENCH_100K=1 for the 100k-record acceptance configuration.

import (
	"fmt"
	"os"
	"testing"
)

func BenchmarkCheckpointDelta(b *testing.B) {
	n := 2000
	if os.Getenv("SEQREP_BENCH_100K") != "" {
		n = 100_000
	}
	churn := n / 100
	id := func(i int) string { return fmt.Sprintf("r%08d", i) }

	// Compaction off: it would fold the deltas back into one segment
	// mid-run and muddy the per-checkpoint byte accounting.
	db, err := OpenDir(b.TempDir(), Config{Workers: 16, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	const batch = 512
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		items := make([]BatchItem, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, BatchItem{ID: id(i), Seq: durSeq(i)})
		}
		if _, err := db.IngestBatch(items); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	st, _ := db.SegmentStats()
	full := st.Bytes // the base segment holds the whole working set: the old full-snapshot cost

	// Steady-state churn: each iteration retires the oldest `churn` ids
	// and ingests as many new ones (the live set stays n records), then
	// checkpoints. Tier growth per iteration is the delta segment.
	rm, next := 0, n
	prevBytes := full
	var deltaTotal int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]BatchItem, churn)
		for j := range items {
			items[j] = BatchItem{ID: id(next), Seq: durSeq(next)}
			next++
		}
		if _, err := db.IngestBatch(items); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < churn; j++ {
			if err := db.Remove(id(rm)); err != nil {
				b.Fatal(err)
			}
			rm++
		}
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		st, _ := db.SegmentStats()
		deltaTotal += st.Bytes - prevBytes
		prevBytes = st.Bytes
	}
	b.StopTimer()

	delta := deltaTotal / int64(b.N)
	if delta <= 0 {
		b.Fatalf("delta checkpoint wrote %d bytes for %d churned records", delta, churn)
	}
	ratio := float64(full) / float64(delta)
	b.ReportMetric(float64(delta), "delta_bytes/ckpt")
	b.ReportMetric(ratio, "full/delta")
	if ratio < 10 {
		b.Errorf("delta checkpoint ratio %.1fx is below the 10x floor (full %d bytes, delta %d bytes at %d/%d churn)",
			ratio, full, delta, churn, n)
	}
}
