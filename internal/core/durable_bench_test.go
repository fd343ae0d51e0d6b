package core

// BenchmarkDurableIngest measures the durable write path end-to-end: a
// concurrent IngestBatch (whose worker-pool appends share fsyncs)
// against the same records ingested one at a time (each append paying
// its own fsync). Representation building shares the clock with the
// fsyncs here, so the batch/serial gap is a lower bound on the
// group-commit win — internal/wal's BenchmarkWALIngest isolates it at
// the log layer and enforces the 5x floor.

import (
	"fmt"
	"testing"
)

func BenchmarkDurableIngest(b *testing.B) {
	const (
		workers = 16 // appenders in flight: the group a single fsync can cover
		batch   = 64
	)
	openBench := func(b *testing.B) *DB {
		b.Helper()
		db, err := OpenDir(b.TempDir(), Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		return db
	}
	s := durSeq(3)

	b.Run("Batched", func(b *testing.B) {
		db := openBench(b)
		next := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			items := make([]BatchItem, batch)
			for j := range items {
				items[j] = BatchItem{ID: fmt.Sprintf("g%08d", next), Seq: s}
				next++
			}
			if _, err := db.IngestBatch(items); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
	})
	b.Run("OneAtATime", func(b *testing.B) {
		db := openBench(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Ingest(fmt.Sprintf("s%08d", i), s); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
	})
}
