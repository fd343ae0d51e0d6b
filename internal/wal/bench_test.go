package wal

// BenchmarkWALIngest measures the group commit at the log layer: many
// concurrent appenders sharing fsyncs against one appender paying a full
// fsync per record. The workload is pure append — the payload is a
// typical small ingest record — so the ratio isolates what group commit
// buys the durable write path. The benchmark fails itself when group
// commit is less than 5× faster per record — checked only when both
// halves ran more than one iteration, so a -benchtime=1x smoke run
// cannot trip it. The Batch half logs a whole batch per AppendBatch, one
// waiter and one fsync per batch, and reports its own ns/record beside
// the two the floor compares.
//
// (internal/core's BenchmarkDurableIngest measures the same two shapes
// end-to-end through the ingest pipeline, where representation building
// shares the clock with the fsyncs.)

import (
	"bytes"
	"sync/atomic"
	"testing"
)

func BenchmarkWALIngest(b *testing.B) {
	const (
		appenders = 16
		batch     = 64
	)
	payload := bytes.Repeat([]byte{0x42}, 256)
	// ns/record and iteration count of each half's final run.
	var groupNs, serialNs float64
	var groupN, serialN int

	open := func(b *testing.B) *WAL {
		b.Helper()
		w, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		return w
	}

	b.Run("GroupCommit", func(b *testing.B) {
		w := open(b)
		var gen atomic.Uint64
		b.SetParallelism(appenders)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := w.Append(1, gen.Add(1), payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		groupNs, groupN = float64(b.Elapsed().Nanoseconds())/float64(b.N), b.N
		b.ReportMetric(groupNs, "ns/record")
	})
	b.Run("Batch", func(b *testing.B) {
		w := open(b)
		payloads := make([][]byte, batch)
		for i := range payloads {
			payloads[i] = payload
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.AppendBatch(1, uint64(i), payloads); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
	})
	b.Run("PerWriteFsync", func(b *testing.B) {
		w := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(1, uint64(i), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		serialNs, serialN = float64(b.Elapsed().Nanoseconds())/float64(b.N), b.N
		b.ReportMetric(serialNs, "ns/record")
	})

	if groupNs > 0 && serialNs > 0 {
		speedup := serialNs / groupNs
		b.ReportMetric(speedup, "group_commit_speedup")
		if groupN > 1 && serialN > 1 && speedup < 5 {
			b.Errorf("group-commit speedup %.1fx is below the 5x floor (%.0f vs %.0f ns/record)", speedup, groupNs, serialNs)
		}
	}
}
