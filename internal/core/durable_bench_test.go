package core

// BenchmarkDurableIngest measures the durable write path end-to-end:
// IngestBatch (built on a worker pool, logged behind one fsync per
// batch) against the same records ingested one at a time (each append
// paying its own fsync). Batched runs 64-item batches on 16 workers;
// Batch2000 runs 2 000-item batches at the default Workers, the shape of
// a bulk load, and reports the fsyncs each batch cost. Corpus2000 runs
// 2 000-item batches shaped like the bench/ corpus (featureCorpus) and
// reports ms/batch and allocs/record: the build's derivation cost.
// Representation building shares the clock with the fsyncs here, so the
// batch/serial gap is a lower bound on the group-commit win — internal/wal's
// BenchmarkWALIngest isolates it at the log layer and enforces the 5x
// floor.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func BenchmarkDurableIngest(b *testing.B) {
	const (
		workers = 16 // build workers of the Batched arm
		batch   = 64
		bulk    = 2000 // items per batch of the Batch2000 arm
	)
	openBench := func(b *testing.B, workers int) *DB {
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
		db := openBench(b, workers)
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
	b.Run("Batch2000", func(b *testing.B) {
		db := openBench(b, 0)
		before, _ := db.WALStats()
		next := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			items := make([]BatchItem, bulk)
			for j := range items {
				items[j] = BatchItem{ID: fmt.Sprintf("k%08d", next), Seq: durSeq(next)}
				next++
			}
			b.StartTimer()
			if _, err := db.IngestBatch(items); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after, _ := db.WALStats()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bulk), "ns/record")
		b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(b.N), "fsyncs/batch")
	})
	b.Run("Corpus2000", func(b *testing.B) {
		db := openBench(b, 0)
		base := featureCorpus(b, rand.New(rand.NewSource(2)), bulk)
		var mallocs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			items := make([]BatchItem, bulk)
			for j, it := range base {
				items[j] = BatchItem{ID: fmt.Sprintf("c%05d-%s", i, it.ID), Seq: it.Seq}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.StartTimer()
			if _, err := db.IngestBatch(items); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/batch")
		b.ReportMetric(float64(mallocs)/float64(b.N*bulk), "allocs/record")
	})
	b.Run("OneAtATime", func(b *testing.B) {
		db := openBench(b, workers)
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

// BenchmarkOpenDir measures boot: OpenDir of a 10 000-record directory
// shaped like the bench/ corpus (60 % 128-sample walks, 25 % 97-sample
// fevers, 15 % 256-sample ECGs, ingested in five 2 000-item batches and
// checkpointed), alone and under a 300-record write-ahead-log tail. Boot
// neither checkpoints nor appends, so every iteration boots the same
// directory. It reports ms/boot and allocs/record.
func BenchmarkOpenDir(b *testing.B) {
	const records, batches = 10000, 5
	for _, arm := range []struct {
		name string
		tail int
	}{{"Tier", 0}, {"Tail300", 300}} {
		b.Run(arm.name, func(b *testing.B) {
			dir := b.TempDir()
			db, err := OpenDir(dir, Config{})
			if err != nil {
				b.Fatal(err)
			}
			corpus := featureCorpus(b, rand.New(rand.NewSource(1)), records+arm.tail)
			for lo := 0; lo < records; lo += records / batches {
				if _, err := db.IngestBatch(corpus[lo : lo+records/batches]); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for _, it := range corpus[records:] {
				if err := db.Ingest(it.ID, it.Seq); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := OpenDir(dir, Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if db.Len() != records+arm.tail || db.Recovery().Applied != arm.tail {
					b.Fatalf("booted %d records, replayed %+v", db.Len(), db.Recovery())
				}
				db.Close()
				b.StartTimer()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/boot")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*(records+arm.tail)), "allocs/record")
		})
	}
}

// BenchmarkCheckpointFull measures a full checkpoint: every record of a
// 10 000-record directory shaped like the bench/ corpus is dirty (ingested
// in five 2 000-item batches and never checkpointed), and one Checkpoint
// encodes them all on the worker pool and writes the first segment. Each
// iteration boots a fresh copy of the directory outside the clock. It
// reports ms/ckpt and allocs/record.
func BenchmarkCheckpointFull(b *testing.B) {
	const records, batches = 10000, 5
	src := b.TempDir()
	db, err := OpenDir(src, Config{})
	if err != nil {
		b.Fatal(err)
	}
	corpus := featureCorpus(b, rand.New(rand.NewSource(1)), records)
	for lo := 0; lo < records; lo += records / batches {
		if _, err := db.IngestBatch(corpus[lo : lo+records/batches]); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "ckpt")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			b.Fatal(err)
		}
		db, err := OpenDir(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if st, _ := db.SegmentStats(); st.Segments != 1 {
			b.Fatalf("checkpoint left %d segments, want 1", st.Segments)
		}
		db.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/ckpt")
	b.ReportMetric(float64(mallocs)/float64(b.N*records), "allocs/record")
}
