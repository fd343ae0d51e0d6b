package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"seqrep/internal/dist"
	"seqrep/internal/pattern"
	"seqrep/internal/synth"
)

// feverBatch builds n distinct two-peak fever variants as batch items.
func feverBatch(t *testing.T, n int) []BatchItem {
	t.Helper()
	base, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			ID:  fmt.Sprintf("fever-%03d", i),
			Seq: base.ShiftValue(float64(i) * 0.01),
		}
	}
	return items
}

// IngestBatch ingests everything exactly once and reports the count; the
// result is indistinguishable from sequential ingestion.
func TestIngestBatchMatchesSequential(t *testing.T) {
	items := feverBatch(t, 40)

	seqDB := mustDB(t, Config{})
	for _, it := range items {
		mustIngest(t, seqDB, it.ID, it.Seq)
	}

	batchDB := mustDB(t, Config{Workers: 8, Shards: 4})
	n, err := batchDB.IngestBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(items) {
		t.Fatalf("IngestBatch ingested %d of %d", n, len(items))
	}

	seqIDs, batchIDs := seqDB.IDs(), batchDB.IDs()
	if len(seqIDs) != len(batchIDs) {
		t.Fatalf("id counts differ: %d vs %d", len(seqIDs), len(batchIDs))
	}
	for i := range seqIDs {
		if seqIDs[i] != batchIDs[i] {
			t.Fatalf("ids[%d]: %q vs %q", i, seqIDs[i], batchIDs[i])
		}
	}
	if !sort.StringsAreSorted(batchIDs) {
		t.Error("batch IDs not sorted")
	}
	ss, bs := seqDB.Stats(), batchDB.Stats()
	ss.Shards, bs.Shards = 0, 0 // configured differently on purpose
	if ss != bs {
		t.Errorf("stats differ:\nsequential %+v\nbatch      %+v", ss, bs)
	}
}

// Per-item failures are reported joined and do not abort the batch.
func TestIngestBatchPartialFailure(t *testing.T) {
	items := feverBatch(t, 10)
	items[3].ID = items[0].ID // duplicate
	items[7].Seq = nil        // empty sequence

	db := mustDB(t, Config{Workers: 4})
	n, err := db.IngestBatch(items)
	if n != 8 {
		t.Errorf("ingested %d, want 8", n)
	}
	if err == nil {
		t.Fatal("expected a joined error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "item 3") || !strings.Contains(msg, "item 7") {
		t.Errorf("error misses failing items: %v", err)
	}
	if db.Len() != 8 {
		t.Errorf("Len = %d, want 8", db.Len())
	}
}

func TestIngestBatchEmpty(t *testing.T) {
	db := mustDB(t, Config{})
	if n, err := db.IngestBatch(nil); n != 0 || err != nil {
		t.Errorf("IngestBatch(nil) = %d, %v", n, err)
	}
}

// The central tentpole test: batched ingestion, removals and every query
// family running at once. Run under -race this validates the sharded
// locking protocol end to end.
func TestConcurrentIngestQueryRemove(t *testing.T) {
	db := mustDB(t, Config{Shards: 8, Workers: 4})
	items := feverBatch(t, 48)
	exemplar := items[0].Seq

	// Pre-ingest a stable half so queries always have data.
	stable, volatile := items[:24], items[24:]
	if n, err := db.IngestBatch(stable); err != nil || n != len(stable) {
		t.Fatalf("pre-ingest: %d, %v", n, err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	fail := make(chan error, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := db.IngestBatch(volatile); err != nil {
			fail <- err
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			id := stable[rng.Intn(len(stable))].ID
			if _, ok := db.Record(id); !ok {
				fail <- fmt.Errorf("stable record %q missing", id)
			}
			db.Stats()
			db.Len()
		}
	}()

	queries := []func() error{
		func() error { _, err := db.ValueQuery(exemplar, 0.5); return err },
		func() error { _, err := db.DistanceQuery(exemplar, dist.Euclidean, 10); return err },
		func() error { _, err := db.MatchPattern(pattern.TwoPeak()); return err },
		func() error { _, err := db.SearchPattern("U+D"); return err },
		func() error { _, err := db.PeakCount(2, 1); return err },
		func() error { _, err := db.IntervalQuery(8, 4); return err },
		func() error { _, err := db.ShapeQuery(exemplar, ShapeTolerance{Height: 0.3, Spacing: 0.3}); return err },
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q func() error) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if err := q(); err != nil {
					fail <- err
					return
				}
			}
		}(q)
	}

	// Churn: ingest and remove a disjoint id range concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("churn-%d", i)
			if err := db.Ingest(id, exemplar.ShiftValue(5)); err != nil {
				fail <- err
				return
			}
			if err := db.Remove(id); err != nil {
				fail <- err
				return
			}
		}
	}()

	close(start)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}

	if got, want := db.Len(), len(items); got != want {
		t.Errorf("final Len = %d, want %d", got, want)
	}
	// Every stored sequence is an exact-length fever variant: the band
	// query at a generous tolerance must return all of them.
	matches, err := db.ValueQuery(exemplar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(items) {
		t.Errorf("ValueQuery found %d of %d after churn", len(matches), len(items))
	}
}

// Concurrent ingests of the same id: exactly one wins, the rest fail
// with the duplicate error.
func TestConcurrentDuplicateIngest(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	wg.Add(racers)
	for i := 0; i < racers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = db.Ingest("contested", fever)
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		} else if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if won != 1 {
		t.Errorf("%d ingests of the same id succeeded, want 1", won)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
}

// Removing an id while racing re-ingests of the same id must never
// corrupt the indexes: whoever wins, the shard and every global index
// agree afterwards.
func TestConcurrentRemoveReingest(t *testing.T) {
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	for trial := 0; trial < 20; trial++ {
		db := mustDB(t, Config{Shards: 2})
		mustIngest(t, db, "x", fever)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Ignore "duplicate" (remover not done yet) — retry once after.
			for i := 0; i < 3; i++ {
				if db.Ingest("x", fever) == nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			_ = db.Remove("x")
		}()
		wg.Wait()

		// Invariant: the shard record and the indexes tell the same story.
		_, inShard := db.Record("x")
		ids := db.IDs()
		inIDs := len(ids) == 1 && ids[0] == "x"
		if len(ids) > 1 {
			t.Fatalf("trial %d: duplicate index entries %v", trial, ids)
		}
		if inShard != inIDs {
			t.Fatalf("trial %d: shard has x=%v but id index has x=%v", trial, inShard, inIDs)
		}
		st := db.Stats()
		if inShard {
			if st.Sequences != 1 || st.IntervalCount == 0 || st.SymbolGroups != 1 {
				t.Fatalf("trial %d: present but stats %+v", trial, st)
			}
		} else if st.Sequences != 0 || st.IntervalCount != 0 || st.SymbolGroups != 0 {
			t.Fatalf("trial %d: removed but stats %+v", trial, st)
		}
	}
}

// ValueQuery early-abandons via the band kernel yet reports the same
// matches and deviations as a full LInf scan.
func TestValueQueryMatchesLInfScan(t *testing.T) {
	db := mustDB(t, Config{Workers: 4})
	items := feverBatch(t, 16)
	if _, err := db.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	exemplar := items[0].Seq
	const eps = 0.08
	matches, err := db.ValueQuery(exemplar, eps)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range matches {
		got[m.ID] = m.Dev
	}
	for _, id := range db.IDs() {
		stored, err := db.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.LInf(exemplar.Values(), stored.Values())
		if err != nil {
			t.Fatal(err)
		}
		dev, matched := got[id]
		if matched != (d <= eps) {
			t.Errorf("%s: matched=%v but LInf=%g", id, matched, d)
		}
		if matched && dev != d {
			t.Errorf("%s: deviation %g, LInf %g", id, dev, d)
		}
	}
}

func TestDistanceQueryMetrics(t *testing.T) {
	db := mustDB(t, Config{})
	items := feverBatch(t, 8)
	if _, err := db.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	// Breaking is shift-invariant: the value-shifted copies reconstruct
	// to shifted copies of the exemplar's own comparison form.
	exemplar, err := db.Reconstruct(items[0].ID)
	if err != nil {
		t.Fatal(err)
	}

	// Generous Euclidean tolerance: everything matches, exemplar's own
	// variant first (distance ≈ 0 to its reconstruction).
	matches, err := db.DistanceQuery(exemplar, dist.Euclidean, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(items) {
		t.Fatalf("matched %d of %d", len(matches), len(items))
	}
	if matches[0].Key != "l2" {
		t.Errorf("deviation not keyed by metric name: %q", matches[0].Key)
	}
	// The variants differ only by a value shift, which z-normalization
	// cancels: under ZEuclidean every distance collapses to ~0.
	zm, err := db.DistanceQuery(exemplar, dist.ZEuclidean, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(zm) != len(items) {
		t.Errorf("ZEuclidean matched %d of %d shifted copies", len(zm), len(items))
	}

	if _, err := db.DistanceQuery(exemplar, nil, 1); err == nil {
		t.Error("nil metric: expected error")
	}
	if _, err := db.DistanceQuery(exemplar, dist.Euclidean, -1); err == nil {
		t.Error("negative tolerance: expected error")
	}
	if _, err := db.DistanceQuery(nil, dist.Euclidean, 1); err == nil {
		t.Error("empty exemplar: expected error")
	}
}

// A failed batch item must not leave a stale reservation behind: the id
// stays ingestable.
func TestFailedIngestReleasesReservation(t *testing.T) {
	db := mustDB(t, Config{})
	bad, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	bad = bad[:1] // single sample breaks the breaker
	if err := db.Ingest("x", bad); err == nil {
		t.Skip("single-sample sequence unexpectedly ingestable")
	}
	good, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	if err := db.Ingest("x", good); err != nil {
		t.Fatalf("id not reusable after failed ingest: %v", err)
	}
}
