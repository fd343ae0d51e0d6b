package core

// Tests for the batch write path: a batch is validated and reserved in
// order, built in parallel, logged behind one fsync and linked at once,
// and must leave exactly the state the same items ingested one by one
// would.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seqrep/internal/dist"
)

// TestIngestBatchDuplicateWithinBatch: of two items under one id in one
// batch, the first wins — its samples are stored and the second gets
// ErrDuplicateID — however the worker pool schedules them.
func TestIngestBatchDuplicateWithinBatch(t *testing.T) {
	db := mustDB(t, Config{Workers: 4})
	const pairs = 100
	for round := 0; round < 20; round++ {
		items := make([]BatchItem, 0, 2*pairs)
		for p := 0; p < pairs; p++ {
			id := fmt.Sprintf("r%02d-%03d", round, p)
			// The two occurrences differ in length, so the stored record
			// tells which one won.
			items = append(items, BatchItem{ID: id, Seq: rampSeq(40, 0)}, BatchItem{ID: id, Seq: rampSeq(41, 1)})
		}
		n, itemErrs := db.IngestBatchItems(items)
		if n != pairs || len(itemErrs) != pairs {
			t.Fatalf("round %d: ingested %d with %d failures, want %d and %d", round, n, len(itemErrs), pairs, pairs)
		}
		for k, ie := range itemErrs {
			if ie.Index != 2*k+1 || !errors.Is(ie.Err, ErrDuplicateID) {
				t.Fatalf("round %d: failure %d = index %d (%v), want index %d with ErrDuplicateID", round, k, ie.Index, ie.Err, 2*k+1)
			}
		}
		for p := 0; p < pairs; p++ {
			id := items[2*p].ID
			if rec, ok := db.Record(id); !ok || rec.N != 40 {
				t.Fatalf("round %d: %s stored the second occurrence (or none): %v", round, id, ok)
			}
		}
	}
}

// TestIngestBatchOneGroup: a durable 2 000-item batch costs one fsync
// whatever Config.Workers is, and leaves the same catalogue, postings,
// feature rows and query answers as the same items ingested one by one.
func TestIngestBatchOneGroup(t *testing.T) {
	items := featureCorpus(t, rand.New(rand.NewSource(34)), 2000)
	// Items that must fail alike on both paths: a later duplicate of an
	// earlier id and an empty sequence.
	items = append(items, BatchItem{ID: items[7].ID, Seq: items[8].Seq}, BatchItem{ID: "empty"})
	cfg := Config{Workers: 2}

	batched, err := OpenDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	before, _ := batched.WALStats()
	n, itemErrs := batched.IngestBatchItems(items)
	after, _ := batched.WALStats()
	if n != len(items)-2 || len(itemErrs) != 2 {
		t.Fatalf("batch ingested %d with failures %v", n, itemErrs)
	}
	if syncs := after.Syncs - before.Syncs; syncs != 1 {
		t.Fatalf("a %d-item batch cost %d fsyncs, want 1", len(items), syncs)
	}
	if after.Records != uint64(n) {
		t.Fatalf("WAL holds %d records, want %d", after.Records, n)
	}

	single, err := OpenDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, it := range items {
		single.Ingest(it.ID, it.Seq) // the two bad items fail here too
	}
	if g, w := batched.Generation(), single.Generation(); g != w {
		t.Fatalf("Generation = %d, want %d (one per record)", g, w)
	}
	assertSameCatalogue(t, batched, single)
}

// assertSameCatalogue compares everything a query reads: ids, symbol
// catalogue rows, interval postings, feature rows and sketches, and the
// answers of every query family.
func assertSameCatalogue(t *testing.T, got, want *DB) {
	t.Helper()
	ids := want.IDs()
	if g := got.IDs(); !slices.Equal(g, ids) {
		t.Fatalf("IDs differ: %d vs %d", len(g), len(ids))
	}
	type symRow struct {
		symbols string
		peaks   int32
	}
	rows := func(db *DB) ([]symRow, int) {
		db.imu.RLock()
		defer db.imu.RUnlock()
		out := make([]symRow, len(db.ids))
		for i, g := range db.idGroup {
			out[i] = symRow{db.syms.symbols[g], db.syms.peaks[g]}
		}
		return out, db.syms.groups()
	}
	gr, gg := rows(got)
	wr, wg := rows(want)
	if !slices.Equal(gr, wr) || gg != wg {
		t.Fatalf("symbol catalogue differs (%d vs %d groups)", gg, wg)
	}
	postings := func(db *DB) any {
		refs, err := db.rrIndex.Query(-1e15, 1e15)
		if err != nil {
			t.Fatal(err)
		}
		return refs
	}
	if !reflect.DeepEqual(postings(got), postings(want)) {
		t.Fatal("interval postings differ")
	}
	for _, id := range ids {
		g, _ := got.Record(id)
		w, _ := want.Record(id)
		if !slices.Equal(g.feats, w.feats) || !slices.Equal(g.zfeats, w.zfeats) || !reflect.DeepEqual(g.sketch, w.sketch) {
			t.Fatalf("%s: feature vectors or sketch differ", id)
		}
		if !slices.Equal(featRow(got, g), featRow(want, w)) {
			t.Fatalf("%s: feature index rows differ", id)
		}
	}

	exemplar, err := want.Reconstruct(ids[len(ids)/2])
	if err != nil {
		t.Fatal(err)
	}
	answers := func(db *DB) []any {
		var out []any
		add := func(v any, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		add(db.MatchPattern("F*U+F*D+F*U+F*D+F*"))
		add(db.SearchPattern("U+F*D+U+"))
		add(db.PeakCount(2, 1))
		add(db.IntervalQuery(150, 10))
		add(db.ValueQuery(exemplar, 8))
		add(db.DistanceQuery(exemplar, dist.Euclidean, 40))
		add(db.ShapeQuery(exemplar, ShapeTolerance{Peaks: 1, Height: 0.3, Spacing: 0.3}))
		return out
	}
	ga, wa := answers(got), answers(want)
	for f := range wa {
		if !reflect.DeepEqual(ga[f], wa[f]) {
			t.Fatalf("query family %d answers differ", f)
		}
	}
}

// featRow returns rec's row in the feature index (nil when unindexed).
func featRow(db *DB, rec *Record) []float64 {
	g := db.findex.group(rec.N, false)
	if g == nil {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	o, ok := g.ord[rec.ID]
	if !ok {
		return nil
	}
	dim := db.findex.dim
	return slices.Concat(g.feats[o*dim:(o+1)*dim], g.zfeats[o*dim:(o+1)*dim])
}
