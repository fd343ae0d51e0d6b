package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"seqrep/internal/filter"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

func mustDB(t testing.TB, cfg Config) *DB {
	t.Helper()
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pagedDB opens a durable database in a throwaway directory with a
// 1-byte residency budget: once checkpointed, every clean payload is
// evicted and each exact verification pages back in from the segment
// tier — the "tiny" point of the residency test dimension.
func pagedDB(t testing.TB, cfg Config) *DB {
	t.Helper()
	cfg.MemoryBudget = 1
	db, err := OpenDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustIngest(t testing.TB, db *DB, id string, s seq.Sequence) {
	t.Helper()
	if err := db.Ingest(id, s); err != nil {
		t.Fatalf("ingest %q: %v", id, err)
	}
}

func feverDB(t *testing.T) *DB {
	t.Helper()
	db := mustDB(t, Config{})
	fillFever(t, db)
	return db
}

// fillFever ingests the two-peak fever family plus a three-peak and a
// flat distractor.
func fillFever(t *testing.T, db *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(1996))
	exemplar, variants, err := synth.TwoPeakFamily(rng, 97)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "exemplar", exemplar)
	for v, s := range variants {
		mustIngest(t, db, v.String(), s)
	}
	three, err := synth.ThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "three-peaks", three)
	flat := synth.Const(97, 98.0)
	mustIngest(t, db, "flat", flat)
}

func TestNewDefaults(t *testing.T) {
	db := mustDB(t, Config{})
	cfg := db.Config()
	if cfg.Epsilon != 0.5 || cfg.Delta != 0.25 || cfg.BucketWidth != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.Breaker == nil {
		t.Error("no default breaker")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := New(Config{Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := New(Config{BucketWidth: -2}); err == nil {
		t.Error("negative bucket width accepted")
	}
}

// TestNewRefusesNonFiniteScalars: a NaN or infinite ε or δ would build
// and ingest, then fail every checkpoint (the manifest cannot encode it),
// so the log would never truncate. New and OpenDir must refuse it.
func TestNewRefusesNonFiniteScalars(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for name, cfg := range map[string]Config{"epsilon": {Epsilon: v}, "delta": {Delta: v}} {
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted %s %g", name, v)
			}
			if db, err := OpenDir(t.TempDir(), cfg); err == nil {
				db.Close()
				t.Errorf("OpenDir accepted %s %g", name, v)
			}
		}
	}
}

func TestIngestValidation(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{})
	if err := db.Ingest("", fever); err == nil {
		t.Error("empty id accepted")
	}
	if err := db.Ingest("x", nil); err == nil {
		t.Error("empty sequence accepted")
	}
	bad := seq.Sequence{{T: 1, V: 0}, {T: 0, V: 0}}
	if err := db.Ingest("x", bad); err == nil {
		t.Error("invalid sequence accepted")
	}
	mustIngest(t, db, "x", fever)
	if err := db.Ingest("x", fever); err == nil {
		t.Error("duplicate id accepted")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestRecordAndIDs(t *testing.T) {
	db := feverDB(t)
	ids := db.IDs()
	if len(ids) != db.Len() {
		t.Fatalf("IDs %d vs Len %d", len(ids), db.Len())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs not sorted")
		}
	}
	rec, ok := db.Record("exemplar")
	if !ok {
		t.Fatal("exemplar missing")
	}
	if rec.N != 97 || rec.rep.Load() == nil || rec.Profile == nil {
		t.Errorf("record incomplete: %+v", rec)
	}
	if _, ok := db.Record("nope"); ok {
		t.Error("phantom record")
	}
}

func TestRemove(t *testing.T) {
	db := feverDB(t)
	before := db.Len()
	if err := db.Remove("three-peaks"); err != nil {
		t.Fatal(err)
	}
	if db.Len() != before-1 {
		t.Errorf("Len after remove = %d", db.Len())
	}
	if err := db.Remove("three-peaks"); err == nil {
		t.Error("double remove accepted")
	}
	// Interval postings for the removed id are gone.
	matches, err := db.IntervalQuery(7, 7) // wide range over fever spacing
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == "three-peaks" {
			t.Error("removed id still indexed")
		}
	}
}

func TestReconstruct(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{})
	mustIngest(t, db, "f", fever)
	back, err := db.Reconstruct("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(fever) {
		t.Fatalf("reconstructed %d samples", len(back))
	}
	// Within ε everywhere (interpolation representation).
	for i := range fever {
		d := back[i].V - fever[i].V
		if d < 0 {
			d = -d
		}
		if d > 0.5+1e-9 {
			t.Errorf("sample %d deviates %g", i, d)
		}
	}
	if _, err := db.Reconstruct("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// The preprocessing hook: ingest normalized, verify the stored profile is
// computed on the normalized form.
func TestIngestWithPreprocess(t *testing.T) {
	chain := &filter.Chain{}
	chain.Add("normalize", func(s seq.Sequence) (seq.Sequence, error) { return s.Normalize() })
	db := mustDB(t, Config{Preprocess: chain, Epsilon: 0.05, Delta: 0.02})
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	mustIngest(t, db, "f", fever)
	rec, _ := db.Record("f")
	if len(rec.Profile.Peaks) != 2 {
		t.Errorf("normalized fever peaks = %d (symbols %q)", len(rec.Profile.Peaks), rec.Profile.Symbols)
	}
}

// A preprocessing stage that fails must abort ingestion cleanly.
func TestIngestPreprocessFailure(t *testing.T) {
	chain := &filter.Chain{}
	chain.Add("explode", func(s seq.Sequence) (seq.Sequence, error) { return nil, seq.ErrEmpty })
	db := mustDB(t, Config{Preprocess: chain})
	fever, _ := synth.Fever(synth.FeverOpts{})
	if err := db.Ingest("f", fever); err == nil {
		t.Error("failing preprocess accepted")
	}
	if db.Len() != 0 {
		t.Error("failed ingest left a record")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := feverDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				if _, err := db.PeakCount(2, 1); err != nil {
					done <- err
					return
				}
				if _, err := db.MatchPattern("[FD]*(U+F*D[FD]*)*"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Sequences sharing a symbol string are grouped so pattern queries
// evaluate each distinct string once; removal keeps the grouping exact.
func TestSymbolInterning(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	for _, id := range []string{"a", "b", "c"} {
		// Identical shapes (shifting preserves symbols exactly).
		mustIngest(t, db, id, fever.ShiftValue(float64(len(id))))
	}
	three, _ := synth.ThreePeakFever(97)
	mustIngest(t, db, "odd", three)

	if got := db.syms.groups(); got != 2 {
		t.Fatalf("distinct symbol groups = %d, want 2", got)
	}
	ids, err := db.MatchPattern("[FD]*(U+F*D[FD]*){2}(U+F*)?")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Errorf("MatchPattern = %v", ids)
	}
	if err := db.Remove("b"); err != nil {
		t.Fatal(err)
	}
	ids, err = db.MatchPattern("[FD]*(U+F*D[FD]*){2}(U+F*)?")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("after removal: %v", ids)
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if got := db.syms.groups(); got != 1 {
		t.Errorf("empty groups retained: %d", got)
	}
}

// SearchPattern hits are ordered and carry per-sequence time spans even
// when symbol strings are shared.
func TestSearchPatternSharedSymbols(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	mustIngest(t, db, "x", fever)
	mustIngest(t, db, "y", fever.ShiftTime(100)) // same symbols, shifted times
	hits, err := db.SearchPattern("U+F*D")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 { // two peaks in each
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].ID > hits[i].ID {
			t.Error("hits not ordered by id")
		}
	}
	// Time spans reflect each sequence's own axis.
	if hits[0].ID != "x" || hits[2].ID != "y" {
		t.Fatalf("hit ids: %+v", hits)
	}
	if hits[2].TimeLo < 100 {
		t.Errorf("shifted sequence hit at time %g", hits[2].TimeLo)
	}
}

func TestStats(t *testing.T) {
	db := feverDB(t)
	st := db.Stats()
	if st.Sequences != db.Len() {
		t.Errorf("Sequences = %d, Len = %d", st.Sequences, db.Len())
	}
	if st.Samples < 9*49 { // nine 97ish-sample sequences
		t.Errorf("Samples = %d", st.Samples)
	}
	if st.Segments <= st.Sequences {
		t.Errorf("Segments = %d", st.Segments)
	}
	if st.StoredFloats < st.Segments*4 {
		t.Errorf("StoredFloats = %d for %d segments", st.StoredFloats, st.Segments)
	}
	if st.SymbolGroups < 2 || st.SymbolGroups > st.Sequences {
		t.Errorf("SymbolGroups = %d", st.SymbolGroups)
	}
	if st.IntervalCount == 0 || st.IntervalBucket == 0 {
		t.Errorf("interval index empty: %+v", st)
	}
	empty := mustDB(t, Config{})
	if got := empty.Stats(); got != (Stats{Shards: 16, IndexCoeffs: 8}) {
		t.Errorf("empty stats = %+v", got)
	}
}

func TestIngestConcurrent(t *testing.T) {
	db := mustDB(t, Config{})
	fever, _ := synth.Fever(synth.FeverOpts{})
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func(n int) {
			done <- db.Ingest(string(rune('a'+n)), fever)
		}(i)
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 10 {
		t.Errorf("Len = %d", db.Len())
	}
	if !strings.HasPrefix(db.IDs()[0], "a") {
		t.Errorf("IDs = %v", db.IDs())
	}
}
