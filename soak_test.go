package seqrep_test

// A larger-scale integration test: a mixed corpus of several hundred
// sequences across every workload, exercising all query types with
// count-level assertions, then a persistence round trip. This is the
// closest thing to the production usage the library targets.

import (
	"fmt"
	"math/rand"
	"testing"

	"seqrep"
)

func TestSoakMixedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := seqrep.Config{Epsilon: 0.5, Delta: 0.25}
	db, err := seqrep.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))

	const perKind = 60
	// Two-peak fevers with varied geometry.
	for i := 0; i < perKind; i++ {
		first := 4 + rng.Float64()*6
		s, err := seqrep.GenerateFever(seqrep.FeverOpts{
			Samples:    97,
			FirstPeak:  first,
			SecondPeak: first + 6 + rng.Float64()*6,
			PeakWidth:  1.2 + rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Ingest(fmt.Sprintf("fever-%03d", i), s.ShiftValue(rng.Float64()*2)); err != nil {
			t.Fatal(err)
		}
	}
	// Three-peak controls.
	for i := 0; i < perKind/2; i++ {
		s, err := seqrep.GenerateThreePeakFever(97)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Ingest(fmt.Sprintf("three-%03d", i), s.ShiftValue(rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	// Flat controls.
	for i := 0; i < perKind/3; i++ {
		if err := db.Ingest(fmt.Sprintf("flat-%03d", i), seqrep.NewSequence(constVals(97, 98+rng.Float64()))); err != nil {
			t.Fatal(err)
		}
	}
	total := perKind + perKind/2 + perKind/3
	if db.Len() != total {
		t.Fatalf("Len = %d, want %d", db.Len(), total)
	}

	// Peak-count query: exactly the fevers.
	twoPeak, err := db.PeakCount(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(twoPeak) != perKind {
		t.Errorf("two-peak matches = %d, want %d", len(twoPeak), perKind)
	}
	// Pattern query agrees with the peak counter on this corpus.
	patIDs, err := db.MatchPattern(seqrep.TwoPeakPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(patIDs) != perKind {
		t.Errorf("pattern matches = %d, want %d", len(patIDs), perKind)
	}
	// Three-peak pattern finds the controls.
	threeIDs, err := db.MatchPattern(seqrep.ExactlyPeaksPattern(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(threeIDs) != perKind/2 {
		t.Errorf("three-peak matches = %d, want %d", len(threeIDs), perKind/2)
	}
	// Peak-unit search: 2 per fever + 3 per control.
	hits, err := db.SearchPattern(seqrep.PeakUnitPattern)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := perKind*2 + (perKind/2)*3
	if len(hits) != wantHits {
		t.Errorf("peak-unit hits = %d, want %d", len(hits), wantHits)
	}
	// Interval query over all two-peak spacings (6..12h): every fever.
	im, err := db.IntervalQuery(9, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(im) < perKind*9/10 {
		t.Errorf("interval matches = %d, want ~%d", len(im), perKind)
	}

	// Remove a slice of records and re-check global consistency.
	for i := 0; i < 10; i++ {
		if err := db.Remove(fmt.Sprintf("fever-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	twoPeak, err = db.PeakCount(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(twoPeak) != perKind-10 {
		t.Errorf("after removal: %d matches", len(twoPeak))
	}

	// Persistence round trip preserves every query result.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := seqrep.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	reIDs, err := loaded.MatchPattern(seqrep.TwoPeakPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(reIDs) != perKind-10 {
		t.Errorf("loaded pattern matches = %d", len(reIDs))
	}
	st := loaded.Stats()
	if st.Sequences != db.Len() || st.Segments == 0 {
		t.Errorf("loaded stats %+v", st)
	}
}

func constVals(n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}
