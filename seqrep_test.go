package seqrep_test

import (
	"math/rand"
	"testing"

	"seqrep"
)

// TestPublicAPIEndToEnd exercises the whole facade the way a downstream
// user would: generate data, build a database, run every query type,
// checkpoint and reopen.
func TestPublicAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := seqrep.Config{}
	db, err := seqrep.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	fever, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	three, err := seqrep.GenerateThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("two", fever); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("three", three); err != nil {
		t.Fatal(err)
	}

	// Pattern query.
	ids, err := db.MatchPattern(seqrep.TwoPeakPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "two" {
		t.Errorf("MatchPattern = %v", ids)
	}

	// Peak count with tolerance.
	matches, err := db.PeakCount(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || !matches[0].Exact || matches[1].Exact {
		t.Errorf("PeakCount = %+v", matches)
	}

	// Shape query.
	shape, err := db.ShapeQuery(fever, seqrep.ShapeTolerance{Height: 0.2, Spacing: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(shape) != 1 || shape[0].ID != "two" {
		t.Errorf("ShapeQuery = %+v", shape)
	}

	// Value query: a record's reconstruction is an exact match of itself.
	stored, err := db.Reconstruct("two")
	if err != nil {
		t.Fatal(err)
	}
	val, err := db.ValueQuery(stored, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != 1 || !val[0].Exact {
		t.Errorf("ValueQuery = %+v", val)
	}

	// Persistence round trip: checkpoint, close, reopen the directory.
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
	if loaded.Len() != 2 {
		t.Errorf("reopened with %d records", loaded.Len())
	}
	if again, err := loaded.ValueQuery(stored, 0.1); err != nil || len(again) != 1 || again[0].ID != "two" {
		t.Errorf("ValueQuery after reopen = %+v, %v", again, err)
	}
}

func TestPublicECGFlow(t *testing.T) {
	db, err := seqrep.New(seqrep.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	ecg, rPeaks, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("ecg", ecg); err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Record("ecg")
	if !ok {
		t.Fatal("record missing")
	}
	if len(rec.Profile.Peaks) != len(rPeaks) {
		t.Errorf("peaks %d, ground truth %d", len(rec.Profile.Peaks), len(rPeaks))
	}
	im, err := db.IntervalQuery(130, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(im) != 1 || im[0].ID != "ecg" {
		t.Errorf("IntervalQuery = %+v", im)
	}
}

func TestPublicBreakersAndFitters(t *testing.T) {
	fever, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	breakers := []seqrep.Breaker{
		seqrep.NewInterpolationBreaker(0.5),
		seqrep.NewRegressionBreaker(0.5),
		seqrep.NewBezierBreaker(0.5),
		seqrep.NewDPBreaker(0.5, 1),
		seqrep.NewOnlineBreaker(0.5),
	}
	for _, b := range breakers {
		segs, err := b.Break(fever)
		if err != nil {
			t.Errorf("%s: %v", b.Name(), err)
			continue
		}
		if len(segs) < 2 {
			t.Errorf("%s: %d segments", b.Name(), len(segs))
		}
	}
	for _, f := range []seqrep.Fitter{
		seqrep.InterpolationFitter(),
		seqrep.RegressionFitter(),
		seqrep.PolynomialFitter(2),
		seqrep.BezierFitter(),
	} {
		c, err := f.Fit(fever[:10])
		if err != nil {
			t.Errorf("%s: %v", f.Name(), err)
			continue
		}
		if c == nil {
			t.Errorf("%s returned nil curve", f.Name())
		}
	}
}

func TestPublicPreprocessAndGenerators(t *testing.T) {
	chain := seqrep.StandardPreprocess(3, 3)
	db, err := seqrep.New(seqrep.Config{Preprocess: chain, Epsilon: 0.05, Delta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	seismic, starts, err := seqrep.GenerateSeismic(rng, seqrep.SeismicOpts{Samples: 1200, Events: 2})
	if err != nil || len(starts) != 2 {
		t.Fatalf("seismic: %v %v", starts, err)
	}
	if err := db.Ingest("quake", seismic); err != nil {
		t.Fatal(err)
	}
	stock, err := seqrep.GenerateStock(rng, 300, 100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("stock", stock); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	seqs := seqrep.NewSequence([]float64{1, 2, 3})
	if len(seqs) != 3 {
		t.Error("NewSequence")
	}
	if _, err := seqrep.NewSequenceFromSamples([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched samples accepted")
	}
}
