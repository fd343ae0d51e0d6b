package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/synth"
)

func plannerDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := mustDB(t, cfg)
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "fever", fever)
	mustIngest(t, db, "near", fever.ShiftValue(0.05))
	mustIngest(t, db, "far", fever.ShiftValue(50))
	three, err := synth.ThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "three", three)
	short, err := synth.Fever(synth.FeverOpts{Samples: 33})
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "short", short)
	return db
}

func TestPlannerRouting(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	cases := []struct {
		metric dist.Metric
		plan   string
	}{
		{dist.Euclidean, PlanIndex},
		{dist.ZEuclidean, PlanIndex},
		{dist.Manhattan, PlanIndex},
		{dist.Chebyshev, PlanIndex},
		{dist.MeanAbs, PlanIndex},
		{dist.RMS, PlanIndex},
	}
	for _, c := range cases {
		_, stats, err := db.DistanceQueryCtx(context.Background(), fever, c.metric, 1, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.metric.Name(), err)
		}
		if stats.Plan != c.plan {
			t.Errorf("%s: plan = %q, want %q", c.metric.Name(), stats.Plan, c.plan)
		}
		if stats.Query != "distance" || stats.Metric != c.metric.Name() {
			t.Errorf("%s: stats labels %+v", c.metric.Name(), stats)
		}
	}
	_, stats, err := db.ValueQueryCtx(context.Background(), fever, 0.5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan != PlanIndex || stats.Query != "value" || stats.Metric != "band" {
		t.Errorf("value stats = %+v", stats)
	}
}

// TestFeatureScaleLowerBounds is the soundness property of featureScale,
// the one table every index route reads: for every built-in metric and
// the value band, on random pairs at an FFT length (64) and a direct-DFT
// length (97), the index never prunes a record the metric admits —
// FeatureDist(F(q), F(r)) ≤ lb.at(d(q, r)), which is scale·F ≤ d through
// the rounding contract — and the band's lift never exceeds the distance,
// lb.floor(F) ≤ d. Pairs run from identical and near-duplicate, where the
// slack decides, to unrelated, at magnitudes from 1e-4 to 1e8. Offset
// pairs are a walk on a level from 1e4 to 1e9 and the same walk shifted by
// a near-constant 100–1 000 ulps of the level: their distance does not
// grow with the level, while the rounding of a DC coefficient does. A
// custom metric has no entry and no bound.
func TestFeatureScaleLowerBounds(t *testing.T) {
	db := mustDB(t, Config{})
	rng := rand.New(rand.NewSource(18))
	metrics := map[string]func(a, b []float64) (float64, error){"band": dist.LInf}
	for _, m := range dist.Metrics() {
		metrics[m.Name()] = m.Distance
	}
	walk := func(n int, mag float64) []float64 {
		vals := make([]float64, n)
		level := mag * rng.NormFloat64()
		for i := range vals {
			level += mag * rng.NormFloat64()
			vals[i] = level
		}
		return vals
	}
	check := func(pair string, qv, rv []float64) {
		t.Helper()
		for name, d := range metrics {
			lb, _ := db.prefilters(name, qv)
			if !lb.prunes() {
				t.Fatalf("%s: no feature bound", name)
			}
			vals := rv
			if lb.z {
				vals = dist.ZNormalizeValues(vals)
			}
			rf, err := dft.Features(vals, db.findex.k)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := d(qv, rv)
			if err != nil {
				t.Fatal(err)
			}
			fd := dft.FeatureDist(lb.qf, rf)
			if fd > lb.at(dv) {
				t.Fatalf("%s %s: feature distance %g·%g = %g exceeds the distance %g", pair, name, fd, lb.scale, fd*lb.scale, dv)
			}
			if lo := lb.floor(fd); lo > dv {
				t.Fatalf("%s %s: band lift %g exceeds the distance %g", pair, name, lo, dv)
			}
		}
	}
	for _, n := range []int{64, 97} {
		for trial := range 300 {
			mag := math.Pow(10, float64(rng.Intn(13)-4))
			qv := walk(n, mag)
			rv := make([]float64, n)
			switch trial % 4 {
			case 0: // identical
				copy(rv, qv)
			case 1: // near-duplicate
				for i, v := range qv {
					rv[i] = v + 1e-9*mag*rng.NormFloat64()
				}
			case 2: // jittered
				for i, v := range qv {
					rv[i] = v + 0.1*mag*rng.NormFloat64()
				}
			default: // unrelated
				rv = walk(n, mag)
			}
			check(fmt.Sprintf("n=%d trial %d", n, trial), qv, rv)
		}
		for trial := range 120 {
			level := math.Pow(10, 4+5*rng.Float64())
			ulp := math.Nextafter(level, math.Inf(1)) - level
			delta := ulp * math.Pow(10, 2+rng.Float64())
			qv, rv := walk(n, 1), make([]float64, n)
			for i := range qv {
				qv[i] += level
				rv[i] = qv[i] + delta*(1+0.1*rng.Float64())
			}
			if trial%2 == 1 {
				qv, rv = rv, qv
			}
			check(fmt.Sprintf("n=%d offset %g δ %g", n, level, delta), qv, rv)
		}
	}
	if lb, qsk := db.prefilters("custom", walk(64, 1)); lb.prunes() || qsk != nil {
		t.Errorf("a custom metric got a feature bound %+v or a sketch %+v", lb, qsk)
	}
}

func TestPlannerDisabledIndexFallsBack(t *testing.T) {
	db := plannerDB(t, Config{IndexCoeffs: -1})
	if db.Stats().IndexCoeffs != 0 {
		t.Errorf("disabled index reports coefficients: %+v", db.Stats())
	}
	fever, _ := db.Reconstruct("fever")
	matches, stats, err := db.DistanceQueryCtx(context.Background(), fever, dist.Euclidean, 0.5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan != PlanScan {
		t.Errorf("plan = %q, want scan", stats.Plan)
	}
	if len(matches) != 2 { // fever itself + the 0.05-shifted copy (L2 ≈ 0.49)
		t.Errorf("matches = %+v", matches)
	}
}

func TestPlannerPrunesAndCounts(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	matches, stats, err := db.DistanceQueryCtx(context.Background(), fever, dist.Euclidean, 0.2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Four sequences share the exemplar's length; "far" (50 degrees away)
	// and "three" must be pruned in feature space at this tolerance.
	if stats.Examined != 4 {
		t.Errorf("Examined = %d, want 4 (the length group)", stats.Examined)
	}
	if stats.Pruned == 0 {
		t.Errorf("nothing pruned: %+v", stats)
	}
	if stats.Candidates+stats.Pruned != stats.Examined {
		t.Errorf("stats don't add up: %+v", stats)
	}
	if stats.Matches != len(matches) {
		t.Errorf("Matches = %d, len = %d", stats.Matches, len(matches))
	}
	if s := stats.String(); !strings.Contains(s, "plan=index") || !strings.Contains(s, "pruned=") {
		t.Errorf("String() = %q", s)
	}
}

// TestProgressiveCounts pins what the cascade's counters mean under each
// record source. Index-driven (l2): Examined is the feature vectors the
// index compared, and every one of them is pruned (by the index or a
// band), band-accepted or verified. Linear (the same query on a database
// without the index): Examined is every record the sketch pass visited,
// the off-length one included.
func TestProgressiveCounts(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	spec := QuerySpec{Family: FamilyDistance, Exemplar: fever, Metric: dist.Euclidean, Eps: 0.6}
	_, exact, err := db.querySorted(context.Background(), spec, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []QueryOptions{{}, {MaxError: 0.3}, {MaxTier: TierCandidate}} {
		frames, stats := collectFrames(t, db, spec, opts)
		if stats.Examined != exact.Examined || stats.Examined != 4 {
			t.Errorf("%+v: Examined = %d, want the exact plan's %d (the length group)", opts, stats.Examined, exact.Examined)
		}
		if stats.Pruned < exact.Pruned {
			t.Errorf("%+v: Pruned = %d, the index alone prunes %d", opts, stats.Pruned, exact.Pruned)
		}
		if stats.Examined != stats.Pruned+stats.BandAccepted+stats.Candidates {
			t.Errorf("%+v: stats don't add up: %+v", opts, stats)
		}
		if stats.Sketched != exact.Sketched {
			t.Errorf("%+v: Sketched = %d, want the exact plan's %d (the index's survivors)", opts, stats.Sketched, exact.Sketched)
		}
		if opts.MaxTier != TierNone && (stats.Candidates != 0 || stats.BandAccepted != len(frames)) {
			t.Errorf("%+v: capped run verified or dropped records: %+v, %d framed", opts, stats, len(frames))
		}
		if stats.Matches != len(acceptedOf(frames)) {
			t.Errorf("%+v: Matches = %d, accepted %d", opts, stats.Matches, len(acceptedOf(frames)))
		}
	}

	_, stats := collectFrames(t, plannerDB(t, Config{IndexCoeffs: -1}), spec, QueryOptions{})
	if stats.Examined != 5 || stats.Sketched != 4 {
		t.Errorf("linear source: Examined = %d, Sketched = %d, want 5 visited and 4 banded", stats.Examined, stats.Sketched)
	}
	if stats.Sketched != stats.Pruned+stats.BandAccepted+stats.Candidates {
		t.Errorf("linear source: stats don't add up: %+v", stats)
	}
}

func TestPlannerSeesRemove(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	_, before, err := db.DistanceQueryCtx(context.Background(), fever, dist.Euclidean, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("far"); err != nil {
		t.Fatal(err)
	}
	matches, after, err := db.DistanceQueryCtx(context.Background(), fever, dist.Euclidean, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Examined != before.Examined-1 {
		t.Errorf("Examined %d -> %d, want one fewer", before.Examined, after.Examined)
	}
	for _, m := range matches {
		if m.ID == "far" {
			t.Errorf("removed sequence matched: %+v", matches)
		}
	}
}

func TestPlannerValidation(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	if _, _, err := db.DistanceQueryCtx(context.Background(), nil, dist.Euclidean, 1, QueryOptions{}); err == nil {
		t.Error("empty exemplar accepted")
	}
	if _, _, err := db.DistanceQueryCtx(context.Background(), fever, nil, 1, QueryOptions{}); err == nil {
		t.Error("nil metric accepted")
	}
	if _, _, err := db.DistanceQueryCtx(context.Background(), fever, dist.Euclidean, -1, QueryOptions{}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, _, err := db.ValueQueryCtx(context.Background(), nil, 1, QueryOptions{}); err == nil {
		t.Error("empty value exemplar accepted")
	}
	if _, _, err := db.ValueQueryCtx(context.Background(), fever, -1, QueryOptions{}); err == nil {
		t.Error("negative value tolerance accepted")
	}
}
