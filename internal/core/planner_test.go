package core

import (
	"context"
	"strings"
	"testing"

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
		{dist.Manhattan, PlanScan},
		{dist.Chebyshev, PlanScan},
		{dist.MeanAbs, PlanScan},
		{dist.RMS, PlanScan},
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
// band), band-accepted or verified. Linear (l1): Examined is every record
// the sketch pass visited, the off-length one included.
func TestProgressiveCounts(t *testing.T) {
	db := plannerDB(t, Config{})
	fever, _ := db.Reconstruct("fever")
	spec := QuerySpec{Family: FamilyDistance, Exemplar: fever, Metric: dist.Euclidean, Eps: 0.6}
	_, exact, err := db.querySorted(context.Background(), spec, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []QueryOptions{{}, {MaxError: 0.3}, {MaxTier: TierSketch}, {MaxTier: TierCandidate}} {
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
		if stats.Sketched != exact.Candidates {
			t.Errorf("%+v: Sketched = %d, want the index's %d survivors", opts, stats.Sketched, exact.Candidates)
		}
		if opts.MaxTier != TierNone && (stats.Candidates != 0 || stats.BandAccepted != len(frames)) {
			t.Errorf("%+v: capped run verified or dropped records: %+v, %d framed", opts, stats, len(frames))
		}
		if stats.Matches != len(acceptedOf(frames)) {
			t.Errorf("%+v: Matches = %d, accepted %d", opts, stats.Matches, len(acceptedOf(frames)))
		}
	}

	spec.Metric = dist.Manhattan
	_, stats := collectFrames(t, db, spec, QueryOptions{})
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
