package core

// Tests for the bounded, cancellable query path: TOP-K exactness (the
// bounded answer is literally the unbounded answer sorted and
// truncated, across every metric and plan), best-so-far pruning (the
// index examines strictly fewer vectors under a small K), LIMIT
// semantics, and cancellation hygiene (ctx.Err() surfaces promptly and
// no goroutine outlives a cancelled query). Run with -race.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// peakySeq builds a two-peak curve riding at the given baseline shift, so
// shape queries have peaked records and exemplars to work with.
func peakySeq(shift float64) seq.Sequence {
	vals := make([]float64, 60)
	for i := range vals {
		x := float64(i)
		vals[i] = shift + 5*math.Exp(-(x-15)*(x-15)/20) + 4*math.Exp(-(x-40)*(x-40)/30)
	}
	return seq.New(vals)
}

// sortTrunc is the TOP-K oracle: the unbounded result in canonical
// order, cut to k.
func sortTrunc(matches []Match, k int) []Match {
	out := append([]Match(nil), matches...)
	SortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestTopKEquivalence pins the satellite property: TOP n over any metric,
// with the index on or off, equals sorting the unbounded result and
// truncating — including n larger than the match count and an unbounded
// (+Inf) radius.
func TestTopKEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, coeffs := range []int{0, -1} { // 0 = default index on, -1 = off
		t.Run(fmt.Sprintf("coeffs=%d", coeffs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4242))
			db := mustDB(t, Config{IndexCoeffs: coeffs})
			exemplar := equivalenceWorkload(t, db, rng, 64)

			for _, m := range dist.Metrics() {
				for _, eps := range []float64{1, 16, math.Inf(1)} {
					full, _, err := db.DistanceQueryCtx(ctx, exemplar, m, eps, QueryOptions{})
					if err != nil {
						t.Fatalf("unbounded %s eps=%g: %v", m.Name(), eps, err)
					}
					for _, k := range []int{1, 3, 10, 1000} {
						got, stats, err := db.DistanceQueryCtx(ctx, exemplar, m, eps, QueryOptions{TopK: k})
						if err != nil {
							t.Fatalf("top-%d %s eps=%g: %v", k, m.Name(), eps, err)
						}
						want := sortTrunc(full, k)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s eps=%g top-%d: got %+v, want %+v", m.Name(), eps, k, got, want)
						}
						// Truncated is exact except at len(full) == k, where
						// post-fill pruning cannot be told apart from true
						// non-matches (conservative true is allowed).
						switch {
						case len(full) > k && !stats.Truncated:
							t.Errorf("%s eps=%g top-%d: %d matches cut but Truncated not reported", m.Name(), eps, k, len(full))
						case len(full) < k && stats.Truncated:
							t.Errorf("%s eps=%g top-%d: nothing cut but Truncated reported", m.Name(), eps, k)
						}
					}
				}
			}

			for _, eps := range []float64{0.3, 2, 8} {
				full, _, err := db.ValueQueryCtx(ctx, exemplar, eps, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 4, 100} {
					got, _, err := db.ValueQueryCtx(ctx, exemplar, eps, QueryOptions{TopK: k})
					if err != nil {
						t.Fatal(err)
					}
					if want := sortTrunc(full, k); !reflect.DeepEqual(got, want) {
						t.Errorf("value eps=%g top-%d: got %+v, want %+v", eps, k, got, want)
					}
				}
			}

			// Shape queries need a peaked exemplar; the smooth walks above
			// may break without peaks, so add a two-peak family.
			for i := 0; i < 6; i++ {
				mustIngest(t, db, fmt.Sprintf("peak-%d", i), peakySeq(float64(i)))
			}
			shapeEx := peakySeq(0.5)
			tol := ShapeTolerance{Peaks: 2, Height: 1, Spacing: 1}
			full, err := db.ShapeQuery(shapeEx, tol)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) < 3 {
				t.Fatalf("shape workload too sparse: %d matches", len(full))
			}
			for _, k := range []int{1, 5} {
				got, _, err := db.ShapeQueryCtx(ctx, shapeEx, tol, QueryOptions{TopK: k})
				if err != nil {
					t.Fatal(err)
				}
				if want := sortTrunc(full, k); !reflect.DeepEqual(got, want) {
					t.Errorf("shape top-%d: got %+v, want %+v", k, got, want)
				}
			}
		})
	}
}

// TestTopKIndexExaminesFewer pins the acceptance criterion behind
// best-so-far pruning: on a clustered corpus, TOP n BY DISTANCE through
// the index examines strictly fewer feature vectors than the equivalent
// unbounded query — the shrinking radius cuts subtrees the fixed radius
// must visit.
func TestTopKIndexExaminesFewer(t *testing.T) {
	db, items := clusteredDB(t, Config{Workers: 2}, 2000, 64)
	exemplar := items[7].Seq
	// eps admits every cluster (inter-cluster feature distance is a few
	// hundred), so the unbounded search must examine the whole group
	// while top-5 shrinks its radius to within-cluster scale after the
	// first verified handful.
	const eps = 5000

	_, full, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, eps, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Plan != PlanIndex {
		t.Fatalf("unbounded plan = %q, want index", full.Plan)
	}
	got, topk, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, eps, QueryOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("top-5 returned %d matches", len(got))
	}
	if topk.Plan != PlanIndex {
		t.Fatalf("top-k plan = %q, want index", topk.Plan)
	}
	if topk.Examined >= full.Examined {
		t.Errorf("top-5 examined %d vectors, unbounded %d: best-so-far pruning is not engaged",
			topk.Examined, full.Examined)
	}
}

// TestQueryLimit pins LIMIT semantics on both plans: at most n matches,
// every one a member of the unbounded answer, truncation reported when
// the bound was reached (see QueryStats.Truncated).
func TestQueryLimit(t *testing.T) {
	ctx := context.Background()
	for _, coeffs := range []int{0, -1} {
		rng := rand.New(rand.NewSource(99))
		db := mustDB(t, Config{IndexCoeffs: coeffs})
		exemplar := equivalenceWorkload(t, db, rng, 64)
		full, _, err := db.DistanceQueryCtx(ctx, exemplar, dist.Euclidean, 64, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			t.Fatalf("workload too sparse: %d matches", len(full))
		}
		members := map[string]bool{}
		for _, m := range full {
			members[m.ID] = true
		}
		// At exactly Limit matches the collector stops on delivering the
		// Limit-th without looking for another: Truncated, nothing cut.
		for _, limit := range []int{3, len(full)} {
			limited, stats, err := db.DistanceQueryCtx(ctx, exemplar, dist.Euclidean, 64, QueryOptions{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if len(limited) != limit {
				t.Fatalf("coeffs=%d: limit %d returned %d matches", coeffs, limit, len(limited))
			}
			if !stats.Truncated {
				t.Errorf("coeffs=%d: limit %d hit but Truncated not reported", coeffs, limit)
			}
			for _, m := range limited {
				if !members[m.ID] {
					t.Errorf("coeffs=%d: limited result %q not in the unbounded answer", coeffs, m.ID)
				}
			}
		}
		// A limit the answer never reaches changes nothing.
		loose, stats, err := db.DistanceQueryCtx(ctx, exemplar, dist.Euclidean, 64, QueryOptions{Limit: len(full) + 10})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loose, full) {
			t.Errorf("coeffs=%d: unreached limit altered the answer", coeffs)
		}
		if stats.Truncated {
			t.Errorf("coeffs=%d: unreached limit reported Truncated", coeffs)
		}
	}
}

// slowDB builds a paged database — 1-byte budget, checkpointed, so every
// representation is cold — whose segment-tier reads cost readLatency:
// production's slow path, slow enough to cancel a query mid-verification.
// coeffs is Config.IndexCoeffs (-1 pins the scan plan).
func slowDB(t testing.TB, n int, readLatency time.Duration, coeffs int) (*DB, seq.Sequence) {
	t.Helper()
	db := pagedDB(t, Config{Workers: 2, IndexCoeffs: coeffs})
	rng := rand.New(rand.NewSource(5150))
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{ID: fmt.Sprintf("slow-%04d", i), Seq: smoothWalk(rng, 48)}
	}
	if _, err := db.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.SetSegmentReadFault(func() error { time.Sleep(readLatency); return nil })
	return db, items[0].Seq
}

// settleGoroutines polls until the goroutine count returns to (near) the
// baseline, tolerating runtime background goroutines.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancelled query: baseline %d, now %d\n%s",
				baseline, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// featureSpecs are one query per feature family that most records of a
// slowDB (FIND: every one) or a featureCorpus (interval: the fevers and
// ECGs) answer.
var featureSpecs = []QuerySpec{
	{Family: FamilyPattern, Pattern: ".*"},
	{Family: FamilyFind, Pattern: "F"},
	{Family: FamilyPeaks, Peaks: 0, PeakTolerance: 1000},
	{Family: FamilyInterval, Interval: 0, Eps: 1e6},
}

// TestQueryCancellation is the cancellation-hygiene guard, one row per
// producer of the one executor: a query cancelled mid-flight returns
// ctx.Err() promptly — within one verification batch or one delivery,
// not after finishing the scan — and leaves zero goroutines behind.
func TestQueryCancellation(t *testing.T) {
	const perRead = 2 * time.Millisecond
	indexed, exemplar := slowDB(t, 400, perRead, 0)
	scan, _ := slowDB(t, 400, perRead, -1)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: math.Inf(1)}
	type row struct {
		name        string
		db          *DB
		opts        QueryOptions
		progressive bool
		spec        QuerySpec
	}
	rows := []row{
		{"index", indexed, QueryOptions{}, false, spec},
		{"scan", scan, QueryOptions{}, false, spec},
		{"top-k", indexed, QueryOptions{TopK: 300}, false, spec},
		{"progressive", indexed, QueryOptions{}, true, spec},
	}
	// FIND pages every hit record's representation in (400 cold reads in
	// all, one by one), and cancels at its first hit; the other feature
	// families read no representation and cancel from their first yield.
	features := mustDB(t, Config{})
	if _, err := features.IngestBatch(featureCorpus(t, rand.New(rand.NewSource(35)), 400)); err != nil {
		t.Fatal(err)
	}
	for _, fs := range featureSpecs {
		db := features
		if fs.Family == FamilyFind {
			db = indexed
		}
		rows = append(rows, row{fs.Family, db, QueryOptions{}, false, fs})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if r.opts.TopK > 0 {
				// Top-K delivers nothing before the search completes (300
				// verifications here), so its cancel comes from outside.
				defer time.AfterFunc(10*time.Millisecond, cancel).Stop()
			}
			var err error
			start := time.Now()
			if r.progressive {
				_, err = r.db.QueryProgressive(ctx, r.spec, r.opts, func(pm ProgressiveMatch) bool {
					if pm.Final { // the first exact verdict: mid-verification
						cancel()
					}
					return true
				})
			} else {
				_, err = r.db.Query(ctx, r.spec, r.opts, func(Match) bool {
					cancel() // cancel as soon as the first match arrives
					return true
				})
			}
			elapsed := time.Since(start)
			if err != context.Canceled {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
			// The full scan costs ~400 reads × 2ms / 2 workers ≈ 400ms; a prompt
			// cancellation stops after a handful of in-flight verifications.
			if elapsed > 250*time.Millisecond {
				t.Errorf("cancelled query took %s, want well under the full-scan cost", elapsed)
			}
			settleGoroutines(t, baseline)
		})
	}

	// A context cancelled before the query starts never scans at all.
	baseline := runtime.NumGoroutine()
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := indexed.DistanceQueryCtx(pre, exemplar, dist.Euclidean, 1, QueryOptions{}); err != context.Canceled {
		t.Fatalf("pre-cancelled query returned %v", err)
	}
	for _, fs := range featureSpecs {
		if _, err := indexed.Query(pre, fs, QueryOptions{}, func(Match) bool { return true }); err != context.Canceled {
			t.Fatalf("pre-cancelled %s query returned %v", fs.Family, err)
		}
	}
	settleGoroutines(t, baseline)
}

// TestQueryDeadline: a deadline context surfaces DeadlineExceeded.
func TestQueryDeadline(t *testing.T) {
	db, exemplar := slowDB(t, 300, 2*time.Millisecond, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := db.DistanceQueryCtx(ctx, exemplar, dist.Euclidean, math.Inf(1), QueryOptions{})
	if err != context.DeadlineExceeded {
		t.Fatalf("deadline query returned %v", err)
	}
}

// TestQuerySeqEarlyBreak: breaking out of the iterator form cancels the
// underlying query and leaks nothing; the break is not an error.
func TestQuerySeqEarlyBreak(t *testing.T) {
	db, exemplar := slowDB(t, 300, time.Millisecond, 0)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: math.Inf(1)}
	baseline := runtime.NumGoroutine()
	seen := 0
	for m, err := range db.QuerySeq(context.Background(), spec, QueryOptions{}) {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if m.ID == "" {
			t.Fatal("empty match")
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d matches before break", seen)
	}
	settleGoroutines(t, baseline)

	// Full consumption delivers the whole (sorted, under TopK) answer.
	var ids []string
	for m, err := range db.QuerySeq(context.Background(), spec, QueryOptions{TopK: 3}) {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		ids = append(ids, m.ID)
	}
	if len(ids) != 3 {
		t.Fatalf("top-3 iterator yielded %v", ids)
	}
	want, _, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, math.Inf(1), QueryOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range want {
		if ids[i] != m.ID {
			t.Fatalf("iterator order %v != materialized %+v", ids, want)
		}
	}
	settleGoroutines(t, baseline)
}

// TestQueryOptionsValidation rejects nonsense bounds.
func TestQueryOptionsValidation(t *testing.T) {
	db := mustDB(t, Config{})
	mustIngest(t, db, "one", smoothWalk(rand.New(rand.NewSource(1)), 32))
	ex, err := db.Reconstruct("one")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.DistanceQueryCtx(context.Background(), ex, dist.Euclidean, 1, QueryOptions{Limit: -1}); err == nil {
		t.Error("negative limit accepted")
	}
	if _, _, err := db.DistanceQueryCtx(context.Background(), ex, dist.Euclidean, 1, QueryOptions{TopK: -2}); err == nil {
		t.Error("negative top-k accepted")
	}
	if _, _, err := db.DistanceQueryCtx(context.Background(), ex, dist.Euclidean, math.NaN(), QueryOptions{}); err == nil {
		t.Error("NaN tolerance accepted")
	}
}
