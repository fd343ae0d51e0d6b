package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seqrep/internal/dist"
	"seqrep/internal/filter"
	"seqrep/internal/seq"
)

// alternating is n samples alternating ±v.
func alternating(n int, v float64) seq.Sequence {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
		if i%2 == 1 {
			vals[i] = -v
		}
	}
	return seq.New(vals)
}

// TestMagnitudeCapRefusesOverflow: two 64-sample sequences alternating
// ±1e155, one the other's negation, are 1.6e156 apart in l2, but the
// squared differences overflow and an l2 query at EPS 1e305 used to
// answer only the exemplar. Such samples are now refused at the write
// and as an exemplar; at the cap itself the same pair is both stored and
// found.
func TestMagnitudeCapRefusesOverflow(t *testing.T) {
	db := mustDB(t, Config{})
	a, b := alternating(64, 1e155), alternating(64, -1e155)
	if err := db.Ingest("a", a); !errors.Is(err, ErrMagnitude) {
		t.Fatalf("Ingest at 1e155: %v, want ErrMagnitude", err)
	}
	n, failed := db.IngestBatchItems([]BatchItem{{ID: "b", Seq: b}, {ID: "ok", Seq: alternating(64, 1)}})
	if n != 1 || len(failed) != 1 || failed[0].Index != 0 || !errors.Is(failed[0], ErrMagnitude) {
		t.Fatalf("batch: %d ingested, failures %v; want only item 0 refused with ErrMagnitude", n, failed)
	}
	if _, err := db.DistanceQuery(a, dist.Euclidean, 1e305); !errors.Is(err, ErrMagnitude) {
		t.Fatalf("exemplar at 1e155: %v, want ErrMagnitude", err)
	}

	capped := mustDB(t, Config{})
	for _, sign := range []float64{1, -1} {
		if err := capped.Ingest(fmt.Sprint(sign), alternating(64, sign*MaxMagnitude)); err != nil {
			t.Fatalf("Ingest at the cap: %v", err)
		}
	}
	exemplar, err := capped.Reconstruct("1")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []QueryOptions{{}, {TopK: 2}} {
		matches, _, err := capped.querySorted(context.Background(), QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: 1e305}, opts)
		if err != nil || len(matches) != 2 {
			t.Fatalf("%+v: l2 at EPS 1e305 answered %v (%v), want both records", opts, matches, err)
		}
		if d := matches[1].Dev; math.IsInf(d, 0) || math.IsNaN(d) {
			t.Errorf("%+v: distance %v", opts, d)
		}
	}
}

// TestMagnitudeCapReplays: the cap guards the write entry only. A log
// record an older binary acknowledged past it still replays.
func TestMagnitudeCapReplays(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	if p := db.ingest([]BatchItem{{ID: "big", Seq: alternating(64, 1e155)}}, false)[0]; p.err != nil {
		t.Fatalf("uncapped ingest: %v", p.err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if _, ok := db2.Record("big"); !ok || db2.Recovery().Failed != 0 {
		t.Fatalf("replay dropped the over-cap record: %+v", db2.Recovery())
	}
}

// TestMagnitudeCapPreprocessed: the cap applies to what a write stores,
// so a preprocessing stage that scales in-cap samples past it is refused
// with ErrMagnitude by Ingest and IngestBatch, and nothing is committed.
// Replay stays uncapped for the preprocessed form too.
func TestMagnitudeCapPreprocessed(t *testing.T) {
	scale := &filter.Chain{}
	scale.Add("scale", func(s seq.Sequence) (seq.Sequence, error) {
		out := s.Clone()
		for i := range out {
			out[i].V *= 1e200
		}
		return out, nil
	})
	db := mustDB(t, Config{Preprocess: scale})
	if err := db.Ingest("a", alternating(64, 1)); !errors.Is(err, ErrMagnitude) {
		t.Fatalf("Ingest scaled to 1e200: %v, want ErrMagnitude", err)
	}
	n, err := db.IngestBatch([]BatchItem{{ID: "b", Seq: alternating(64, -1)}, {ID: "ok", Seq: alternating(64, 1e-150)}})
	if n != 1 || !errors.Is(err, ErrMagnitude) {
		t.Fatalf("IngestBatch: %d ingested, %v; want only b refused with ErrMagnitude", n, err)
	}
	if _, ok := db.Record("ok"); !ok || db.Len() != 1 {
		t.Fatalf("want only the in-cap item stored, have %d records", db.Len())
	}
	if p := db.ingest([]BatchItem{{ID: "replayed", Seq: alternating(64, 1)}}, false)[0]; p.err != nil {
		t.Fatalf("uncapped ingest of a preprocessed 1e200: %v", p.err)
	}
}

// TestFiniteInFiniteOut is the property behind the cap: over random
// finite sequences up to MaxMagnitude, at scales from 1 to the cap, every
// answer, band and deviation is finite, and the index answers every
// metric and the value band exactly as brute force does, at top-K and
// progressively too.
func TestFiniteInFiniteOut(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db := mustDB(t, Config{})
	scales := []float64{1, 1e50, 1e99, MaxMagnitude}
	items := make([]BatchItem, 0, 160)
	for i := 0; i < cap(items); i++ {
		s := smoothWalk(rng, 64)
		peak := 0.0
		for _, p := range s {
			peak = max(peak, math.Abs(p.V))
		}
		scale := scales[i%len(scales)] * (0.5 + rng.Float64()/2)
		for j := range s {
			s[j].V *= scale / peak
		}
		items = append(items, BatchItem{ID: fmt.Sprintf("f-%03d", i), Seq: s})
	}
	if n, err := db.IngestBatch(items); err != nil || n != len(items) {
		t.Fatalf("ingest up to the cap: %d of %d, %v", n, len(items), err)
	}
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	ctx := context.Background()
	for _, r := range progressiveRunners() {
		t.Run(r.name, func(t *testing.T) {
			for e := 0; e < len(items); e += 23 {
				exemplar, err := db.Reconstruct(items[e].ID)
				if err != nil {
					t.Fatal(err)
				}
				all, _, err := db.querySorted(ctx, r.spec(exemplar, math.Inf(1)), QueryOptions{})
				if err != nil || len(all) != len(items) {
					t.Fatalf("unbounded: %d of %d, %v", len(all), len(items), err)
				}
				for _, eps := range []float64{0, all[len(all)/8].Dev, all[len(all)/2].Dev} {
					spec := r.spec(exemplar, eps)
					compiled, err := db.compile(spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := db.bruteForce(compiled, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := db.querySorted(ctx, spec, QueryOptions{})
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("eps=%g: indexed %d matches (%v), brute force %d", eps, len(got), err, len(want))
					}
					if stats.Plan != PlanIndex || stats.Examined < len(got) {
						t.Errorf("eps=%g: stats %v", eps, stats)
					}
					top, _, err := db.querySorted(ctx, spec, QueryOptions{TopK: 3})
					if err != nil || !reflect.DeepEqual(top, want[:min(3, len(want))]) {
						t.Errorf("eps=%g: top-3 %v (%v), want the sorted prefix", eps, top, err)
					}
					for _, m := range got {
						if d := m.Dev; !finite(d) {
							t.Errorf("eps=%g: %s deviation %v", eps, m.ID, d)
						}
					}
					for _, opts := range []QueryOptions{{}, {MaxError: eps}, {MaxTier: TierCandidate}} {
						frames, _ := collectFrames(t, db, spec, opts)
						for id, fs := range frames {
							for _, f := range fs {
								if !finite(f.Band.Lo) || !finite(f.Band.Hi) || f.Match != nil && !finite(f.Match.Dev) {
									t.Errorf("eps=%g %+v: %s frame %+v", eps, opts, id, f)
								}
							}
						}
					}
				}
			}
		})
	}
}
