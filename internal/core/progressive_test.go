package core

// The progressive guarantee property suite: for every metric × breaker ×
// index configuration × quality level it checks the contract stated at
// the top of progressive.go — every frame's band contains the record's
// true distance, refinement only tightens, nothing true is dismissed,
// early accepts stay within eps + MaxError, and the fully refined
// MaxError=0 run returns exactly the exact query's answer.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"seqrep/internal/breaking"
	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// progressiveCorpus builds the suite's workload: the paper's two-peak
// fever family, an ECG beat, a rendered melody, flat and oscillating
// degenerates — all at the exemplar's length — plus off-length records
// the length filter must silently skip.
func progressiveCorpus(t testing.TB) map[string]seq.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(1996))
	corpus := map[string]seq.Sequence{}

	exemplar, variants, err := synth.TwoPeakFamily(rng, 97)
	if err != nil {
		t.Fatal(err)
	}
	corpus["exemplar"] = exemplar
	for v, s := range variants {
		corpus[v.String()] = s
	}

	ecg, _, err := synth.ECG(rng, synth.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	corpus["ecg"] = seq.New(resampleTo(ecg.Values(), 97))

	intervals, err := synth.RandomMelody(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	melody, err := synth.Melody(intervals, synth.MelodyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	corpus["melody"] = seq.New(resampleTo(melody.Values(), 97))

	corpus["const"] = synth.Const(97, 36.8)
	corpus["sine"] = synth.Sine(97, 2.5, 24, 0)
	walk, err := synth.RandomWalk(rng, 97)
	if err != nil {
		t.Fatal(err)
	}
	corpus["walk"] = walk

	// Off-length records: must never appear in any frame.
	short, err := synth.Fever(synth.FeverOpts{Samples: 49})
	if err != nil {
		t.Fatal(err)
	}
	corpus["short-fever"] = short
	corpus["short-const"] = synth.Const(31, 5)
	return corpus
}

// resampleTo stretches or shrinks vals to exactly n samples by linear
// interpolation, so generator outputs of any natural length can join the
// fixed-length corpus.
func resampleTo(vals []float64, n int) []float64 {
	out := make([]float64, n)
	if len(vals) == 1 {
		for i := range out {
			out[i] = vals[0]
		}
		return out
	}
	for i := range out {
		pos := float64(i) * float64(len(vals)-1) / float64(n-1)
		j := int(pos)
		if j >= len(vals)-1 {
			out[i] = vals[len(vals)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = vals[j]*(1-frac) + vals[j+1]*frac
	}
	return out
}

func cascadeDB(t testing.TB, cfg Config, corpus map[string]seq.Sequence) *DB {
	t.Helper()
	db := mustDB(t, cfg)
	for id, s := range corpus {
		mustIngest(t, db, id, s)
	}
	return db
}

// collectFrames runs a progressive query and groups its frames per
// record in arrival order.
func collectFrames(t testing.TB, db *DB, spec QuerySpec, opts QueryOptions) (map[string][]ProgressiveMatch, QueryStats) {
	t.Helper()
	frames := map[string][]ProgressiveMatch{}
	stats, err := db.QueryProgressive(context.Background(), spec, opts, func(pm ProgressiveMatch) bool {
		frames[pm.ID] = append(frames[pm.ID], pm)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames, stats
}

// trueDistances computes the suite's independent ground truth: the exact
// metric distance from the exemplar to every length-matching corpus
// sequence, straight through the metric kernel with no engine involved.
func trueDistances(t testing.TB, corpus map[string]seq.Sequence, exemplar seq.Sequence, m dist.Metric) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for id, s := range corpus {
		if len(s) != len(exemplar) {
			continue
		}
		d, err := m.Distance(exemplar.Values(), s.Values())
		if err != nil {
			t.Fatalf("distance to %q: %v", id, err)
		}
		out[id] = d
	}
	return out
}

// checkFrameContract asserts the per-record frame invariants on one
// run's frames: exactly one final frame and it is last, at most one
// non-final (band) frame before it, tiers never regress, bands only
// tighten, and (when the record's true distance is known) every band
// contains it.
func checkFrameContract(t *testing.T, frames map[string][]ProgressiveMatch, truth map[string]float64) {
	t.Helper()
	for id, fs := range frames {
		if len(fs) > 2 {
			t.Errorf("%s: %d frames, want one band frame at most before the final one: %+v", id, len(fs), fs)
		}
		for i, f := range fs {
			if f.Final != (i == len(fs)-1) {
				t.Fatalf("%s: frame %d/%d finality wrong: %+v", id, i, len(fs), f)
			}
			if f.Band.Lo < 0 || f.Band.Hi < f.Band.Lo {
				t.Fatalf("%s: malformed band %+v", id, f.Band)
			}
		}
		for i := 1; i < len(fs); i++ {
			prev, cur := fs[i-1], fs[i]
			if cur.Tier < prev.Tier {
				t.Errorf("%s: tier regressed %v -> %v", id, prev.Tier, cur.Tier)
			}
			if cur.Band.Lo < prev.Band.Lo || cur.Band.Hi > prev.Band.Hi {
				t.Errorf("%s: band widened %+v -> %+v", id, prev.Band, cur.Band)
			}
		}
		d, known := truth[id]
		if !known {
			t.Errorf("%s: frames for a record with no ground truth (off-length?)", id)
			continue
		}
		for _, f := range fs {
			if !f.Band.Contains(d) {
				t.Errorf("%s: band [%v, %v] at tier %v excludes true distance %v",
					id, f.Band.Lo, f.Band.Hi, f.Tier, d)
			}
		}
	}
}

// acceptedOf extracts the final accepted matches of a frame log.
func acceptedOf(frames map[string][]ProgressiveMatch) map[string]Match {
	out := map[string]Match{}
	for id, fs := range frames {
		last := fs[len(fs)-1]
		if last.Final && last.Match != nil {
			out[id] = *last.Match
		}
	}
	return out
}

// medianEps picks a tolerance from the corpus's own distance spread, so
// every metric gets an eps that genuinely splits the records.
func medianEps(truth map[string]float64) float64 {
	ds := make([]float64, 0, len(truth))
	for _, d := range truth {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// progressiveRunner states one query family for QueryProgressive and
// Query, so the whole suite runs over the value family and every metric.
type progressiveRunner struct {
	name string
	// truth is the metric of the family's exact deviation (the maximum
	// pointwise deviation — Chebyshev — for value queries).
	truth dist.Metric
	spec  func(exemplar seq.Sequence, eps float64) QuerySpec
	// devKey is the Deviations key exact verification reports under.
	devKey string
}

func progressiveRunners() []progressiveRunner {
	runners := []progressiveRunner{{
		name:  "value",
		truth: dist.Chebyshev,
		spec: func(exemplar seq.Sequence, eps float64) QuerySpec {
			return QuerySpec{Family: FamilyValue, Exemplar: exemplar, Eps: eps}
		},
		devKey: "value",
	}}
	for _, m := range dist.Metrics() {
		runners = append(runners, progressiveRunner{
			name:  m.Name(),
			truth: m,
			spec: func(exemplar seq.Sequence, eps float64) QuerySpec {
				return QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: m, Eps: eps}
			},
			devKey: m.Name(),
		})
	}
	return runners
}

// TestProgressiveGuarantees is the property suite: every metric (plus
// the value family) × every paper breaker × index on/off, checking band
// containment, monotone tightening, exact equivalence at MaxError 0,
// bounded false positives under a MaxError budget, and tier caps.
func TestProgressiveGuarantees(t *testing.T) {
	corpus := progressiveCorpus(t)
	exemplar := corpus["exemplar"]
	breakers := []struct {
		name string
		br   breaking.Breaker
	}{
		{"interpolation", breaking.Interpolation(0.5)},
		{"regression", breaking.Regression(0.5)},
		{"bezier", breaking.Bezier(0.5)},
	}
	for _, b := range breakers {
		for _, indexed := range []bool{true, false} {
			for _, storage := range []string{"resident", "paged"} {
				cfg := Config{Breaker: b.br}
				if !indexed {
					cfg.IndexCoeffs = -1
				}
				var db *DB
				if storage == "resident" {
					db = cascadeDB(t, cfg, corpus)
				} else {
					// Paged: durable database, 1-byte residency budget.
					// After the checkpoint every exact verification
					// pages its payload in from the segment tier — the
					// progressive contract must hold bit-identically
					// through the paging layer.
					db = pagedDB(t, cfg)
					for id, s := range corpus {
						mustIngest(t, db, id, s)
					}
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				truthCorpus := reconCorpus(t, db, corpus)
				t.Run(fmt.Sprintf("%s/indexed=%v/%s", b.name, indexed, storage), func(t *testing.T) {
					for _, r := range progressiveRunners() {
						r := r
						t.Run(r.name, func(t *testing.T) {
							checkProgressiveFamily(t, db, truthCorpus, exemplar, r)
						})
					}
				})
			}
		}
	}
}

// treeCorpus is the guarantee suite's tree-sized workload: clusteredDB's
// amplitude families at one length (ids in ingest order, so a test can
// build the trees over a prefix and append the rest as a tail) plus
// off-length records the cascade must never frame.
func treeCorpus() (ids []string, corpus map[string]seq.Sequence) {
	rng := rand.New(rand.NewSource(97))
	corpus = map[string]seq.Sequence{}
	for i := 0; i < 260; i++ {
		s := smoothWalk(rng, 64)
		for j := range s {
			s[j].V += float64(i%12) * 40
		}
		id := fmt.Sprintf("t-%03d", i)
		ids, corpus[id] = append(ids, id), s
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("off-%d", i)
		ids, corpus[id] = append(ids, id), smoothWalk(rng, 32)
	}
	return ids, corpus
}

// treeStateDB ingests treeCorpus so that its length-64 group is in every
// state candidate generation distinguishes: trees built over the first
// 200 rows, 60 rows appended past their coverage, 10 tree-covered rows
// tombstoned, and one record re-filed without feature vectors (what a
// record whose comparison form was unreadable at build time looks like).
// It returns the surviving corpus. With the index disabled only the
// removals apply.
func treeStateDB(t *testing.T, db *DB) map[string]seq.Sequence {
	t.Helper()
	ids, corpus := treeCorpus()
	const treeRows, unindexedID = 200, "t-052"
	for _, id := range ids[:treeRows] {
		mustIngest(t, db, id, corpus[id])
	}
	if db.findex != nil { // the first indexed query builds the trees
		if _, err := db.DistanceQuery(corpus[ids[0]], dist.Euclidean, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[treeRows:] {
		mustIngest(t, db, id, corpus[id])
	}
	for i := 0; i < 10; i++ {
		id := ids[7*i+1]
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
		delete(corpus, id)
	}
	if db.findex != nil {
		rec, _ := db.Record(unindexedID)
		db.findex.remove(rec)
		rec.feats, rec.zfeats = nil, nil
		db.findex.add(rec)
		assertTreeState(t, db, treeRows)
	}
	return corpus
}

// assertTreeState checks that the length-64 group still is what
// treeStateDB left: nothing compacted, rebuilt or re-indexed since.
func assertTreeState(t *testing.T, db *DB, treeRows int) {
	t.Helper()
	g := db.findex.group(64, false)
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.tree == nil || g.ztree == nil || g.treeN != treeRows || len(g.recs) <= g.treeN || g.deadCount != 11 || len(g.unindexed) != 1 {
		t.Fatalf("group state: trees=%v/%v treeN=%d rows=%d dead=%d unindexed=%d",
			g.tree != nil, g.ztree != nil, g.treeN, len(g.recs), g.deadCount, len(g.unindexed))
	}
}

// TestProgressiveGuaranteesTree runs the property suite where
// TestProgressiveGuarantees cannot reach: through a built vantage-point
// tree with a tail, tombstones and an unindexed record, resident and
// paged — and checks the index-driven cascade against the linear one
// (IndexCoeffs -1) bit for bit at MaxError 0.
func TestProgressiveGuaranteesTree(t *testing.T) {
	for _, storage := range []string{"resident", "paged"} {
		t.Run(storage, func(t *testing.T) {
			open := func(cfg Config) (*DB, map[string]seq.Sequence) {
				if storage == "resident" {
					db := mustDB(t, cfg)
					return db, reconCorpus(t, db, treeStateDB(t, db))
				}
				db := pagedDB(t, cfg)
				corpus := treeStateDB(t, db)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				return db, reconCorpus(t, db, corpus)
			}
			db, corpus := open(Config{})
			linear, _ := open(Config{IndexCoeffs: -1})
			exemplar := corpus["t-003"]
			for _, r := range progressiveRunners() {
				t.Run(r.name, func(t *testing.T) {
					checkProgressiveFamily(t, db, corpus, exemplar, r)
					// Own family only, then half the corpus: the tree
					// prunes most of the group at the first, little at
					// the second.
					truth := trueDistances(t, corpus, exemplar, r.truth)
					ds := make([]float64, 0, len(truth))
					for _, d := range truth {
						ds = append(ds, d)
					}
					slices.Sort(ds)
					for _, eps := range []float64{ds[len(ds)/20], ds[len(ds)/2]} {
						got, stats := collectFrames(t, db, r.spec(exemplar, eps), QueryOptions{})
						want, _ := collectFrames(t, linear, r.spec(exemplar, eps), QueryOptions{})
						if a, b := acceptedOf(got), acceptedOf(want); len(a) == 0 || !reflect.DeepEqual(a, b) {
							t.Errorf("eps=%v: index-driven cascade accepted %d, linear %d, or they differ", eps, len(a), len(b))
						}
						// Wherever both sources framed the record, the band tier
						// gave it the same sketch band, the index's feature
						// distance lifting at most its lower edge.
						for id, fs := range got {
							if ws, ok := want[id]; ok && fs[0].Tier == TierCandidate &&
								(fs[0].Band.Hi != ws[0].Band.Hi || fs[0].Band.Lo < ws[0].Band.Lo) {
								t.Errorf("%s: band %+v, linear %+v", id, fs[0].Band, ws[0].Band)
							}
						}
						if len(got) > len(want) {
							t.Errorf("eps=%v: index-driven cascade framed %d records, linear %d", eps, len(got), len(want))
						}
						if stats.Plan != PlanProgressive {
							t.Errorf("plan = %q", stats.Plan)
						}
					}
				})
			}
			assertTreeState(t, db, 200)
		})
	}
}

// reconCorpus replaces each corpus sequence with the database's stored
// reconstruction: exact verification compares reconstructions, so ground
// truth must be computed on them too.
func reconCorpus(t testing.TB, db *DB, corpus map[string]seq.Sequence) map[string]seq.Sequence {
	t.Helper()
	out := make(map[string]seq.Sequence, len(corpus))
	for id := range corpus {
		s, err := db.Reconstruct(id)
		if err != nil {
			t.Fatalf("reconstruct %q: %v", id, err)
		}
		out[id] = s
	}
	return out
}

func checkProgressiveFamily(t *testing.T, db *DB, corpus map[string]seq.Sequence, exemplar seq.Sequence, r progressiveRunner) {
	truth := trueDistances(t, corpus, exemplar, r.truth)

	// Property 1 — unbounded run: every length-matching record appears,
	// every band contains the true distance, bands only tighten, and
	// with MaxError 0 every final verdict is exact-tier with a point
	// band at (within float slack of) the true distance.
	frames, stats := collectFrames(t, db, r.spec(exemplar, math.Inf(1)), QueryOptions{})
	checkFrameContract(t, frames, truth)
	if len(frames) != len(truth) {
		t.Errorf("unbounded run banded %d records, corpus has %d length-matching", len(frames), len(truth))
	}
	if stats.Plan != PlanProgressive {
		t.Errorf("plan = %q, want %q", stats.Plan, PlanProgressive)
	}
	for id, fs := range frames {
		last := fs[len(fs)-1]
		if last.Match == nil {
			t.Errorf("%s: unbounded run rejected a record", id)
			continue
		}
		if last.Tier != TierExact {
			t.Errorf("%s: MaxError=0 finalized at tier %v", id, last.Tier)
		}
		d := truth[id]
		if rel := math.Abs(last.Band.Hi-d) / math.Max(1, d); rel > 1e-9 {
			t.Errorf("%s: exact frame band [%v,%v] vs true distance %v", id, last.Band.Lo, last.Band.Hi, d)
		}
	}

	// Property 2 — exact equivalence: a finite-eps MaxError=0 run
	// returns exactly the exact query's match set, deviations included.
	eps := medianEps(truth)
	frames, _ = collectFrames(t, db, r.spec(exemplar, eps), QueryOptions{})
	checkFrameContract(t, frames, truth)
	accepted := acceptedOf(frames)
	exact, _, err := db.querySorted(context.Background(), r.spec(exemplar, eps), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(accepted) {
		t.Errorf("eps=%v: progressive accepted %d, exact query matched %d", eps, len(accepted), len(exact))
	}
	for _, em := range exact {
		pm, ok := accepted[em.ID]
		if !ok {
			t.Errorf("eps=%v: exact match %q missing from progressive answer (false dismissal)", eps, em.ID)
			continue
		}
		if pm.Deviations[r.devKey] != em.Deviations[r.devKey] {
			t.Errorf("%q: progressive deviation %v != exact %v", em.ID, pm.Deviations[r.devKey], em.Deviations[r.devKey])
		}
	}

	// Property 3 — error budget: with MaxError = w, early accepts have
	// band width ≤ w, and every accepted record's true distance is
	// within eps + accepted width. Exact matches must all still appear.
	w := eps / 2
	if w > 0 {
		frames, _ = collectFrames(t, db, r.spec(exemplar, eps), QueryOptions{MaxError: w})
		checkFrameContract(t, frames, truth)
		for id, fs := range frames {
			last := fs[len(fs)-1]
			if last.Match == nil {
				continue
			}
			if last.Tier != TierExact && last.Band.Width() > w {
				t.Errorf("%s: band-accepted with width %v > MaxError %v", id, last.Band.Width(), w)
			}
			if d := truth[id]; d > (eps+last.Band.Width())*(1+1e-9)+1e-12 {
				t.Errorf("%s: accepted with true distance %v > eps %v + width %v", id, d, eps, last.Band.Width())
			}
		}
		accepted = acceptedOf(frames)
		for _, em := range exact {
			if _, ok := accepted[em.ID]; !ok {
				t.Errorf("MaxError=%v: exact match %q missing (false dismissal)", w, em.ID)
			}
		}
	}

	// Property 4 — the tier cap: capping at the band tier finalizes
	// every surviving record on its band, with bands still containing the
	// truth and exact matches never dismissed.
	frames, _ = collectFrames(t, db, r.spec(exemplar, eps), QueryOptions{MaxTier: TierCandidate})
	checkFrameContract(t, frames, truth)
	accepted = acceptedOf(frames)
	for id, fs := range frames {
		if last := fs[len(fs)-1]; len(fs) != 1 || last.Tier != TierCandidate {
			t.Errorf("%s: capped at the band tier, got %d frames ending at tier %v", id, len(fs), last.Tier)
		}
	}
	for _, em := range exact {
		if _, ok := accepted[em.ID]; !ok {
			t.Errorf("band cap: exact match %q missing (false dismissal)", em.ID)
		}
	}
}

// TestProgressiveRejectsTopK pins the documented incompatibility: a
// band-accepted answer has no exact distance to rank by.
func TestProgressiveRejectsTopK(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := cascadeDB(t, Config{}, corpus)
	_, err := db.DistanceQueryProgressive(context.Background(), corpus["exemplar"], dist.Euclidean, 1,
		QueryOptions{TopK: 3}, func(ProgressiveMatch) bool { return true })
	if err == nil {
		t.Fatal("TopK + progressive accepted")
	}
}

// TestOnePipelineOneCount pins that exact and progressive delivery run
// one pipeline: for every metric and the value family, on the index
// source and on the linear one (no index), the exact query and the fully
// refined progressive run (MaxError 0) accept the same matches and report
// the same work — Examined, Pruned, Sketched and Candidates — and a top-K
// answer is still the unbounded answer's sorted prefix. A custom metric,
// which neither the index nor the sketch can bound, takes the linear
// walk and verifies every record of the exemplar's length in it.
func TestOnePipelineOneCount(t *testing.T) {
	custom := progressiveRunner{name: "custom", devKey: "custom-l2",
		spec: func(exemplar seq.Sequence, eps float64) QuerySpec {
			return QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: renamedL2{}, Eps: eps}
		}}
	for _, src := range []struct {
		name string
		cfg  Config
		plan string
	}{{"index", Config{}, PlanIndex}, {"linear", Config{IndexCoeffs: -1}, PlanScan}} {
		db, items := clusteredDB(t, src.cfg, 600, 64)
		exemplar := items[3].Seq
		for _, r := range append(progressiveRunners(), custom) {
			t.Run(src.name+"/"+r.name, func(t *testing.T) {
				all, _, err := db.querySorted(context.Background(), r.spec(exemplar, math.Inf(1)), QueryOptions{})
				if err != nil || len(all) < 30 {
					t.Fatalf("unbounded: %d matches, %v", len(all), err)
				}
				spec := r.spec(exemplar, all[29].Deviations[r.devKey]) // the 30th-nearest distance
				exact, exactStats, err := db.querySorted(context.Background(), spec, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				frames, stats := collectFrames(t, db, spec, QueryOptions{})
				wantPlan := src.plan
				if r.name == "custom" {
					wantPlan = PlanScan
				}
				if exactStats.Plan != wantPlan || stats.Plan != PlanProgressive {
					t.Errorf("plans %q and %q, want %q and progressive", exactStats.Plan, stats.Plan, wantPlan)
				}
				accepted := acceptedOf(frames)
				if len(accepted) != len(exact) || len(exact) < 30 {
					t.Fatalf("progressive accepted %d, exact matched %d", len(accepted), len(exact))
				}
				for _, m := range exact {
					if got, ok := accepted[m.ID]; !ok || !reflect.DeepEqual(got, m) {
						t.Errorf("%s: progressive %+v, exact %+v", m.ID, got, m)
					}
				}
				if stats.Examined != exactStats.Examined || stats.Pruned != exactStats.Pruned ||
					stats.Sketched != exactStats.Sketched || stats.Candidates != exactStats.Candidates || stats.BandAccepted != 0 {
					t.Errorf("progressive %v, exact %v: one pipeline must do the same work", stats, exactStats)
				}
				if r.name == "custom" {
					if exactStats.Sketched != 0 || exactStats.Candidates != len(items) {
						t.Errorf("exact %v: want nothing sketched and all %d records verified", exactStats, len(items))
					}
				} else if exactStats.Sketched == 0 {
					t.Errorf("exact %v: no record was banded on its sketch", exactStats)
				}
				top, _, err := db.querySorted(context.Background(), spec, QueryOptions{TopK: 5})
				if err != nil || !reflect.DeepEqual(top, exact[:5]) {
					t.Errorf("top-5 %+v (%v), want the sorted prefix %+v", top, err, exact[:5])
				}
			})
		}
	}
}

// renamedL2 is a custom metric: L2 under a name featureScale and the
// sketch bands do not know.
type renamedL2 struct{}

func (renamedL2) Name() string                             { return "custom-l2" }
func (renamedL2) Distance(a, b []float64) (float64, error) { return dist.L2(a, b) }

// TestExactPrunesPastTheIndex pins what the band tier's sketch earns:
// on walks, where the DFT feature bound is loose, the band dismisses
// index survivors, and exact delivery gets those dismissals, so it
// verifies strictly fewer records than the index hands over, with the
// answer still the brute-force one. ε is the exemplar's 30th-nearest
// distance. (At 6 000 walks of 128 samples an exact l1 verifies 60 of
// the index's 120 survivors.)
func TestExactPrunesPastTheIndex(t *testing.T) {
	clustered, clusteredItems := clusteredDB(t, Config{}, 6000, 128)
	feature := mustDB(t, Config{})
	featureItems := featureCorpus(t, rand.New(rand.NewSource(5)), 4000)
	if _, err := feature.IngestBatch(featureItems); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		corpus string
		db     *DB
		items  []BatchItem
		metric dist.Metric
	}{
		{"clustered", clustered, clusteredItems, dist.Manhattan},
		{"clustered", clustered, clusteredItems, dist.ZEuclidean},
		{"feature", feature, featureItems, dist.Euclidean},
		{"feature", feature, featureItems, dist.ZEuclidean},
		{"feature", feature, featureItems, dist.Manhattan},
	} {
		t.Run(row.corpus+"/"+row.metric.Name(), func(t *testing.T) {
			db, exemplar := row.db, row.items[3].Seq
			all, err := db.DistanceQuery(exemplar, row.metric, math.Inf(1))
			if err != nil || len(all) < 30 {
				t.Fatalf("unbounded: %d matches, %v", len(all), err)
			}
			compiled, err := db.distanceSpec(exemplar, row.metric, all[29].Deviations[row.metric.Name()])
			if err != nil {
				t.Fatal(err)
			}
			survivors := 0
			db.findex.collect(compiled.n, compiled.lb, func() float64 { return compiled.lb.at(compiled.initEps) },
				func(*Record, float64) bool { survivors++; return true })
			matches, stats, err := db.collectSorted(context.Background(), compiled, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) < 30 || stats.Plan != PlanIndex {
				t.Fatalf("plan %q, %d matches, want index and at least 30", stats.Plan, len(matches))
			}
			if want, err := db.bruteForce(compiled, nil); err != nil || !reflect.DeepEqual(matches, want) {
				t.Errorf("exact answer (%d) differs from brute force (%d, %v)", len(matches), len(want), err)
			}
			if stats.Candidates >= survivors {
				t.Errorf("exact verified %d records, the index handed over %d: the band dismissed none (%v)", stats.Candidates, survivors, stats)
			}
			t.Logf("exact %s verified %d of the index's %d survivors", row.metric.Name(), stats.Candidates, survivors)
		})
	}
}

// TestProgressiveLimit pins Limit semantics on the cascade: the run
// stops after Limit final accepts and reports truncation — also at
// exactly Limit accepts, where nothing was cut (see TestQueryLimit).
func TestProgressiveLimit(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := cascadeDB(t, Config{}, corpus)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: corpus["exemplar"], Metric: dist.Euclidean, Eps: math.Inf(1)}
	full := len(trueDistances(t, corpus, spec.Exemplar, dist.Euclidean))
	for _, limit := range []int{2, full} {
		frames, stats := collectFrames(t, db, spec, QueryOptions{Limit: limit})
		if accepts := len(acceptedOf(frames)); accepts != limit || stats.Matches != limit || !stats.Truncated {
			t.Fatalf("limit %d run: accepts=%d stats=%+v", limit, accepts, stats)
		}
	}
}

// TestProgressiveCancellation: a cancelled context aborts the cascade
// with ctx.Err().
func TestProgressiveCancellation(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := cascadeDB(t, Config{}, corpus)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.DistanceQueryProgressive(ctx, corpus["exemplar"], dist.Euclidean, math.Inf(1),
		QueryOptions{}, func(ProgressiveMatch) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressiveDoesNotBlockIngest pins the index producers' lock scope:
// the length group's read lock covers candidate generation only, so a
// consumer that parks mid-delivery — on a progressive frame, or on an
// exact indexed query's match — cannot stall an Ingest or a Remove at the
// query's own length. (An interleaved producer that delivered under the
// lock stalled writers for as long as its slowest consumer.)
func TestProgressiveDoesNotBlockIngest(t *testing.T) {
	db, items := clusteredDB(t, Config{Workers: 2}, 200, 64)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: items[3].Seq, Metric: dist.Euclidean, Eps: 8}
	for i, name := range []string{"progressive", "indexed"} {
		t.Run(name, func(t *testing.T) {
			parked, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			park := func() bool {
				once.Do(func() {
					close(parked)
					<-release
				})
				return true
			}
			done := make(chan error, 1)
			go func() {
				var err error
				if name == "progressive" {
					_, err = db.QueryProgressive(context.Background(), spec, QueryOptions{}, func(ProgressiveMatch) bool { return park() })
				} else {
					_, err = db.Query(context.Background(), spec, QueryOptions{}, func(Match) bool { return park() })
				}
				done <- err
			}()
			<-parked

			wrote := make(chan error, 1)
			start := time.Now()
			go func() {
				if err := db.Ingest("beside-"+name, items[5].Seq); err != nil {
					wrote <- err
					return
				}
				wrote <- db.Remove(items[10+i].ID)
			}()
			select {
			case err := <-wrote:
				if err != nil {
					t.Errorf("write beside a parked %s query: %v", name, err)
				}
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Errorf("Ingest+Remove beside a parked %s query took %s", name, d)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("Ingest+Remove blocked behind a parked %s query", name)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProgressiveChurn runs the cascade concurrently with ingest/remove
// churn (meaningful under -race): the per-record frame contract must
// hold throughout, and records outside the churn set keep their band
// guarantee against the stable ground truth.
func TestProgressiveChurn(t *testing.T) {
	t.Run("resident", func(t *testing.T) { progressiveChurn(t, false, 0, 8) })
	t.Run("paged", func(t *testing.T) { progressiveChurn(t, true, 0, 8) })
}

// TestProgressiveChurnTree is TestProgressiveChurn against a length group
// large enough to carry vantage-point trees, with enough churn ids that
// appended tails and tombstones keep invalidating them: the index-driven
// cascade collects its candidates while the trees it reads are being
// dropped, compacted and rebuilt.
func TestProgressiveChurnTree(t *testing.T) {
	t.Run("resident", func(t *testing.T) { progressiveChurn(t, false, 80, 64) })
	t.Run("paged", func(t *testing.T) { progressiveChurn(t, true, 80, 64) })
}

// progressiveChurn runs the churn against progressiveCorpus plus extra
// stable walks at the exemplar's length; each of the two writers cycles
// through churnIDs ids. With extra > 0 it also demands that the group's
// trees were rebuilt under the queries at least twice.
func progressiveChurn(t *testing.T, paged bool, extra, churnIDs int) {
	corpus := progressiveCorpus(t)
	exemplar := corpus["exemplar"]
	stableRng := rand.New(rand.NewSource(7))
	for i := 0; i < extra; i++ {
		walk, err := synth.RandomWalk(stableRng, 97)
		if err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("stable-%03d", i)] = walk
	}
	var db *DB
	if paged {
		// Durable, 1-byte budget: the churn recycles ids
		// (remove then re-ingest the same id), so the tracker's
		// ref-identity rules and the tombstone-authoritative fault-in
		// path run under the race detector while checkpoints below
		// evict and unpin concurrently.
		db = pagedDB(t, Config{})
		for id, s := range corpus {
			mustIngest(t, db, id, s)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	} else {
		db = cascadeDB(t, Config{}, corpus)
	}
	corpus = reconCorpus(t, db, corpus)
	truth := trueDistances(t, corpus, exemplar, dist.Euclidean)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: math.Inf(1)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(42 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", g, i%churnIDs)
				walk, err := synth.RandomWalk(rng, 97)
				if err != nil {
					t.Error(err)
					return
				}
				if err := db.Ingest(id, walk); err != nil && !errors.Is(err, ErrDuplicateID) {
					t.Errorf("churn ingest: %v", err)
					return
				}
				if i%3 == 2 {
					if err := db.Remove(id); err != nil && !errors.Is(err, ErrUnknownID) {
						t.Errorf("churn remove: %v", err)
						return
					}
				}
			}
		}(g)
	}

	// rebuilds counts the distinct trees the queries ran on, beyond the
	// first.
	var lastTree *dft.VPTree
	rebuilds := -1
	for i := 0; i < 30 || (extra > 0 && rebuilds < 2 && i < 5000); i++ {
		if paged && i%10 == 5 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		frames, _ := collectFrames(t, db, spec, QueryOptions{})
		if g := db.findex.group(97, false); g != nil {
			g.mu.RLock()
			if g.tree != nil && g.tree != lastTree {
				lastTree = g.tree
				rebuilds++
			}
			g.mu.RUnlock()
		}
		// The contract holds per record even mid-churn; ground truth is
		// only checked for the stable base corpus.
		stable := map[string][]ProgressiveMatch{}
		for id, fs := range frames {
			if _, ok := truth[id]; ok {
				stable[id] = fs
			} else {
				// Churn records still obey finality and tightening.
				for j, f := range fs {
					if f.Final != (j == len(fs)-1) {
						t.Fatalf("%s: churn frame finality wrong", id)
					}
				}
			}
		}
		checkFrameContract(t, stable, truth)
		for id := range truth {
			if _, ok := stable[id]; !ok {
				t.Errorf("iteration %d: stable record %q missing from answer", i, id)
			}
		}
	}
	close(stop)
	wg.Wait()
	if extra > 0 && rebuilds < 2 {
		t.Errorf("trees rebuilt %d times under the cascade, want at least 2", rebuilds)
	}
}
