package core

// The planner's contract: both plans of a routed query return
// byte-identical match sets — the feature index prunes but never
// dismisses a true match. These tests check the contract on randomized
// workloads across every breaker × every metric × resident, raw originals
// archived by the caller, and paged, and
// under concurrent Ingest/Remove churn (run them with -race).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// valueScan and distanceScan are the brute-force reference the planner's
// answer must equal: every length-matching record verified at the
// query's tolerance, outside the executor, so no source, tier or bound
// the code under test runs is shared with it.
func (db *DB) valueScan(exemplar seq.Sequence, eps float64) ([]Match, error) {
	return db.bruteForce(db.valueSpec(exemplar, eps))
}

func (db *DB) distanceScan(exemplar seq.Sequence, m dist.Metric, eps float64) ([]Match, error) {
	return db.bruteForce(db.distanceSpec(exemplar, m, eps))
}

func (db *DB) bruteForce(spec *querySpec, err error) ([]Match, error) {
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, recs := range db.snapshotRecords() {
		for _, rec := range recs {
			if rec.N != spec.n {
				continue
			}
			m, ok, err := spec.verify(rec, spec.initEps)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, m)
			}
		}
	}
	SortMatches(out)
	return out, nil
}

// smoothWalk builds a random but breaker-friendly sequence: a random walk
// whose step size is small against the breaking tolerance, riding on a
// slow oscillation so peaks and slope changes exist.
func smoothWalk(rng *rand.Rand, n int) seq.Sequence {
	vals := make([]float64, n)
	level := 10 * rng.Float64()
	for i := range vals {
		level += 0.4 * (rng.Float64() - 0.5)
		vals[i] = level + 3*float64(i%16)/16.0
	}
	return seq.New(vals)
}

// jitter returns a copy of s with per-sample noise of the given scale, so
// workloads contain near-duplicate families the interesting tolerances
// separate.
func jitter(rng *rand.Rand, s seq.Sequence, scale float64) seq.Sequence {
	out := s.Clone()
	for i := range out {
		out[i].V += scale * (rng.Float64() - 0.5)
	}
	return out
}

// equivalenceWorkload ingests a mixed-length corpus: two near-duplicate
// families plus singletons at the query length, and a handful of
// sequences at a different length.
func equivalenceWorkload(t *testing.T, db *DB, rng *rand.Rand, n int) (exemplar seq.Sequence) {
	t.Helper()
	return archivedWorkload(t, db, nil, rng, n)
}

// archivedWorkload is equivalenceWorkload fed through arch's ingest; a nil
// arch ingests plainly.
func archivedWorkload(t *testing.T, db *DB, arch *callerArchive, rng *rand.Rand, n int) (exemplar seq.Sequence) {
	t.Helper()
	ingest := func(id string, s seq.Sequence) { mustIngest(t, db, id, s) }
	if arch != nil {
		ingest = func(id string, s seq.Sequence) { arch.ingest(t, db, id, s) }
	}
	baseA := smoothWalk(rng, n)
	baseB := smoothWalk(rng, n)
	for i := 0; i < 8; i++ {
		ingest(fmt.Sprintf("a-%02d", i), jitter(rng, baseA, 0.2))
		ingest(fmt.Sprintf("b-%02d", i), jitter(rng, baseB, 0.2))
	}
	for i := 0; i < 6; i++ {
		ingest(fmt.Sprintf("solo-%02d", i), smoothWalk(rng, n))
	}
	for i := 0; i < 4; i++ {
		ingest(fmt.Sprintf("short-%02d", i), smoothWalk(rng, n/2))
	}
	return jitter(rng, baseA, 0.1)
}

// callerArchive is the paper's split between slow raw storage and the
// local representation (§2.3), done where it belongs: by the caller. Each
// raw original goes to the caller's archive (here a map of copies), the
// database ingests the same samples, and the caller then reuses its
// buffer — every value is overwritten with NaN — so nothing the database
// answers can lean on the raw samples it was handed.
type callerArchive map[string]seq.Sequence

func newCallerArchive() *callerArchive { return &callerArchive{} }

func (a *callerArchive) ingest(t testing.TB, db *DB, id string, s seq.Sequence) {
	t.Helper()
	(*a)[id] = s.Clone()
	mustIngest(t, db, id, s)
	for i := range s {
		s[i].V = math.NaN()
	}
}

func breakersUnderTest() map[string]breaking.Breaker {
	return map[string]breaking.Breaker{
		"interpolation": breaking.Interpolation(0.5),
		"regression":    breaking.Regression(0.5),
		"bezier":        breaking.Bezier(0.5),
		"dp":            &breaking.DP{SegmentCost: 10, ErrorWeight: 1},
		"online":        breaking.NewOnline(0.5),
	}
}

// leafConfigs are the candidate-generation modes under test: the default
// (trees once groups are large enough), leaf 1 (vantage-point trees
// forced even on the suite's small groups), and -1 (trees disabled, the
// linear columnar feature scan).
var leafConfigs = []int{0, 1, -1}

// storageModes is the residency/storage dimension of the equivalence
// suite: fully resident in-memory ("mem"), the same with the raw
// originals kept only in the caller's archive ("archive" — the buffers
// the database was handed are overwritten after each ingest, which must
// change nothing), and a durable database under a 1-byte memory budget
// ("paged") where every exact verification pages its payload back in from
// the segment tier — the answers must be bit-identical in all three.
var storageModes = []string{"mem", "archive", "paged"}

// TestIndexedQueryEquivalence is the zero-false-dismissal property suite:
// for every breaker, every storage mode (in-memory, raw originals only in
// the caller's archive, paged under a tiny residency budget), for every candidate-generation mode
// (vantage-point tree, linear feature scan, default), under every
// built-in metric and a spread of tolerances, the planner's answer must
// equal the brute-force scan's exactly — ids, deviations, exactness and
// order.
func TestIndexedQueryEquivalence(t *testing.T) {
	epsCands := []float64{0, 0.3, 1, 4, 16, 64}
	totalPruned := 0
	for name, br := range breakersUnderTest() {
		for _, storage := range storageModes {
			for _, leaf := range leafConfigs {
				t.Run(fmt.Sprintf("%s/storage=%s/leaf=%d", name, storage, leaf), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name)) * 7779))
					cfg := Config{Breaker: br, IndexLeaf: leaf}
					var db *DB
					if storage == "paged" {
						db = pagedDB(t, cfg)
					} else {
						db = mustDB(t, cfg)
					}
					var arch *callerArchive
					if storage == "archive" {
						arch = newCallerArchive()
					}
					exemplar := archivedWorkload(t, db, arch, rng, 64)
					if storage == "paged" {
						// The checkpoint makes every payload durable and
						// unpinned; the 1-byte budget then evicts them
						// all, so each verification below pages in.
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						st, ok := db.ResidencyStats()
						if !ok || st.Pinned != 0 || st.ResidentBytes > st.MemoryBudget {
							t.Fatalf("residency after checkpoint = %+v", st)
						}
					}
					if leaf == 1 {
						// Warm a query so the trees exist, then verify the
						// tree path is actually engaged.
						if _, _, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, 1, QueryOptions{}); err != nil {
							t.Fatal(err)
						}
						if g := db.findex.group(len(exemplar), false); g == nil || g.tree == nil {
							t.Fatal("vantage-point tree not engaged at leaf=1")
						}
					}

					for _, m := range dist.Metrics() {
						all, err := db.distanceScan(exemplar, m, math.Inf(1))
						if err != nil {
							t.Fatal(err)
						}
						for _, eps := range append(atDistances(all, m.Name()), epsCands...) {
							indexed, istats, err := db.DistanceQueryCtx(context.Background(), exemplar, m, eps, QueryOptions{})
							if err != nil {
								t.Fatalf("indexed %s eps=%g: %v", m.Name(), eps, err)
							}
							scanned, err := db.distanceScan(exemplar, m, eps)
							if err != nil {
								t.Fatalf("scan %s eps=%g: %v", m.Name(), eps, err)
							}
							if !reflect.DeepEqual(indexed, scanned) {
								t.Errorf("%s eps=%g: indexed %+v != scan %+v", m.Name(), eps, indexed, scanned)
							}
							if istats.Plan != PlanIndex {
								t.Errorf("%s: plan = %q, want index", m.Name(), istats.Plan)
							}
							if istats.Candidates+istats.Pruned != istats.Examined {
								t.Errorf("%s: stats don't add up: %+v", m.Name(), istats)
							}
							totalPruned += istats.Pruned
						}
					}

					all, err := db.valueScan(exemplar, math.Inf(1))
					if err != nil {
						t.Fatal(err)
					}
					for _, eps := range append(atDistances(all, "value"), epsCands...) {
						indexed, istats, err := db.ValueQueryCtx(context.Background(), exemplar, eps, QueryOptions{})
						if err != nil {
							t.Fatalf("indexed value eps=%g: %v", eps, err)
						}
						scanned, err := db.valueScan(exemplar, eps)
						if err != nil {
							t.Fatalf("scan value eps=%g: %v", eps, err)
						}
						if !reflect.DeepEqual(indexed, scanned) {
							t.Errorf("value eps=%g: indexed %+v != scan %+v", eps, indexed, scanned)
						}
						if istats.Plan != PlanIndex {
							t.Errorf("value: plan = %q, want index", istats.Plan)
						}
						totalPruned += istats.Pruned
					}
				})
			}
		}
	}
	if totalPruned == 0 {
		t.Error("no query ever pruned a candidate: the suite is not exercising the index")
	}
}

// atDistances returns tolerances equal to the exact distances of the
// middle and the farthest of all (a query's every match, sorted): at such
// an ε the record lies on the boundary, where only the slack of the
// sketch band and of the feature bound keeps it from being dismissed.
func atDistances(all []Match, devKey string) []float64 {
	if len(all) == 0 {
		return nil
	}
	return []float64{all[len(all)/2].Deviations[devKey], all[len(all)-1].Deviations[devKey]}
}

// TestIndexedQueryEquivalenceConcurrentChurn interleaves the equivalence
// check with concurrent Ingest/Remove churn on a disjoint id space, once
// per candidate-generation mode (churn at leaf=1 hammers the tree
// tombstone/tail/rebuild machinery under the race detector). The two
// plans snapshot at different instants, so churned ids may legitimately
// differ between them — but the stable ids must agree exactly in every
// pair of answers, and fully once the churn stops.
func TestIndexedQueryEquivalenceConcurrentChurn(t *testing.T) {
	for _, leaf := range leafConfigs {
		for _, paged := range []bool{false, true} {
			t.Run(fmt.Sprintf("leaf=%d/paged=%v", leaf, paged), func(t *testing.T) {
				churnEquivalence(t, leaf, paged)
			})
		}
	}
}

func churnEquivalence(t *testing.T, leaf int, paged bool) {
	rng := rand.New(rand.NewSource(42))
	var db *DB
	if paged {
		// Paged: verification reads reconstructions through the
		// residency layer, 1-byte budget, durable tier to page from.
		// Checkpoints below race the churn, so eviction, paging,
		// pinning and tombstoning all run under the race detector.
		db = pagedDB(t, Config{IndexCoeffs: 4, IndexLeaf: leaf})
	} else {
		db = mustDB(t, Config{IndexCoeffs: 4, IndexLeaf: leaf})
	}
	base := smoothWalk(rng, 64)
	for i := 0; i < 16; i++ {
		mustIngest(t, db, fmt.Sprintf("base-%02d", i), jitter(rng, base, 0.2))
	}
	if paged {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	exemplar := jitter(rng, base, 0.1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			churnRng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", w, i)
				if err := db.Ingest(id, jitter(churnRng, base, 0.2)); err != nil {
					t.Errorf("churn ingest: %v", err)
					return
				}
				if err := db.Remove(id); err != nil {
					t.Errorf("churn remove: %v", err)
					return
				}
			}
		}(w)
	}

	stable := func(matches []Match) []Match {
		out := make([]Match, 0, len(matches))
		for _, m := range matches {
			if len(m.ID) >= 5 && m.ID[:5] == "base-" {
				out = append(out, m)
			}
		}
		return out
	}
	for i := 0; i < 40; i++ {
		if paged && i%10 == 5 {
			// Mid-churn checkpoint: flushes and unpins the churned
			// records while queries below are paging — the eviction /
			// unpin / fault-in races the residency invariants must hold
			// through.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		eps := float64(i%5) * 2
		indexed, _, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, eps, QueryOptions{})
		if err != nil {
			t.Fatalf("indexed: %v", err)
		}
		scanned, err := db.distanceScan(exemplar, dist.Euclidean, eps)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if got, want := stable(indexed), stable(scanned); !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%g: stable sets diverge: indexed %+v, scan %+v", eps, got, want)
		}
		vIndexed, _, err := db.ValueQueryCtx(context.Background(), exemplar, eps, QueryOptions{})
		if err != nil {
			t.Fatalf("indexed value: %v", err)
		}
		vScanned, err := db.valueScan(exemplar, eps)
		if err != nil {
			t.Fatalf("scan value: %v", err)
		}
		if got, want := stable(vIndexed), stable(vScanned); !reflect.DeepEqual(got, want) {
			t.Fatalf("value eps=%g: stable sets diverge: indexed %+v, scan %+v", eps, got, want)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: full equivalence, no filtering.
	for _, eps := range []float64{0, 1, 8, 64} {
		indexed, _, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.ZEuclidean, eps, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := db.distanceScan(exemplar, dist.ZEuclidean, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Errorf("quiesced eps=%g: indexed %+v != scan %+v", eps, indexed, scanned)
		}
	}
}

// TestArchiveDoesNotChangeAnswers pins the one comparison form: the same
// corpus ingested plainly and through the caller's archive — the raw
// originals kept only there, the buffers the database was handed
// overwritten after each ingest — answers every query family identically:
// ids, deviations, exactness, order, frames and QueryStats. The archive
// still holds every original the database dropped. One worker, so which
// matches a bound keeps and how much work it saves are deterministic too.
func TestArchiveDoesNotChangeAnswers(t *testing.T) {
	originals := map[string]seq.Sequence{}
	arch := newCallerArchive()
	var exemplar seq.Sequence
	open := func(arch *callerArchive) *DB {
		cfg := Config{Workers: 1}
		db, dir := openTemp(t, cfg)
		exemplar = archivedWorkload(t, db, arch, rand.New(rand.NewSource(99)), 64)
		for i := 0; i < 6; i++ {
			id, s := fmt.Sprintf("peak-%d", i), peakySeq(float64(i))
			if arch != nil {
				arch.ingest(t, db, id, s)
			} else {
				mustIngest(t, db, id, s)
			}
		}
		if arch == nil {
			for _, id := range db.IDs() {
				s, err := db.Reconstruct(id)
				if err != nil {
					t.Fatal(err)
				}
				originals[id] = s
			}
		}
		return reopen(t, db, dir, cfg)
	}
	plain, archived := open(nil), open(arch)

	type row struct {
		name        string
		spec        QuerySpec
		opts        QueryOptions
		progressive bool
	}
	l2 := QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: 16}
	rows := []row{
		{"shape", QuerySpec{Family: FamilyShape, Exemplar: peakySeq(0.5), Shape: ShapeTolerance{Peaks: 2, Height: 1, Spacing: 1}}, QueryOptions{}, false},
		{"top-k", l2, QueryOptions{TopK: 5}, false},
		{"bounded", l2, QueryOptions{Limit: 3}, false},
	}
	for _, r := range progressiveRunners() { // the value family and every metric
		spec := r.spec(exemplar, 16)
		rows = append(rows,
			row{r.name, spec, QueryOptions{}, false},
			row{r.name + "/progressive", spec, QueryOptions{MaxError: 2}, true},
			row{r.name + "/sketch", spec, QueryOptions{MaxTier: TierCandidate}, true}) // APPROX sketch: the band cap
	}
	answer := func(t *testing.T, db *DB, r row) (any, QueryStats) {
		if r.progressive {
			return collectFrames(t, db, r.spec, r.opts)
		}
		matches, stats, err := db.querySorted(context.Background(), r.spec, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		return matches, stats
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			want, wantStats := answer(t, plain, r)
			got, gotStats := answer(t, archived, r)
			if reflect.ValueOf(want).Len() == 0 || !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Errorf("archived %+v (%v)\n != plain %+v (%v)", got, gotStats, want, wantStats)
			}
		})
	}
	// The representation of each record is the same on both sides, and
	// the caller's archive kept the originals the database did not.
	for id, want := range originals {
		got, err := archived.Reconstruct(id)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Reconstruct(%q) archived = %v (%v), plain = %v", id, got, err, want)
		}
		raw, ok := (*arch)[id]
		if !ok || len(raw) != len(want) {
			t.Fatalf("archive[%q] = %d samples (present %v), want %d", id, len(raw), ok, len(want))
		}
		for i, p := range raw {
			if math.IsNaN(p.V) || math.Abs(p.V-want[i].V) > 1 {
				t.Fatalf("archive %q[%d] = %g, representation %g: not the original", id, i, p.V, want[i].V)
			}
		}
	}
}

// TestIndexedEqualsScanOnFFTFeatures: a directory stores, for
// power-of-two lengths, vectors computed by the FFT (dft.Transform).
// Booted, it must answer every indexed and every progressive query, under
// every metric, as the scan does, the exact self-match at eps 0 included.
// A stored vector and a query vector from another kernel differ by
// rounding of order u·‖q‖, which grows with the values' magnitude; at
// eps 0 only the rounding contract's absolute term (dist.Slack, scaled
// by the query's norm) keeps that difference from dismissing the exact
// match.
func TestIndexedEqualsScanOnFFTFeatures(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.IngestBatch(featureCorpus(t, rand.New(rand.NewSource(5)), 200)); err != nil {
		t.Fatal(err)
	}
	fft := func(vals []float64) []float64 {
		coeffs := dft.Transform(vals)
		out := make([]float64, 0, 2*db.findex.k)
		for _, c := range coeffs[:db.findex.k] {
			out = append(out, real(c), imag(c))
		}
		return out
	}
	rewritten := 0
	for _, id := range db.IDs() {
		rec, _ := db.Record(id)
		if rec.N&(rec.N-1) != 0 {
			continue
		}
		s, err := db.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		rec.feats, rec.zfeats = fft(s.Values()), fft(dist.ZNormalizeValues(s.Values()))
		rewritten++
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	booted, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if rewritten == 0 {
		t.Fatal("no power-of-two record to rewrite")
	}
	for i, id := range booted.IDs() {
		if i%3 != 0 {
			continue
		}
		ex, err := booted.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 1e-9, 0.5} {
			for _, m := range dist.Metrics() {
				got, st, err := booted.DistanceQueryCtx(context.Background(), ex, m, eps, QueryOptions{})
				if err != nil || st.Plan != PlanIndex {
					t.Fatalf("%s %s: plan %s, err %v", id, m.Name(), st.Plan, err)
				}
				want, _ := booted.distanceScan(ex, m, eps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s eps %g: indexed %d matches, scan %d", id, m.Name(), eps, len(got), len(want))
				}
				var progressive []string
				if _, err := booted.DistanceQueryProgressive(context.Background(), ex, m, eps, QueryOptions{}, func(pm ProgressiveMatch) bool {
					if pm.Final && pm.Match != nil {
						progressive = append(progressive, pm.ID)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(progressive) != len(want) {
					t.Fatalf("%s %s eps %g: progressive accepted %v, scan %d matches", id, m.Name(), eps, progressive, len(want))
				}
			}
			got, _, err := booted.ValueQueryCtx(context.Background(), ex, eps, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := booted.valueScan(ex, eps); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s value eps %g: indexed %d matches, scan %d", id, eps, len(got), len(want))
			}
		}
	}
}

// TestIndexedEqualsScanPastSquareOverflow: constant records at ±1e155 and
// ±1e200, past MaxMagnitude, as a log written before the cap replays
// them, and an exemplar at the cap. Their feature differences square
// past the float range while l1, linf, norml1 and the value band stay
// finite. An overflowed feature distance would exceed every finite
// threshold and prune the far record; every metric and the value band
// must answer as the scan does, indexed and progressive, at a tolerance
// above every finite distance.
func TestIndexedEqualsScanPastSquareOverflow(t *testing.T) {
	for _, v := range []float64{1e155, 1e200} {
		db := mustDB(t, Config{})
		up, down, ex := make([]float64, 64), make([]float64, 64), make([]float64, 64)
		for i := range up {
			up[i], down[i], ex[i] = v, -v, MaxMagnitude
		}
		for _, p := range db.ingest([]BatchItem{{ID: "up", Seq: seq.New(up)}, {ID: "down", Seq: seq.New(down)}}, false) {
			if p.err != nil {
				t.Fatal(p.err)
			}
		}
		exemplar := seq.New(ex)
		for _, r := range progressiveRunners() {
			spec := r.spec(exemplar, 1e305)
			indexed, st, err := db.querySorted(context.Background(), spec, QueryOptions{})
			if err != nil || st.Plan != PlanIndex {
				t.Fatalf("%g %s: plan %s, err %v", v, r.name, st.Plan, err)
			}
			scanned, err := db.bruteForce(db.compile(spec))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(indexed, scanned) {
				t.Errorf("%g %s: indexed %+v != scan %+v", v, r.name, indexed, scanned)
			}
			frames, _ := collectFrames(t, db, spec, QueryOptions{})
			accepted := acceptedOf(frames)
			if len(accepted) != len(scanned) {
				t.Errorf("%g %s: progressive accepted %v, scan %+v", v, r.name, accepted, scanned)
			}
			for _, m := range scanned {
				if _, ok := accepted[m.ID]; !ok {
					t.Errorf("%g %s: progressive dismissed %q", v, r.name, m.ID)
				}
			}
			switch r.name {
			case "l1", "linf", "norml1", "value":
				if len(scanned) != 2 {
					t.Errorf("%g %s: scan matched %d records, want both", v, r.name, len(scanned))
				}
			}
		}
	}
}
