package core

// Hot-path behaviour of the columnar feature store: the vantage-point
// trees must survive mutation overlays (tombstones, appended tails,
// threshold-triggered rebuilds) without ever diverging from the scan,
// candidate generation must examine far fewer vectors than the
// population on clustered data, and the planner's per-query allocation
// cost must not grow with database size.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"seqrep/internal/dist"
)

// clusteredDB ingests clusteredItems(n, ln) into a new database.
func clusteredDB(t testing.TB, cfg Config, n, ln int) (*DB, []BatchItem) {
	t.Helper()
	db := mustDB(t, cfg)
	items := clusteredItems(n, ln)
	if got, err := db.IngestBatch(items); err != nil || got != n {
		t.Fatalf("ingest: %d/%d, %v", got, n, err)
	}
	return db, items
}

// clusteredItems returns n sequences of length ln in 50 well-separated
// amplitude families.
func clusteredItems(n, ln int) []BatchItem {
	rng := rand.New(rand.NewSource(97))
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		s := smoothWalk(rng, ln)
		level := float64(i%50) * 40
		for j := range s {
			s[j].V += level
		}
		items = append(items, BatchItem{ID: fmt.Sprintf("c-%05d", i), Seq: s})
	}
	return items
}

// TestFeatureStoreChurnRebuild drives one length group through every
// overlay transition — tree build, tombstones past the compaction
// threshold, an appended tail past the invalidation threshold, rebuild —
// asserting indexed ≡ scan at each step.
func TestFeatureStoreChurnRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := mustDB(t, Config{IndexLeaf: 1})
	base := smoothWalk(rng, 32)
	ingest := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mustIngest(t, db, fmt.Sprintf("s-%03d", i), jitter(rng, base, 4))
		}
	}
	exemplar := jitter(rng, base, 0.5)
	check := func(stage string) QueryStats {
		t.Helper()
		indexed, stats, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, 6, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		scanned, err := db.distanceScan(exemplar, dist.Euclidean, 6)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("%s: indexed %+v != scan %+v", stage, indexed, scanned)
		}
		return stats
	}

	ingest(0, 200)
	check("fresh")
	g := db.findex.group(32, false)
	if g == nil || g.tree == nil || g.treeN != 200 {
		t.Fatalf("trees not built over the full group: %+v", g)
	}

	// Tombstone below the compaction threshold: rows stay, dead rise.
	for i := 0; i < 40; i++ {
		if err := db.Remove(fmt.Sprintf("s-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("tombstoned")
	if g.deadCount == 0 {
		t.Fatal("removals did not tombstone")
	}

	// Cross the threshold: the store compacts along the way (amortized),
	// leaving 80 live rows and fewer tombstones than removals.
	for i := 40; i < 120; i++ {
		if err := db.Remove(fmt.Sprintf("s-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if live := g.live(); live != 80 {
		t.Fatalf("live = %d after 120 removals, want 80", live)
	}
	if g.deadCount > g.staleMax() {
		t.Fatalf("tombstones never compacted: dead=%d rows=%d", g.deadCount, len(g.recs))
	}
	check("compacted") // rebuilds the trees on demand
	if g.tree == nil || g.treeN != 80 {
		t.Fatalf("trees not rebuilt after compaction: treeN=%d", g.treeN)
	}

	// Append a tail past the invalidation threshold (32 + 80/4 = 52).
	ingest(200, 260)
	if g.tree != nil {
		t.Fatal("oversized tail did not invalidate the trees")
	}
	stats := check("tail-rebuilt")
	if g.tree == nil || g.treeN != 140 {
		t.Fatalf("trees not rebuilt over the tail: treeN=%d", g.treeN)
	}
	if stats.Candidates+stats.Pruned != stats.Examined {
		t.Fatalf("stats don't add up: %+v", stats)
	}

	// Draining the group entirely must release its record pointers —
	// tombstones may never outnumber the live population — and retire
	// the empty group from the index.
	for i := 120; i < 260; i++ {
		if err := db.Remove(fmt.Sprintf("s-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.recs) != 0 || g.deadCount != 0 {
		t.Fatalf("drained group retains %d rows (%d dead)", len(g.recs), g.deadCount)
	}
	if !g.retired || db.findex.group(32, false) != nil {
		t.Fatalf("drained group not retired (retired=%v)", g.retired)
	}
	check("drained")

	// Re-ingesting at the same length creates a fresh group and the
	// planner sees the new records.
	ingest(300, 305)
	indexed, err := db.DistanceQuery(exemplar, dist.Euclidean, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 5 {
		t.Fatalf("after retire+reingest: %d matches, want 5", len(indexed))
	}
	check("reborn")
}

// TestIndexedQuerySubLinear is the tentpole property: on a clustered
// corpus the tree examines a small fraction of the length group while
// returning the scan's exact answer.
func TestIndexedQuerySubLinear(t *testing.T) {
	const n = 4000
	db, items := clusteredDB(t, Config{}, n, 64)
	exemplar := items[3].Seq // family 3
	indexed, stats, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, 8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan != PlanIndex {
		t.Fatalf("plan = %q", stats.Plan)
	}
	if len(indexed) == 0 {
		t.Fatal("query found nothing in its own family")
	}
	if stats.Examined >= n/4 {
		t.Errorf("examined %d of %d vectors: candidate generation is not sub-linear", stats.Examined, n)
	}
	scanned, err := db.distanceScan(exemplar, dist.Euclidean, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("indexed != scan on clustered corpus")
	}
}

// TestIndexedQueryAllocs guards the planner's per-query allocation cost:
// over a 2000-sequence database the indexed path must stay within a
// fixed budget — query features, pooled candidate scratch, the worker
// fan-out and the matches themselves; nothing proportional to N.
func TestIndexedQueryAllocs(t *testing.T) {
	db, items := clusteredDB(t, Config{Workers: 2}, 2000, 64)
	exemplar := items[3].Seq
	m := dist.Euclidean
	if _, _, err := db.DistanceQueryCtx(context.Background(), exemplar, m, 2, QueryOptions{}); err != nil { // warm: trees + pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := db.DistanceQueryCtx(context.Background(), exemplar, m, 2, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 60
	if allocs > budget {
		t.Errorf("indexed DistanceQueryCtx allocates %.0f per op over 2000 sequences, budget %d", allocs, budget)
	}
}

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation allocates.
var raceEnabled bool

// TestVerifyAllocs guards the exact tier's per-candidate cost, shared by
// every source and delivery of the candidate pipeline: the record is
// reconstructed into pooled scratch, so a candidate allocates nothing,
// accepted or rejected.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := mustDB(t, Config{})
	mustIngest(t, db, "r", smoothWalk(rand.New(rand.NewSource(31)), 160))
	rec, ok := db.Record("r")
	if !ok {
		t.Fatal("record missing")
	}
	if fs, err := db.materialize(rec); err != nil || fs.NumSegments() < 10 {
		t.Fatalf("want a resident record of >= 10 segments: %v, %v", fs, err)
	}
	near, err := db.Reconstruct("r")
	if err != nil {
		t.Fatal(err)
	}
	// Mirrored and shifted: far under every metric, zl2 included.
	far := near.Clone()
	for i := range far {
		far[i].V = 1000 - far[i].V
	}

	check := func(what string, verify func() (Match, bool, error), wantOK bool) {
		t.Helper()
		if _, ok, err := verify(); err != nil || ok != wantOK {
			t.Fatalf("%s: ok=%v err=%v, want ok=%v", what, ok, err, wantOK)
		}
		if allocs := testing.AllocsPerRun(100, func() { verify() }); allocs > 0 {
			t.Errorf("%s allocates %.0f per candidate, budget 0", what, allocs)
		}
	}
	// Each verifies through its compiled spec, at the spec's own radius.
	verify := func(spec *querySpec, err error) func() (Match, bool, error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return func() (Match, bool, error) { return spec.verify(rec, spec.initEps) }
	}
	for _, m := range dist.Metrics() {
		check(m.Name()+" reject", verify(db.distanceSpec(far, m, 1e-3)), false)
		check(m.Name()+" accept", verify(db.distanceSpec(near, m, 1)), true)
	}
	check("value reject", verify(db.valueSpec(far, 1e-3)), false)
	check("value accept", verify(db.valueSpec(near, 1)), true)
}

// TestProgressiveSubLinear is the same property for the cascade: a
// progressive query runs the exact query's pipeline, so it compares
// exactly the feature vectors the exact indexed query compares, bands
// and verifies the same records, and accounts for every record it
// examined.
func TestProgressiveSubLinear(t *testing.T) {
	const n = 4000
	db, items := clusteredDB(t, Config{}, n, 64)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: items[3].Seq, Metric: dist.Euclidean, Eps: 8}
	exact, exactStats, err := db.querySorted(context.Background(), spec, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frames, stats := collectFrames(t, db, spec, QueryOptions{})
	if stats.Plan != PlanProgressive {
		t.Fatalf("plan = %q", stats.Plan)
	}
	if stats.Examined >= n/4 {
		t.Errorf("examined %d of %d records: the cascade is not sub-linear", stats.Examined, n)
	}
	if stats.Examined != exactStats.Examined {
		t.Errorf("cascade examined %d, the exact indexed query %d", stats.Examined, exactStats.Examined)
	}
	if stats.Sketched != exactStats.Sketched || stats.Pruned != exactStats.Pruned || stats.Candidates != exactStats.Candidates {
		t.Errorf("cascade %v, the exact query %v: one pipeline must do the same work", stats, exactStats)
	}
	if stats.Examined != stats.Pruned+stats.BandAccepted+stats.Candidates {
		t.Errorf("stats don't add up: %+v", stats)
	}
	if len(frames) > stats.Sketched {
		t.Errorf("%d records framed, only %d survived the index", len(frames), stats.Sketched)
	}
	accepted := acceptedOf(frames)
	if len(accepted) != len(exact) || len(exact) == 0 {
		t.Fatalf("cascade accepted %d, exact query matched %d", len(accepted), len(exact))
	}
	for _, m := range exact {
		if got, ok := accepted[m.ID]; !ok || !reflect.DeepEqual(got, m) {
			t.Errorf("%s: cascade %+v, exact %+v", m.ID, got, m)
		}
	}
}

// TestProgressiveQueryAllocs is TestIndexedQueryAllocs for the cascade:
// the exemplar's sketch, the pooled candidate scratch, one fan-out and
// a frame trail per survivor — nothing proportional to N, in count or in
// bytes (a per-query snapshot of the shards is few allocations but 8 N
// bytes).
func TestProgressiveQueryAllocs(t *testing.T) {
	const n = 2000
	db, items := clusteredDB(t, Config{Workers: 2}, n, 64)
	spec := QuerySpec{Family: FamilyDistance, Exemplar: items[3].Seq, Metric: dist.Euclidean, Eps: 2}
	run := func() {
		if _, err := db.QueryProgressive(context.Background(), spec, QueryOptions{}, func(ProgressiveMatch) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: trees + pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	const (
		budget     = 90
		byteBudget = 8 * n / 2 // half of one pointer per record
	)
	if allocs > budget {
		t.Errorf("progressive query allocates %.0f per op over %d sequences, budget %d", allocs, n, budget)
	}
	// AllocsPerRun runs once more than asked, to warm up.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); bytes > byteBudget {
		t.Errorf("progressive query allocates %d bytes per op over %d sequences, budget %d", bytes, n, byteBudget)
	}
}

// TestFeatureQueryAllocs guards the feature queries against work per
// record or per symbol group on the heap: they walk the groups and the id
// column in place. Growing the corpus from 1 000 to 4 000 records that no
// query hits, each in a group of its own, must leave the allocation count
// of MatchPattern and of PeakCount where it was.
func TestFeatureQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := mustDB(t, Config{})
	// The hits start with a rise and have at most two peaks; the filler
	// starts with a descent and has twelve.
	hitShapes := []string{"U", "UF", "UD", "UFD", "UDUD"}
	const hits = 20
	for i := 0; i < hits; i++ {
		mustIngest(t, db, fmt.Sprintf("h%02d", i), shapeOf(hitShapes[i%len(hitShapes)]).ShiftValue(float64(i)))
	}
	fill := func(from, to int) {
		t.Helper()
		items := make([]BatchItem, 0, to-from)
		for j := from; j < to; j++ {
			syms := "D"
			for bit := 0; bit < 12; bit++ {
				syms += map[bool]string{false: "UD", true: "UFD"}[j>>bit&1 == 1]
			}
			items = append(items, BatchItem{ID: fmt.Sprintf("f%04d", j), Seq: shapeOf(syms)})
		}
		if _, err := db.IngestBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	// The exemplar has one peak, so the filler's twelve fail on the count
	// alone. The find pattern's first hit is the first filler record, so
	// a walk that stops at the limit never sees the rest.
	exemplar := shapeOf("UFD")
	shapeTol := ShapeTolerance{Peaks: 1, Height: 1, Spacing: 1}
	findFirst := func() ([]Match, QueryStats, error) {
		return db.querySorted(context.Background(), QuerySpec{Family: FamilyFind, Pattern: "U+F*D+"}, QueryOptions{Limit: 1})
	}
	type allocs struct{ pattern, peaks, shape, find float64 }
	measure := func() allocs {
		t.Helper()
		ids, err := db.MatchPattern("U.*")
		if err != nil || len(ids) != hits {
			t.Fatalf("MatchPattern: %d hits, %v; want %d", len(ids), err, hits)
		}
		matches, err := db.PeakCount(1, 1)
		if err != nil || len(matches) != hits {
			t.Fatalf("PeakCount: %d hits, %v; want %d", len(matches), err, hits)
		}
		// U and UF have no peak to normalize; UD, UFD and UDUD match.
		const shapeHits = hits * 3 / 5
		if matches, err := db.ShapeQuery(exemplar, shapeTol); err != nil || len(matches) != shapeHits {
			t.Fatalf("ShapeQuery: %d hits, %v; want %d", len(matches), err, shapeHits)
		}
		if found, stats, err := findFirst(); err != nil || len(found) != 1 || found[0].ID != "f0000" || stats.Examined != 1 {
			t.Fatalf("FIND LIMIT 1: %v, stats %+v, %v; want f0000's first hit after one id", found, stats, err)
		}
		return allocs{
			pattern: testing.AllocsPerRun(20, func() { db.MatchPattern("U.*") }),
			peaks:   testing.AllocsPerRun(20, func() { db.PeakCount(1, 1) }),
			shape:   testing.AllocsPerRun(20, func() { db.ShapeQuery(exemplar, shapeTol) }),
			find:    testing.AllocsPerRun(20, func() { findFirst() }),
		}
	}
	fill(0, 1000-hits)
	at1k := measure()
	groups1k := db.Stats().SymbolGroups
	fill(1000-hits, 4000-hits)
	at4k := measure()
	if groups := db.Stats().SymbolGroups; groups < 3*groups1k {
		t.Fatalf("%d symbol groups at 4 000 records, %d at 1 000: the filler shares groups", groups, groups1k)
	}
	if at4k.pattern != at1k.pattern {
		t.Errorf("MatchPattern allocates %.0f at 1 000 records, %.0f at 4 000", at1k.pattern, at4k.pattern)
	}
	// The group deviations, the run ends, the ids and the matches.
	const peaksBudget = 4
	if at4k.peaks != at1k.peaks || at4k.peaks > peaksBudget {
		t.Errorf("PeakCount allocates %.0f at 1 000 records, %.0f at 4 000, budget %d", at1k.peaks, at4k.peaks, peaksBudget)
	}
	if at4k.shape != at1k.shape {
		t.Errorf("ShapeQuery allocates %.0f at 1 000 records, %.0f at 4 000: the filler costs allocations", at1k.shape, at4k.shape)
	}
	if at4k.find != at1k.find {
		t.Errorf("FIND LIMIT 1 allocates %.0f at 1 000 records, %.0f at 4 000: the walk goes past the limit", at1k.find, at4k.find)
	}
	t.Logf("MatchPattern %.0f allocs, PeakCount %.0f, ShapeQuery %.0f, FIND LIMIT 1 %.0f", at4k.pattern, at4k.peaks, at4k.shape, at4k.find)
}

// TestDeriveAllocs guards the build's derivation: the comparison form is
// reconstructed and z-normalized once into pooled scratch that both
// feature vectors and the sketch read, and the twiddles are cached, so a
// record of any length allocates only what it keeps — one block of
// floats (feats, zfeats and the sketch's two mean slices are windows of
// it) and the sketch.
func TestDeriveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const retained = 2
	db := mustDB(t, Config{})
	corpus := featureCorpus(t, rand.New(rand.NewSource(17)), 20)
	var counts []float64
	for _, it := range []BatchItem{corpus[0], corpus[12], corpus[17]} { // 128, 97 and 256 samples
		rec, err := db.build(it.ID, it.Seq, true)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			rec.feats, rec.zfeats, rec.sketch = nil, nil, nil
			db.derive(rec, rec.rep.Load())
		})
		if rec.feats == nil || rec.zfeats == nil || rec.sketch == nil {
			t.Fatalf("%s: derive left the record unindexed", it.ID)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] || counts[0] > retained {
		t.Errorf("derive allocates %v for 128, 97 and 256 samples; want one count, at most the %d the record keeps", counts, retained)
	}
}

// TestRecordSizeClass pins Record in the 128-byte allocation size class:
// one more word moves every resident record to the 144-byte class, which
// showed in peak RSS on every benchmark workload.
func TestRecordSizeClass(t *testing.T) {
	var rec Record
	if size := unsafe.Sizeof(rec); size > 128 {
		t.Errorf("Record is %d bytes, past the 128-byte size class", size)
	}
}
