package core

// Residency subsystem tests: the pin/evict/page-in lifecycle, the
// bit-identity of paged representations, and the chaos contract on the
// cold-read path — an injected disk fault is query-scoped (ErrStorage
// for that caller), never degrades the database, and never disturbs the
// resident set.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"seqrep/internal/chaos"
	"seqrep/internal/dist"
)

// TestResidencyLifecycle walks a record population through the full
// paging cycle: pinned while dirty, evicted after the checkpoint that
// makes them durable, paged back in bit-identically, and recovered
// across a reboot.
func TestResidencyLifecycle(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	db, err := OpenDir(dir, Config{MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	before := map[string][]byte{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		mustIngest(t, db, id, durSeq(i))
		fs, err := db.Representation(id)
		if err != nil {
			t.Fatalf("Representation(%s) while dirty: %v", id, err)
		}
		before[id], err = fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Dirty records are pinned: resident over budget, because their only
	// copy is RAM plus the WAL.
	st, ok := db.ResidencyStats()
	if !ok {
		t.Fatal("ResidencyStats: tracker not armed under a budget")
	}
	if st.ResidentRecords != n || st.Pinned != n {
		t.Fatalf("pre-checkpoint stats = %+v, want %d resident, all pinned", st, n)
	}

	// The checkpoint unpins; the 1-byte budget then evicts everything.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = db.ResidencyStats()
	if st.ResidentRecords != 0 || st.Pinned != 0 || st.ResidentBytes != 0 {
		t.Fatalf("post-checkpoint stats = %+v, want empty resident set", st)
	}
	if st.Evictions < n {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, n)
	}

	// Page-in returns the exact bytes that were evicted.
	for id, want := range before {
		fs, err := db.Representation(id)
		if err != nil {
			t.Fatalf("Representation(%s) after eviction: %v", id, err)
		}
		got, err := fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: paged representation differs from the evicted one", id)
		}
	}
	st, _ = db.ResidencyStats()
	if st.ColdHits < n {
		t.Fatalf("cold hits = %d, want >= %d", st.ColdHits, n)
	}

	// Reboot: boot adoption streams through the budget, so the database
	// comes back complete but not resident.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir, Config{MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != n {
		t.Fatalf("rebooted Len = %d, want %d", db2.Len(), n)
	}
	st, _ = db2.ResidencyStats()
	if st.ResidentRecords != 0 || st.Pinned != 0 {
		t.Fatalf("boot residency = %+v, want empty (adoption evicts as it streams)", st)
	}
	for id, want := range before {
		fs, err := db2.Representation(id)
		if err != nil {
			t.Fatalf("rebooted Representation(%s): %v", id, err)
		}
		got, err := fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: rebooted representation differs", id)
		}
	}
}

// TestResidencyColdReadDiskError pins the chaos contract of the paging
// path: an injected device error on a cold read surfaces as ErrStorage
// to that caller only — the database stays healthy (not degraded, no
// record lost, resident set untouched) and the next read succeeds.
func TestResidencyColdReadDiskError(t *testing.T) {
	db := pagedDB(t, Config{})
	for i := 0; i < 4; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := &chaos.Fault{Kind: chaos.DiskError, Count: 1}
	db.SetSegmentReadFault(f.Hook())
	_, err := db.Representation("r0")
	if !errors.Is(err, ErrStorage) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("cold read under disk fault = %v, want ErrStorage wrapping the injected error", err)
	}
	if errors.Is(err, ErrUnknownID) {
		t.Fatalf("cold read under disk fault misclassified as unknown id: %v", err)
	}

	// Query-scoped, not database-scoped: nothing degraded, nothing
	// evicted, nothing admitted by the failed pread.
	if deg := db.DegradedStatus(); deg.Degraded {
		t.Fatalf("a failed cold read degraded the database: %+v", deg)
	}
	if _, ok := db.Record("r0"); !ok {
		t.Fatal("record vanished after a failed cold read")
	}
	if st, _ := db.ResidencyStats(); st.ResidentRecords != 0 {
		t.Fatalf("failed pread changed the resident set: %+v", st)
	}

	// The fault window is over: the same read now succeeds.
	if _, err := db.Representation("r0"); err != nil {
		t.Fatalf("cold read after the fault healed: %v", err)
	}

	// Same contract through the query verification fan-out: one query
	// fails with a storage fault, the database keeps serving, and the
	// retry succeeds with the full answer.
	f2 := &chaos.Fault{Kind: chaos.DiskError, Count: 1}
	db.SetSegmentReadFault(f2.Hook())
	if _, err := db.ValueQuery(durSeq(0), 1e9); !errors.Is(err, ErrStorage) {
		t.Fatalf("query over faulted cold reads = %v, want ErrStorage", err)
	}
	db.SetSegmentReadFault(nil)
	matches, err := db.ValueQuery(durSeq(0), 1e9)
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if len(matches) != 4 {
		t.Fatalf("query after fault returned %d matches, want 4", len(matches))
	}
	if deg := db.DegradedStatus(); deg.Degraded {
		t.Fatalf("query-path fault degraded the database: %+v", deg)
	}
}

// TestResidencyColdReadSlowRead: a gray-failure stall on the cold path
// delays the read but does not fail it — paging absorbs slowness.
func TestResidencyColdReadSlowRead(t *testing.T) {
	db := pagedDB(t, Config{})
	mustIngest(t, db, "slow", durSeq(1))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f := &chaos.Fault{Kind: chaos.SlowWrite, Delay: 5 * time.Millisecond, Count: 1}
	db.SetSegmentReadFault(f.Hook())
	start := time.Now()
	if _, err := db.Representation("slow"); err != nil {
		t.Fatalf("stalled cold read failed: %v", err)
	}
	if f.Trips() != 1 {
		t.Fatalf("fault trips = %d, want 1", f.Trips())
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("stall not observed: read took %v", elapsed)
	}
}

// TestResidencyResidentReadsSkipDisk: reads of resident payloads never
// touch the segment tier — under a budget large enough to hold
// everything, a permanently faulted disk is invisible to reads.
func TestResidencyResidentReadsSkipDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Config{MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := db.ResidencyStats()
	if st.ResidentRecords != 4 {
		t.Fatalf("records evicted under a sufficient budget: %+v", st)
	}

	f := &chaos.Fault{Kind: chaos.DiskError, Count: -1}
	db.SetSegmentReadFault(f.Hook())
	for i := 0; i < 4; i++ {
		if _, err := db.Representation(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatalf("resident read touched the faulted tier: %v", err)
		}
	}
	if f.Calls() != 0 {
		t.Fatalf("resident reads reached the segment tier %d times, want 0", f.Calls())
	}
}

// TestFaultInAllocs pins what a cold hit allocates: the pread buffer, the
// series with its segment and parameter arrays, and the tracker entry.
// The segment tier keeps no payload cache to copy into, and the decode
// copies neither the feature vectors nor the sketch, which the record
// holds resident. A one-byte budget evicts the record again after every
// admit, so each Representation below is a cold hit.
func TestFaultInAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const runs, budget = 50, 5
	db, err := OpenDir(t.TempDir(), Config{MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustIngest(t, db, "walk", smoothWalk(rand.New(rand.NewSource(3)), 128))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, _ := db.ResidencyStats()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := db.Representation("walk"); err != nil {
			t.Fatal(err)
		}
	})
	after, _ := db.ResidencyStats()
	if hits := after.ColdHits - before.ColdHits; hits != runs+1 {
		t.Fatalf("%d cold hits in %d reads: the record stayed resident", hits, runs+1)
	}
	if allocs > budget {
		t.Errorf("a cold hit allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("a cold hit allocates %.0f times", allocs)
}

// TestPagedQueryCounts pins what paging does over a fixed grid of exact
// and WITHIN ERROR l2 queries under a budget of a tenth of the corpus:
// the cold hits, the evictions, and a hash of every answer (ids and
// deviation bits). The figures were read at the build whose segment tier
// still kept a payload cache and whose fault-in decoded the whole
// payload; a fault-in that reads and decodes less must page exactly as
// often and answer exactly the same. One worker keeps the paging order,
// and so the counts, deterministic.
func TestPagedQueryCounts(t *testing.T) {
	const (
		families, perFamily, ln = 12, 25, 64
		wantColdHits            = 1437
		wantEvictions           = 1707
		wantAnswers             = "2b9cdb0cee6fb1f51d05cc0794416dafe66c0c08a991e7463be6ade2619b5c35"
	)
	rng := rand.New(rand.NewSource(46))
	var items []BatchItem
	for f := 0; f < families; f++ {
		base := smoothWalk(rng, ln)
		for j := 0; j < perFamily; j++ {
			items = append(items, BatchItem{ID: fmt.Sprintf("f%02d-%02d", f, j), Seq: jitter(rng, base, 2)})
		}
	}
	dir := t.TempDir()
	cfg := Config{Workers: 1}
	db, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	cfg.MemoryBudget = (int64(st.StoredFloats)*8 + int64(st.Segments)*48 + 64*int64(st.Sequences)) / 10
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenDir(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	h, answered := sha256.New(), 0
	write := func(id string, dev float64) {
		fmt.Fprintf(h, "%s:%x;", id, math.Float64bits(dev))
		answered++
	}
	for q := 0; q < 6; q++ {
		spec := QuerySpec{Family: FamilyDistance, Exemplar: items[q*53].Seq, Metric: dist.Euclidean}
		for _, eps := range []float64{2, 4, 8} {
			spec.Eps = eps
			matches, _, err := db.querySorted(context.Background(), spec, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				write(m.ID, m.Dev)
			}
			h.Write([]byte{'|'})
			frames, _ := collectFrames(t, db, spec, QueryOptions{MaxError: eps / 4})
			accepted := acceptedOf(frames)
			for _, id := range slices.Sorted(maps.Keys(accepted)) {
				write(id, accepted[id].Dev)
			}
			h.Write([]byte{'|'})
		}
	}
	rs, _ := db.ResidencyStats()
	t.Logf("%d answers, %d cold hits, %d evictions", answered, rs.ColdHits, rs.Evictions)
	answers := fmt.Sprintf("%x", h.Sum(nil))
	if rs.ColdHits != wantColdHits || rs.Evictions != wantEvictions || answers != wantAnswers {
		t.Errorf("cold hits %d, evictions %d, answers %s; want %d, %d, %s",
			rs.ColdHits, rs.Evictions, answers, wantColdHits, wantEvictions, wantAnswers)
	}
}
