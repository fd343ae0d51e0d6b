package core

// Segment-tier regression tests: a checkpoint flushes only the records
// dirtied since the previous one, a checkpoint that fails between log
// rotation and truncation strands sealed WAL segments that the next
// successful checkpoint reclaims (without churning empty segments in the
// meantime), OpenDir refuses each corrupt boot state loudly instead of
// booting empty over it, and the OpenDir → ingest → Checkpoint → Close →
// OpenDir round trip — the only way a database reaches disk and comes
// back — preserves answers, vectors, sketches and configuration.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seqrep/internal/dist"
	"seqrep/internal/multires"
	"seqrep/internal/pattern"
	"seqrep/internal/segment"
	"seqrep/internal/seq"
	"seqrep/internal/store"
	"seqrep/internal/synth"
	"seqrep/internal/wal"
)

func segStats(t *testing.T, db *DB) segment.Stats {
	t.Helper()
	st, ok := db.SegmentStats()
	if !ok {
		t.Fatal("SegmentStats unavailable on a durable database")
	}
	return st
}

func countGlob(t *testing.T, pattern string) int {
	t.Helper()
	names, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

func TestCheckpointFlushesOnlyDelta(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	for i := 0; i < 40; i++ {
		mustIngest(t, db, fmt.Sprintf("r%02d", i), durSeq(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}
	st := segStats(t, db)
	if st.Segments != 1 || st.Entries != 40 || st.Tombstones != 0 {
		t.Fatalf("after base checkpoint SegmentStats = %+v; want 1 segment, 40 entries", st)
	}
	baseBytes := st.Bytes

	// 2 inserts + 1 remove of churn: the next checkpoint must write a
	// delta segment holding exactly those three ids, not rewrite the 40.
	mustIngest(t, db, "r40", durSeq(40))
	mustIngest(t, db, "r41", durSeq(41))
	if err := db.Remove("r00"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("delta checkpoint: %v", err)
	}
	st = segStats(t, db)
	if st.Segments != 2 || st.Entries != 43 || st.Tombstones != 1 {
		t.Fatalf("after delta checkpoint SegmentStats = %+v; want a 3-entry delta on top of the base", st)
	}
	if delta := st.Bytes - baseBytes; delta <= 0 || delta*4 > baseBytes {
		t.Fatalf("delta segment cost %d bytes on a %d-byte base; a delta flush must not rewrite the tier", delta, baseBytes)
	}

	// No churn since the last checkpoint: the manifest advances its LSN
	// but no segment is written.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("no-op checkpoint: %v", err)
	}
	if st = segStats(t, db); st.Segments != 2 || st.Entries != 43 {
		t.Fatalf("no-op checkpoint changed the tier: %+v", st)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 41 {
		t.Fatalf("rebooted Len = %d, want 41", db2.Len())
	}
	if rec := db2.Recovery(); rec.Replayed != 0 {
		t.Fatalf("Recovery = %+v; checkpointed boot must not replay", rec)
	}
	if _, ok := db2.Record("r00"); ok {
		t.Fatal("r00 resurrected: its tombstone did not overlay the base segment")
	}
	for _, id := range []string{"r01", "r39", "r40", "r41"} {
		if _, ok := db2.Record(id); !ok {
			t.Fatalf("%s missing after segment-tier reboot", id)
		}
	}
}

// TestCheckpointFailureStrandsAndReclaims pins the rotate-then-fail
// crash window: a checkpoint that rotates the log but dies before
// truncating it leaves a sealed WAL segment behind. That segment must
// survive (its records are the only durable copy), repeated failing
// checkpoints must not churn new empty segments, and the next
// successful checkpoint must reclaim everything.
func TestCheckpointFailureStrandsAndReclaims(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	for i := 0; i < 3; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	walGlob := filepath.Join(dir, WALDirName, "wal-*.log")
	segGlob := filepath.Join(dir, SegmentsDirName, "*.sseg")
	if n := countGlob(t, walGlob); n != 1 {
		t.Fatalf("%d wal segments before any checkpoint, want 1", n)
	}

	db.WrapCheckpointWriter(func(w io.Writer) io.Writer {
		return store.NewFailAfterWriter(w, 1)
	})
	// The injected error itself must surface, not some secondary failure.
	if err := db.Checkpoint(); !errors.Is(err, store.ErrInjectedWrite) {
		t.Fatalf("checkpoint with a failing segment writer = %v, want ErrInjectedWrite", err)
	}
	// Rotation happened, truncation did not: the sealed segment is
	// stranded — and must be, because the flush that would have covered
	// its records never committed.
	if n := countGlob(t, walGlob); n != 2 {
		t.Fatalf("%d wal segments after failed checkpoint, want the stranded seal + live = 2", n)
	}
	if n := countGlob(t, segGlob); n != 0 {
		t.Fatalf("failed flush littered %d segment files", n)
	}
	st, _ := db.WALStats()
	if st.CheckpointFailures != 1 || st.LastCheckpointError == "" {
		t.Fatalf("WALStats after failure = %+v; want the failure counted and described", st)
	}
	if st.Records != 3 {
		t.Fatalf("failed checkpoint lost log records: %+v", st)
	}

	// A second failure with no intervening writes: the empty live
	// segment must not be rotated into a fresh stranded seal each try.
	if err := db.Checkpoint(); err == nil {
		t.Fatal("second failing checkpoint succeeded")
	}
	if n := countGlob(t, walGlob); n != 2 {
		t.Fatalf("%d wal segments after repeated failures, want no churn (2)", n)
	}
	if st, _ = db.WALStats(); st.CheckpointFailures != 2 {
		t.Fatalf("failure counter = %d, want 2", st.CheckpointFailures)
	}

	// Heal: one successful checkpoint flushes the (restored) dirty set
	// and reclaims the stranded seal.
	db.WrapCheckpointWriter(nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("healed checkpoint: %v", err)
	}
	if n := countGlob(t, walGlob); n != 1 {
		t.Fatalf("%d wal segments after healed checkpoint, want the stranded seal reclaimed (1)", n)
	}
	st, _ = db.WALStats()
	if st.Records != 0 || st.LastCheckpointError != "" {
		t.Fatalf("WALStats after healed checkpoint = %+v; want empty log, cleared error", st)
	}
	if st.CheckpointFailures != 2 {
		t.Fatalf("success reset the cumulative failure counter: %+v", st)
	}
	if seg := segStats(t, db); seg.Segments != 1 || seg.Entries != 3 {
		t.Fatalf("healed checkpoint wrote %+v; want all 3 records", seg)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 3 {
		t.Fatalf("rebooted Len = %d, want 3", db2.Len())
	}
}

func TestOpenDirBootErrorMatrix(t *testing.T) {
	// A directory last written by a pre-segment-tier build holds its data
	// in snapshot.sdb, which this build cannot read — whatever the file
	// contains. Booting empty and replaying the WAL tail over it would
	// silently drop every record it holds, so the boot refuses, names the
	// file, and touches nothing.
	t.Run("corrupt snapshot magic", func(t *testing.T) {
		dir := t.TempDir()
		snap := filepath.Join(dir, legacySnapshotName)
		content := []byte("XXXX not a snapshot")
		if err := os.WriteFile(snap, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDir(dir, Config{})
		if err == nil {
			t.Fatal("OpenDir booted empty over a legacy snapshot")
		}
		if !strings.Contains(err.Error(), snap) {
			t.Fatalf("refusal does not name the file: %v", err)
		}
		if got, err := os.ReadFile(snap); err != nil || string(got) != string(content) {
			t.Fatalf("refused boot altered the legacy snapshot: %q, %v", got, err)
		}
		if n := countGlob(t, filepath.Join(dir, "*")); n != 1 {
			t.Fatalf("refused boot left %d entries in the directory, want the snapshot alone", n)
		}
	})

	// Beside a manifest the stray file is just a file: the manifest is
	// the commit point, boot comes from it, and nothing deletes what this
	// build does not own.
	t.Run("snapshot beside a manifest is ignored", func(t *testing.T) {
		dir := t.TempDir()
		db := mustOpenDir(t, dir)
		mustIngest(t, db, "kept", durSeq(1))
		snap := filepath.Join(dir, legacySnapshotName)
		if err := os.WriteFile(snap, []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := reopen(t, db, dir, Config{})
		if _, ok := db2.Record("kept"); !ok {
			t.Fatal("record lost booting from the manifest beside a stray snapshot")
		}
		if err := db2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(snap); err != nil || string(got) != "stray" {
			t.Fatalf("stray snapshot was touched: %q, %v", got, err)
		}
	})

	t.Run("unreadable wal directory", func(t *testing.T) {
		dir := t.TempDir()
		// A regular file where the log directory belongs: MkdirAll gets
		// ENOTDIR regardless of permissions (tests may run as root, so
		// mode bits alone cannot force the failure).
		if err := os.WriteFile(filepath.Join(dir, WALDirName), []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir, Config{}); err == nil {
			t.Fatal("OpenDir booted without its write-ahead log")
		}
	})

	t.Run("corrupt manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, SegmentsDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SegmentsDirName, "MANIFEST"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir, Config{}); err == nil {
			t.Fatal("OpenDir booted over a corrupt manifest")
		}
	})

	t.Run("replay pipeline failure is counted not fatal", func(t *testing.T) {
		dir := t.TempDir()
		w, err := wal.Open(filepath.Join(dir, WALDirName), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Non-increasing timestamps fail sequence validation — the same
		// deterministic rejection the original caller saw, so replay
		// counts it and moves on rather than refusing to boot.
		bad, err := encodeWALIngest("bad", seq.Sequence{{T: 1, V: 1}, {T: 1, V: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(walOpIngest, 0, bad); err != nil {
			t.Fatal(err)
		}
		good, err := encodeWALIngest("good", durSeq(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(walOpIngest, 0, good); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		db := mustOpenDir(t, dir)
		defer db.Close()
		rec := db.Recovery()
		if rec.Replayed != 2 || rec.Applied != 1 || rec.Failed != 1 {
			t.Fatalf("Recovery = %+v; want 1 applied, 1 failed", rec)
		}
		if _, ok := db.Record("good"); !ok {
			t.Fatal("good record lost alongside the failing one")
		}
		if _, ok := db.Record("bad"); ok {
			t.Fatal("invalid record materialized from replay")
		}
	})
}

// ---- the persistence round trip ----

// openTemp opens a durable database under cfg in a throwaway directory.
func openTemp(t *testing.T, cfg Config) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db, dir
}

// reopen checkpoints and closes db, then boots its directory again under
// cfg. The reboot must come from the segment tier alone.
func reopen(t *testing.T, db *DB, dir string, cfg Config) *DB {
	t.Helper()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	t.Cleanup(func() { db2.Close() })
	if rec := db2.Recovery(); rec.Replayed != 0 {
		t.Fatalf("Recovery = %+v; a checkpointed boot must not replay", rec)
	}
	return db2
}

// ingestFevers stores a fever curve and value-shifted copies of it.
func ingestFevers(t *testing.T, db *DB, shifts map[string]float64) seq.Sequence {
	t.Helper()
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	for id, shift := range shifts {
		mustIngest(t, db, id, fever.ShiftValue(shift))
	}
	return fever
}

// progressiveAccepts returns the sorted ids a progressive distance query
// finally accepts.
func progressiveAccepts(t *testing.T, db *DB, exemplar seq.Sequence, eps float64) []string {
	t.Helper()
	var ids []string
	_, err := db.DistanceQueryProgressive(context.Background(), exemplar, dist.Euclidean, eps, QueryOptions{}, func(pm ProgressiveMatch) bool {
		if pm.Final && pm.Match != nil {
			ids = append(ids, pm.ID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	return ids
}

func TestSaveLoadRoundTrip(t *testing.T) {
	archive := store.NewMemArchive()
	db, dir := openTemp(t, Config{Archive: archive})
	fillFever(t, db)
	before, err := db.MatchPattern(pattern.TwoPeak())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := db.IntervalQuery(8, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The manifest's scalars win over whatever the reopening process asks
	// for: stored representations were broken under them.
	loaded := reopen(t, db, dir, Config{Archive: archive, Epsilon: 9, Delta: 9, BucketWidth: 9})
	if loaded.Len() != db.Len() {
		t.Fatalf("reopened with %d records, want %d", loaded.Len(), db.Len())
	}
	if cfg := loaded.Config(); cfg.Epsilon != 0.5 || cfg.Delta != 0.25 || cfg.BucketWidth != 1 {
		t.Errorf("scalars not restored: %+v", cfg)
	}
	after, err := loaded.MatchPattern(pattern.TwoPeak())
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || !reflect.DeepEqual(before, after) {
		t.Errorf("pattern matches changed across the round trip: %v vs %v", before, after)
	}
	// Interval index rebuilt: same result set.
	am, err := loaded.IntervalQuery(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm) == 0 || !reflect.DeepEqual(bm, am) {
		t.Errorf("interval matches changed across the round trip: %+v vs %+v", bm, am)
	}
}

func TestSaveEmptyDB(t *testing.T) {
	db, dir := openTemp(t, Config{})
	if loaded := reopen(t, db, dir, Config{}); loaded.Len() != 0 {
		t.Errorf("reopened an empty database with %d records", loaded.Len())
	}
}

// TestSaveLoadPreservesFeatureIndex is the planner's persistence
// contract: a reopened database answers indexed queries with the same
// matches and the same plan statistics, from vectors and sketches restored
// out of the payloads rather than recomputed — a one-ulp nudge to the
// stored copies, which a rebuild would erase, survives the boot.
func TestSaveLoadPreservesFeatureIndex(t *testing.T) {
	db, dir := openTemp(t, Config{})
	exemplar := ingestFevers(t, db, map[string]float64{"fever": 0, "near": 0.05, "far": 50})
	before, beforeStats, err := db.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	far, _ := db.Record("far")
	far.feats[0] = math.Nextafter(far.feats[0], math.Inf(1))
	far.sketch.R2 = math.Nextafter(far.sketch.R2, math.Inf(1))
	loaded := reopen(t, db, dir, Config{})
	if got, _ := loaded.Record("far"); !reflect.DeepEqual(got.feats, far.feats) || !reflect.DeepEqual(got.sketch, far.sketch) {
		t.Error("boot recomputed far's feature vector or sketch instead of restoring the stored ones")
	}
	if got, want := loaded.Stats().FeatureIndexed, db.Stats().FeatureIndexed; got != want {
		t.Errorf("FeatureIndexed = %d after reopen, want %d", got, want)
	}
	after, afterStats, err := loaded.DistanceQueryCtx(context.Background(), exemplar, dist.Euclidean, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("matches changed across the round trip: %+v vs %+v", before, after)
	}
	if beforeStats != afterStats {
		t.Errorf("stats changed across the round trip: %+v vs %+v", beforeStats, afterStats)
	}
	if afterStats.Plan != PlanIndex || afterStats.Pruned == 0 {
		t.Errorf("reopened planner stats: %+v", afterStats)
	}
}

// TestSaveLoadRestoresSketches: across the round trip every record's
// progressive sketch is restored bit-for-bit, and progressive queries on
// the reopened database behave identically.
func TestSaveLoadRestoresSketches(t *testing.T) {
	db, dir := openTemp(t, Config{})
	ingestFevers(t, db, map[string]float64{"fever": 0, "near": 0.5, "far": 50})
	loaded := reopen(t, db, dir, Config{})
	if got := loaded.Config().SketchBlock; got != db.cfg.SketchBlock {
		t.Fatalf("SketchBlock = %d, want %d", got, db.cfg.SketchBlock)
	}
	for _, id := range db.IDs() {
		orig, _ := db.Record(id)
		got, ok := loaded.Record(id)
		if !ok {
			t.Fatalf("%q missing after reopen", id)
		}
		if orig.sketch == nil {
			t.Fatalf("%q had no sketch before the checkpoint", id)
		}
		if !reflect.DeepEqual(got.sketch, orig.sketch) {
			t.Errorf("%q: sketch not restored bit-for-bit:\n got  %+v\n want %+v", id, got.sketch, orig.sketch)
		}
	}
	exemplar, err := loaded.Reconstruct("fever")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := loaded.DistanceQuery(exemplar, dist.Euclidean, 5)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range matches {
		want = append(want, m.ID)
	}
	sort.Strings(want)
	if got := progressiveAccepts(t, loaded, exemplar, 5); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("progressive accepts after reopen %v, want %v", got, want)
	}
}

// sourceChanges are the boots whose stored vectors and sketches might not
// bound the one comparison form. legacy is the directory an older binary
// run with an archive left behind — payloads derived from the archived
// raws, manifest sources 1: restoring those verbatim would prune against
// one form and verify against another (a false dismissal), so boot must
// discard and rebuild both, archive configured or not (the dropped row's
// 1-byte memory budget makes its rewrite page cold records). An archive
// added to this binary's own directory changes nothing. No boot reads it.
var sourceChanges = []struct {
	name            string
	legacy, reopens bool // raw-derived directory / archive configured at reboot
	budget          int64
}{
	{"archive kept", true, true, 0},
	{"archive dropped", true, false, 1},
	{"archive added", false, true, 0},
}

// acrossSourceChange checkpoints two fevers on one side of a source
// change, boots the directory on the other and runs check against orig,
// which still holds the records as checkpointed. Then it checkpoints,
// closes, boots again and re-runs check: every checkpoint writes this
// binary's sources into the manifest, so the first must rewrite the legacy
// payloads in the same commit or the second boot restores them verbatim.
func acrossSourceChange(t *testing.T, legacy, reopens bool, budget int64, check func(t *testing.T, orig, loaded *DB)) {
	t.Helper()
	archive := store.NewCountingArchive(store.NewMemArchive())
	first, second := Config{}, Config{MemoryBudget: budget}
	if legacy {
		first.Archive = archive
	}
	if reopens {
		second.Archive = archive
	}
	orig, dir := openTemp(t, first)
	shifts := map[string]float64{"fever": 0, "far": 50}
	fever := ingestFevers(t, orig, shifts)
	mm := dirOf(orig).manifestMeta()
	if legacy {
		for id, shift := range shifts {
			rec, _ := orig.Record(id)
			raw := fever.ShiftValue(shift).Values()
			orig.findex.computeFeatures(rec, raw, dist.ZNormalizeValues(raw))
			rec.sketch = multires.BuildSketch(raw, orig.cfg.SketchBlock)
		}
		mm.FeatSource, mm.SketchSource = featSourceLegacyRaw, featSourceLegacyRaw
	}
	if err := orig.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	meta, _ := json.Marshal(mm) // recommit the manifest under mm's sources
	if err := dirOf(orig).segs.Flush(nil, dirOf(orig).segs.LSN(), meta); err != nil {
		t.Fatal(err)
	}
	if err := orig.Close(); err != nil {
		t.Fatal(err)
	}
	archive.ResetStats()
	loaded, err := OpenDir(dir, second)
	if err != nil {
		t.Fatal(err)
	}
	check(t, orig, loaded)
	check(t, orig, reopen(t, loaded, dir, second))
	if reads := archive.Stats().Reads; reads != 0 {
		t.Errorf("the boots and their queries read the archive %d times", reads)
	}
}

func TestLoadRebuildsVectorsOnComparisonSourceChange(t *testing.T) {
	for _, sc := range sourceChanges {
		t.Run(sc.name, func(t *testing.T) {
			acrossSourceChange(t, sc.legacy, sc.reopens, sc.budget, func(t *testing.T, orig, loaded *DB) {
				if got := loaded.Stats().FeatureIndexed; got != 2 {
					t.Errorf("FeatureIndexed = %d, want 2", got)
				}
				self, err := loaded.Reconstruct("fever")
				if err != nil {
					t.Fatal(err)
				}
				rec, _ := loaded.Record("fever")
				var want Record
				loaded.findex.computeFeatures(&want, self.Values(), dist.ZNormalizeValues(self.Values()))
				if !reflect.DeepEqual(rec.feats, want.feats) || !reflect.DeepEqual(rec.zfeats, want.zfeats) {
					t.Error("vectors do not derive from the reconstruction")
				}
				if before, _ := orig.Record("fever"); reflect.DeepEqual(rec.feats, before.feats) == sc.legacy {
					t.Errorf("stored vectors restored verbatim = %v, want %v", sc.legacy, !sc.legacy)
				}
				// The comparison form must match itself at every tolerance on
				// both plans.
				for _, eps := range []float64{0, 0.001, 0.01, 0.1, 1} {
					indexed, istats, err := loaded.DistanceQueryCtx(context.Background(), self, dist.Euclidean, eps, QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					scanned, _, err := loaded.distanceScan(self, dist.Euclidean, eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(indexed) == 0 || !reflect.DeepEqual(indexed, scanned) || istats.Plan != PlanIndex {
						t.Fatalf("eps=%g: indexed %+v (plan %q) != scan %+v (stale vectors dismissed the self-match?)", eps, indexed, istats.Plan, scanned)
					}
				}
			})
		})
	}
}

func TestLoadRebuildsSketchesOnSourceChange(t *testing.T) {
	for _, sc := range sourceChanges {
		t.Run(sc.name, func(t *testing.T) {
			acrossSourceChange(t, sc.legacy, sc.reopens, sc.budget, func(t *testing.T, orig, loaded *DB) {
				rebuilt := 0
				for _, id := range loaded.IDs() {
					rec, _ := loaded.Record(id)
					if rec.sketch == nil {
						t.Fatalf("%q: sketch missing after the reboot", id)
					}
					// The sketch must equal one built fresh from the
					// reconstruction...
					recon, err := loaded.Reconstruct(id)
					if err != nil {
						t.Fatal(err)
					}
					if want := multires.BuildSketch(recon.Values(), loaded.cfg.SketchBlock); !reflect.DeepEqual(rec.sketch, want) {
						t.Errorf("%q: sketch does not match the reconstruction", id)
					}
					// ...and a raw-derived one differs from it wherever the
					// lossy representation actually moved the signal.
					if before, _ := orig.Record(id); !reflect.DeepEqual(rec.sketch, before.sketch) {
						rebuilt++
					}
				}
				if (rebuilt > 0) != sc.legacy {
					t.Errorf("%d sketches rebuilt, legacy directory = %v", rebuilt, sc.legacy)
				}
			})
		})
	}
}

// TestSaveLoadSketchesDisabled pins the disabled configurations: a
// directory checkpointed with the sketch tier or the feature index off
// reopens with it still off — whatever the reopening process asks for —
// and queries degrade gracefully (uninformative sketch tier, scan plan)
// to the same exact answers.
func TestSaveLoadSketchesDisabled(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"SketchBlock<0", Config{SketchBlock: -1}},
		{"IndexCoeffs<0", Config{IndexCoeffs: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, dir := openTemp(t, tc.cfg)
			ingestFevers(t, db, map[string]float64{"fever": 0})
			loaded := reopen(t, db, dir, Config{})
			rec, _ := loaded.Record("fever")
			if tc.cfg.SketchBlock < 0 && (loaded.Config().SketchBlock > 0 || rec.sketch != nil) {
				t.Errorf("sketches came back enabled: block %d, sketch %v", loaded.Config().SketchBlock, rec.sketch)
			}
			if tc.cfg.IndexCoeffs < 0 && (loaded.findex != nil || rec.feats != nil || loaded.Stats().FeatureIndexed != 0) {
				t.Errorf("feature index came back enabled: %+v", loaded.Stats())
			}
			exemplar, err := loaded.Reconstruct("fever")
			if err != nil {
				t.Fatal(err)
			}
			if got := progressiveAccepts(t, loaded, exemplar, 5); !reflect.DeepEqual(got, []string{"fever"}) {
				t.Errorf("progressive query after a disabled round trip accepted %v", got)
			}
			if m, err := loaded.DistanceQuery(exemplar, dist.Euclidean, 5); err != nil || len(m) != 1 {
				t.Errorf("distance query after a disabled round trip: %+v, %v", m, err)
			}
		})
	}
}

// Sharding is invisible to persistence: a directory reopens under a
// different shard count.
func TestPersistAcrossShardCounts(t *testing.T) {
	db, dir := openTemp(t, Config{Shards: 3})
	if _, err := db.IngestBatch(feverBatch(t, 9)); err != nil {
		t.Fatal(err)
	}
	loaded := reopen(t, db, dir, Config{Shards: 11})
	if a, b := db.IDs(), loaded.IDs(); len(a) != 9 || !reflect.DeepEqual(a, b) {
		t.Fatalf("ids diverge across shard counts: %v vs %v", a, b)
	}
}

// TestGenerationBumpsOnLoad pins where a reboot's generation sequence
// starts: adoption is a mutation, so it counts the adopted records, and
// the next write moves past it. (The serving layer's result cache keys
// freshness on this value alone.)
func TestGenerationBumpsOnLoad(t *testing.T) {
	db, dir := openTemp(t, Config{})
	for i := 0; i < 3; i++ {
		mustIngest(t, db, fmt.Sprintf("s-%d", i), rampSeq(32, float64(i)))
	}
	loaded := reopen(t, db, dir, Config{})
	if g := loaded.Generation(); g != 3 {
		t.Fatalf("reopened generation = %d, want 3 (one per adopted record)", g)
	}
	mustIngest(t, loaded, "s-3", rampSeq(32, 3))
	if g := loaded.Generation(); g != 4 {
		t.Fatalf("generation = %d after the first write on a reopened database, want 4", g)
	}
}
