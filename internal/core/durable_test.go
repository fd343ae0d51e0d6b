package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seqrep/internal/segment"
	"seqrep/internal/seq"
	"seqrep/internal/store"
)

// durSeq builds a small but non-trivial sequence (two bumps over a
// baseline) that exercises the full ingest pipeline.
func durSeq(seed int) seq.Sequence {
	s := make(seq.Sequence, 48)
	for i := range s {
		v := 98.0 + 0.1*float64(seed%7)
		v += 2.5 * math.Exp(-math.Pow(float64(i)-12, 2)/8)
		v += 1.5 * math.Exp(-math.Pow(float64(i)-34, 2)/6)
		s[i] = seq.Point{T: float64(i), V: v}
	}
	return s
}

func mustOpenDir(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db
}

// dirOf exposes an OpenDir database's storage for white-box tests.
func dirOf(db *DB) *dirStore { return db.storage.(*dirStore) }

func TestOpenDirFreshReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	for i := 0; i < 3; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	if st, ok := db.WALStats(); !ok || st.Records != 3 {
		t.Fatalf("WALStats = %+v, %v; want 3 records", st, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// No checkpoint ever ran: boot state comes entirely from the log.
	if _, err := os.Stat(filepath.Join(dir, SegmentsDirName, segment.ManifestFileName)); !os.IsNotExist(err) {
		t.Fatalf("manifest exists before any checkpoint: %v", err)
	}
	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 3 {
		t.Fatalf("recovered Len = %d, want 3", db2.Len())
	}
	rec := db2.Recovery()
	if rec.Replayed != 3 || rec.Applied != 3 || rec.Failed != 0 {
		t.Fatalf("Recovery = %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if _, ok := db2.Record(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("r%d missing after recovery", i)
		}
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	for i := 0; i < 3; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st, ok := db.WALStats()
	if !ok || st.Records != 0 {
		t.Fatalf("after checkpoint WALStats = %+v; want empty log", st)
	}
	if st.LastCheckpoint.IsZero() {
		t.Fatal("LastCheckpoint not stamped")
	}
	// Post-checkpoint mutations land in the (now short) log.
	mustIngest(t, db, "r3", durSeq(3))
	mustIngest(t, db, "r4", durSeq(4))
	if err := db.Remove("r0"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 4 {
		t.Fatalf("recovered Len = %d, want 4", db2.Len())
	}
	rec := db2.Recovery()
	if rec.Replayed != 3 || rec.Applied != 3 {
		t.Fatalf("Recovery = %+v; want exactly the 3 post-checkpoint records replayed", rec)
	}
	if _, ok := db2.Record("r0"); ok {
		t.Fatal("r0 resurrected: the replayed remove was lost")
	}
	for _, id := range []string{"r1", "r2", "r3", "r4"} {
		if _, ok := db2.Record(id); !ok {
			t.Fatalf("%s missing after recovery", id)
		}
	}
	if st, _ := db2.WALStats(); st.LastCheckpoint.IsZero() {
		t.Fatal("boot did not adopt the snapshot time as LastCheckpoint")
	}
}

// crashWindowFlush reproduces what a checkpoint that died between its
// manifest commit and its log truncation leaves on disk: the dirty
// records land in the segment tier while the log still holds their
// operations. Keeping the old manifest LSN mirrors the real window too —
// boot's covered-segment reclaim must not cut the still-replaying
// records.
func crashWindowFlush(t *testing.T, db *DB) {
	t.Helper()
	d := dirOf(db)
	entries, _, err := d.encodeDirty(d.swapDirty())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(d.manifestMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.segs.Flush(entries, d.segs.LSN(), meta); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIdempotentOverlap simulates a crash in the checkpoint window
// after the flush committed but before the log was truncated: every log
// record is also in the segment tier, and replay must skip them all — no
// duplicate ingests.
func TestReplayIdempotentOverlap(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	for i := 0; i < 3; i++ {
		mustIngest(t, db, fmt.Sprintf("r%d", i), durSeq(i))
	}
	crashWindowFlush(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 3 {
		t.Fatalf("recovered Len = %d, want 3", db2.Len())
	}
	rec := db2.Recovery()
	if rec.Replayed != 3 || rec.SkippedDuplicate != 3 || rec.Applied != 0 {
		t.Fatalf("Recovery = %+v; want all 3 skipped as duplicates", rec)
	}
}

// TestReplaySkipsRemoveOfAbsent covers the other overlap direction: the
// segment tier already reflects a remove that is still in the log (a
// checkpoint that committed its flush but never truncated).
func TestReplaySkipsRemoveOfAbsent(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	mustIngest(t, db, "victim", durSeq(1))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("victim"); err != nil {
		t.Fatal(err)
	}
	// The tombstone lands in the segment tier, the log still holds the
	// remove.
	crashWindowFlush(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 0 {
		t.Fatalf("recovered Len = %d, want 0", db2.Len())
	}
	rec := db2.Recovery()
	if rec.SkippedMissing != 1 || rec.Applied != 0 {
		t.Fatalf("Recovery = %+v; want the remove skipped as missing", rec)
	}
}

// TestRecoverTornWALTail: garbage appended to the live segment (what a
// crash mid-append leaves) must not cost any acknowledged record.
func TestRecoverTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	mustIngest(t, db, "a", durSeq(1))
	mustIngest(t, db, "b", durSeq(2))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, WALDirName, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", db2.Len())
	}
	// And the recovered database keeps writing durably.
	mustIngest(t, db2, "c", durSeq(3))
}

// TestCrashCutPrefixes cuts the WAL at a spread of byte offsets —
// including mid-frame — and requires every prefix to boot to exactly the
// records whose frames are wholly before the cut, with nothing
// duplicated and nothing partial. (The exhaustive every-offset sweep
// lives in internal/wal; this asserts the same property end-to-end
// through OpenDir.) The Batch arm logs one multi-item IngestBatch after
// records acknowledged one by one and cuts at every byte of the batch's
// frames: a torn batch must replay as a prefix of itself, in batch
// order, on top of everything acknowledged before it.
func TestCrashCutPrefixes(t *testing.T) {
	for _, arm := range []struct {
		name       string
		pre, batch int // records ingested one by one, then in one batch
		seq        func(int) seq.Sequence
		stride     int // bytes between two cuts
	}{
		{"OneByOne", 3, 0, durSeq, 11},
		{"Batch", 2, 5, func(i int) seq.Sequence { return rampSeq(6, float64(i)) }, 1},
	} {
		t.Run(arm.name, func(t *testing.T) {
			src := t.TempDir()
			db := mustOpenDir(t, src)
			var ids []string
			for i := 0; i < arm.pre; i++ {
				ids = append(ids, fmt.Sprintf("r%d", i))
				mustIngest(t, db, ids[i], arm.seq(i))
			}
			if arm.batch > 0 {
				items := make([]BatchItem, arm.batch)
				for i := range items {
					items[i] = BatchItem{ID: fmt.Sprintf("b%d", i), Seq: arm.seq(arm.pre + i)}
					ids = append(ids, items[i].ID)
				}
				if _, err := db.IngestBatch(items); err != nil {
					t.Fatal(err)
				}
			}
			n := len(ids)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(src, WALDirName, "wal-*.log"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("wal segments: %v, %v", segs, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			segName := filepath.Base(segs[0])

			// Walk the frames to find each record's end offset (13-byte
			// segment header, then crc u32 | blen u32 | body frames).
			var whole []int
			off := 13
			for off < len(data) {
				blen := int(binary.LittleEndian.Uint32(data[off+4:]))
				off += 8 + blen
				whole = append(whole, off)
			}
			if len(whole) != n || off != len(data) {
				t.Fatalf("frame walk found %d records ending at %d (file %d bytes)", len(whole), off, len(data))
			}

			first := 0 // the one-by-one arm cuts the whole file
			if arm.batch > 0 {
				first = whole[arm.pre-1]
			}
			for cut := first; cut <= len(data); cut += arm.stride {
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, WALDirName), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, WALDirName, segName), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				dbc := mustOpenDir(t, dir)
				want := 0
				for want < n && whole[want] <= cut {
					want++
				}
				if got := dbc.IDs(); len(got) != want || dbc.Len() != want {
					t.Fatalf("cut %d: %d ids (%v), Len %d; want %d", cut, len(got), got, dbc.Len(), want)
				}
				for i, id := range ids {
					if _, ok := dbc.Record(id); ok != (i < want) {
						t.Fatalf("cut %d: %s present = %v, want the first %d records", cut, id, ok, want)
					}
				}
				dbc.Close()
			}
		})
	}
}

// TestConcurrentIngestAndCheckpoint races writers against checkpoints
// (run under -race in CI): every acknowledged write must survive the
// final reboot, however the checkpoint windows interleaved.
func TestConcurrentIngestAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	const (
		writers = 4
		each    = 6
	)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []string
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%d-%d", g, i)
				if err := db.Ingest(id, durSeq(g*each+i)); err != nil {
					t.Errorf("ingest %s: %v", id, err)
					return
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(g)
	}
	ckptDone := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = db.Checkpoint()
		}
		ckptDone <- err
	}()
	wg.Wait()
	if err := <-ckptDone; err != nil {
		t.Fatalf("concurrent checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != len(acked) {
		t.Fatalf("recovered Len = %d, want %d", db2.Len(), len(acked))
	}
	for _, id := range acked {
		if _, ok := db2.Record(id); !ok {
			t.Fatalf("acknowledged %s lost across checkpointed reboot", id)
		}
	}
}

func TestWALCodecRoundTrip(t *testing.T) {
	s := durSeq(5)
	payload, err := encodeWALIngest("some-id", s)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := decodeWALIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != "some-id" || len(got) != len(s) {
		t.Fatalf("decoded id %q, %d samples", id, len(got))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("sample %d: %+v != %+v", i, got[i], s[i])
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeWALIngest(payload[:cut]); err == nil && cut < len(payload) {
			t.Fatalf("truncated ingest payload (%d of %d bytes) decoded", cut, len(payload))
		}
	}

	rp, err := encodeWALRemove("gone")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := decodeWALRemove(rp)
	if err != nil || rid != "gone" {
		t.Fatalf("remove round trip: %q, %v", rid, err)
	}
	if _, err := decodeWALRemove(rp[:1]); err == nil {
		t.Fatal("truncated remove payload decoded")
	}
}

// TestDurableValidation pins what every storage entry point answers on
// the volatile implementation (New) and on a closed directory-backed one
// (OpenDir): the contract the storage seam keeps for each.
func TestDurableValidation(t *testing.T) {
	if _, err := OpenDir("", Config{}); err == nil {
		t.Fatal("OpenDir(\"\") succeeded")
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *DB
		// dir: the directory implementation answers — a healthy Recover
		// is a no-op and the log and tier stats exist (closed or not).
		dir bool
	}{
		{"volatile", func(t *testing.T) *DB { return mustDB(t, Config{}) }, false},
		{"closed dir", func(t *testing.T) *DB {
			db := mustOpenDir(t, t.TempDir())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			return db
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.open(t)
			if err := db.Checkpoint(); err == nil {
				t.Error("Checkpoint succeeded")
			}
			if err := db.Recover(); (err != nil) == tc.dir {
				t.Errorf("Recover = %v, want error %v", err, !tc.dir)
			}
			if _, ok := db.WALStats(); ok != tc.dir {
				t.Errorf("WALStats ok = %v, want %v", ok, tc.dir)
			}
			if _, ok := db.SegmentStats(); ok != tc.dir {
				t.Errorf("SegmentStats ok = %v, want %v", ok, tc.dir)
			}
			if _, ok := db.ResidencyStats(); ok {
				t.Error("ResidencyStats ok without a memory budget")
			}
			if st := db.DegradedStatus(); st != (DegradedStatus{}) {
				t.Errorf("DegradedStatus = %+v, want zero", st)
			}
			if rs := db.Recovery(); rs != (RecoveryStats{}) {
				t.Errorf("Recovery = %+v, want zero", rs)
			}
			boom := func() error { return errors.New("injected") }
			db.SetWALFault(boom, boom)
			db.WrapCheckpointWriter(func(w io.Writer) io.Writer { return store.NewFailAfterWriter(w, 0) })
			db.SetSegmentReadFault(boom)
			if !tc.dir {
				// The hooks had nothing to arm: writes and reads still work.
				mustIngest(t, db, "a", durSeq(1))
				if _, err := db.Representation("a"); err != nil {
					t.Errorf("Representation after armed hooks: %v", err)
				}
				if st := db.DegradedStatus(); st.Degraded {
					t.Error("a WAL fault hook degraded a volatile database")
				}
			}
			for i := 0; i < 2; i++ {
				if err := db.Close(); err != nil {
					t.Errorf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}

// TestWritesFailAfterClose: a closed durable database must refuse writes
// rather than acknowledge them without logging.
func TestWritesFailAfterClose(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir)
	mustIngest(t, db, "a", durSeq(1))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("b", durSeq(2)); err == nil {
		t.Fatal("Ingest after Close acknowledged")
	}
	if err := db.Remove("a"); err == nil {
		t.Fatal("Remove after Close acknowledged")
	}
	// The unacknowledged post-Close writes must not surface at boot.
	db2 := mustOpenDir(t, dir)
	defer db2.Close()
	if db2.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1", db2.Len())
	}
	if _, ok := db2.Record("a"); !ok {
		t.Fatal("a missing")
	}
}

// TestRemoveInvisibleUntilDurable pins the write-ahead ordering of
// Remove: the record must stay observable until the remove's log record
// is fsync-durable. Were it dropped from its shard first, a checkpoint
// in that window would snapshot the state without the record and
// truncate the covering ingest while no remove was yet logged — a crash
// then (or a failed append) loses an acknowledged ingest for a removal
// that was never acknowledged.
func TestRemoveInvisibleUntilDurable(t *testing.T) {
	db := mustOpenDir(t, t.TempDir())
	defer db.Close()
	mustIngest(t, db, "x", durSeq(1))

	// Hold the checkpoint lock: Remove's append→unlink window takes it
	// for reading, so the removal parks right before its WAL append —
	// exactly where a crash or checkpoint could interleave.
	dirOf(db).ckptMu.Lock()
	done := make(chan error, 1)
	go func() { done <- db.Remove("x") }()

	sh := db.shardOf("x")
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.RLock()
		_, parked := sh.pending["x"]
		sh.mu.RUnlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Remove never reached its write-ahead append")
		}
		time.Sleep(time.Millisecond)
	}
	// The removal is in flight but not yet durable: the record must
	// still be observable, and the in-flight removal must hold the id —
	// a duplicate Remove linearizes behind it and sees the id as gone.
	if _, ok := db.Record("x"); !ok {
		t.Fatal("record vanished before its remove was durable")
	}
	if err := db.Remove("x"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("concurrent duplicate Remove: %v, want ErrUnknownID", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Remove returned while the checkpoint lock was held: %v", err)
	default:
	}

	dirOf(db).ckptMu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := db.Record("x"); ok {
		t.Fatal("record still observable after Remove returned")
	}
	// The id is free again: a fresh ingest must succeed.
	mustIngest(t, db, "x", durSeq(2))
}

// TestBootEqualsLive: a directory built by batches, removes, a re-ingest
// under a removed id and checkpoints (several segments, more than three
// boot chunks), with a log tail holding batched ingests, ingest a →
// remove a → ingest a, and operations the tier already reflects, boots
// into the database that wrote it, whatever the worker count and with a
// memory budget or without: the same catalogue, byte-identical
// representations, and the recovery counts of replaying one record at a
// time.
func TestBootEqualsLive(t *testing.T) {
	src := t.TempDir()
	db, err := OpenDir(src, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := featureCorpus(t, rand.New(rand.NewSource(36)), 1300)
	for _, batch := range [][]BatchItem{corpus[:350], corpus[350:700], corpus[700:1000]} {
		if _, err := db.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, it := range batch[:10] {
			if err := db.Remove(it.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Ingest(corpus[0].ID, corpus[1].Seq); err != nil { // a removed id, re-ingested
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The tail. Its first two operations also reach the tier, as after a
	// checkpoint that died before truncating the log.
	mustIngest(t, db, "tail-dup", corpus[1000].Seq)
	if err := db.Remove(corpus[300].ID); err != nil {
		t.Fatal(err)
	}
	crashWindowFlush(t, db)
	if _, err := db.IngestBatch(corpus[1001:1300]); err != nil { // more than one bootChunk
		t.Fatal(err)
	}
	mustIngest(t, db, "tail-a", corpus[2].Seq)
	if err := db.Remove("tail-a"); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "tail-a", corpus[3].Seq)

	want := RecoveryStats{Replayed: 304, Applied: 302, SkippedDuplicate: 1, SkippedMissing: 1}
	var stats []RecoveryStats
	var gens []uint64
	for _, cfg := range []Config{{Workers: 1}, {Workers: 4}, {Workers: 1, MemoryBudget: 1 << 20}, {Workers: 4, MemoryBudget: 1 << 20}} {
		workers := cfg.Workers
		dir := filepath.Join(t.TempDir(), "crash")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		booted, err := OpenDir(dir, cfg)
		if err != nil {
			t.Fatalf("Workers %d, budget %d: %v", workers, cfg.MemoryBudget, err)
		}
		defer booted.Close()
		if st, _ := booted.SegmentStats(); st.Segments < 3 || len(dirOf(booted).segs.Live()) <= 3*bootChunk {
			t.Fatalf("Workers %d: %d segments, %d live in the tier; want at least 3 segments and more than 3 boot chunks", workers, st.Segments, len(dirOf(booted).segs.Live()))
		}
		if rs, _ := booted.ResidencyStats(); cfg.MemoryBudget > 0 && rs.Evictions == 0 {
			t.Fatalf("Workers %d: a boot under a %d-byte budget evicted nothing", workers, cfg.MemoryBudget)
		}
		assertSameCatalogue(t, booted, db)
		for _, id := range db.IDs() {
			w, err := db.Representation(id)
			if err != nil {
				t.Fatal(err)
			}
			g, err := booted.Representation(id)
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := w.MarshalBinary()
			gb, _ := g.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("Workers %d: %s representation differs", workers, id)
			}
		}
		if rs := booted.Recovery(); rs != want {
			t.Fatalf("Workers %d: Recovery = %+v, want %+v", workers, rs, want)
		}
		stats = append(stats, booted.Recovery())
		gens = append(gens, booted.Generation())
	}
	for i := range stats {
		if stats[i] != stats[0] || gens[i] != gens[0] {
			t.Fatalf("boots differ by worker count or budget: Recovery %+v vs %+v, Generation %d vs %d", stats[i], stats[0], gens[i], gens[0])
		}
	}
}

// TestCheckpointWorkersDeterministic: the checkpoint encodes on the
// worker pool, each payload into its id's slot, so one database state
// checkpointed at 1 and at 4 workers writes byte-identical segment files
// — live payloads and tombstones, in id order.
func TestCheckpointWorkersDeterministic(t *testing.T) {
	src := t.TempDir()
	db, err := OpenDir(src, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := featureCorpus(t, rand.New(rand.NewSource(37)), 600)
	if _, err := db.IngestBatch(corpus[:300]); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The dirty set the checkpoints below flush: new records, records
	// removed since the last checkpoint, and one removed and re-ingested.
	if _, err := db.IngestBatch(corpus[300:]); err != nil {
		t.Fatal(err)
	}
	for _, it := range append(corpus[:1:1], append(corpus[290:300], corpus[590:]...)...) {
		if err := db.Remove(it.ID); err != nil {
			t.Fatal(err)
		}
	}
	mustIngest(t, db, corpus[0].ID, corpus[1].Seq)

	var want map[string][]byte
	for _, workers := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "state")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		booted, err := OpenDir(dir, Config{Workers: workers})
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if err := booted.Checkpoint(); err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if err := booted.Close(); err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		entries, err := os.ReadDir(filepath.Join(dir, SegmentsDirName))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, err := os.Stat(filepath.Join(src, SegmentsDirName, e.Name())); err == nil {
				continue // the manifest, or a segment the source already had
			}
			b, err := os.ReadFile(filepath.Join(dir, SegmentsDirName, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		if len(files) == 0 {
			t.Fatalf("Workers %d: the checkpoint wrote no segment file", workers)
		}
		if want == nil {
			want = files
			continue
		}
		if len(files) != len(want) {
			t.Fatalf("Workers %d: %d segment files, want %d", workers, len(files), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(files[name], b) {
				t.Errorf("Workers %d: segment file %s differs from the 1-worker checkpoint's", workers, name)
			}
		}
	}
}

// FuzzWALPayloads: replay's payload decoders never panic on arbitrary
// bytes, never allocate past a small multiple of their length, and
// whatever they accept re-encodes to exactly the bytes they were given.
// Both decoders see every input; the seeds cut a valid ingest and a valid
// remove payload at every field boundary.
func FuzzWALPayloads(f *testing.F) {
	ingest, err := encodeWALIngest("rec-7", durSeq(7)[:3])
	if err != nil {
		f.Fatal(err)
	}
	remove, err := encodeWALRemove("rec-7")
	if err != nil {
		f.Fatal(err)
	}
	idEnd := 2 + len("rec-7")
	for _, end := range []int{0, 1, 2, idEnd, idEnd + 4} {
		f.Add(ingest[:end])
	}
	for end := idEnd + 4 + 8; end <= len(ingest); end += 8 { // every t and v
		f.Add(ingest[:end])
	}
	f.Add(remove)
	f.Add(append(bytes.Clone(remove), 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			id  string
			s   seq.Sequence
			err error
		)
		if got := allocated(func() { id, s, err = decodeWALIngest(payload) }); got > allocBudget(len(payload)) {
			t.Fatalf("ingest decode of %d bytes allocated %d, budget %d", len(payload), got, allocBudget(len(payload)))
		}
		if err == nil {
			again, err := encodeWALIngest(id, s)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted ingest payload re-encodes differently (err %v):\n in  %x\n out %x", err, payload, again)
			}
		}
		if got := allocated(func() { id, err = decodeWALRemove(payload) }); got > allocBudget(len(payload)) {
			t.Fatalf("remove decode of %d bytes allocated %d, budget %d", len(payload), got, allocBudget(len(payload)))
		}
		if err == nil {
			again, err := encodeWALRemove(id)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted remove payload re-encodes differently (err %v):\n in  %x\n out %x", err, payload, again)
			}
		}
	})
}
