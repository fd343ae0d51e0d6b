package segment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"seqrep/internal/store"
)

func mustOpen(t *testing.T, dir string, threshold int) *Store {
	t.Helper()
	s, err := Open(dir, NewCache(1<<20), threshold)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func flushN(t *testing.T, s *Store, base, n int, lsn uint64) {
	t.Helper()
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("rec-%05d", base+i)
		entries = append(entries, Entry{ID: id, Payload: []byte("v:" + id)})
	}
	if err := s.Flush(entries, lsn, nil); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestStoreFlushGetOverlay: newest segment wins, tombstones shadow older
// live entries, and the overlay survives a close/reopen.
func TestStoreFlushGetOverlay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1) // compaction off: test the raw overlay
	flushN(t, s, 0, 10, 100)
	// Second flush: overwrite rec-00003, tombstone rec-00005.
	err := s.Flush([]Entry{
		{ID: "rec-00003", Payload: []byte("updated")},
		{ID: "rec-00005", Tombstone: true},
	}, 200, json.RawMessage(`{"v":1}`))
	if err != nil {
		t.Fatalf("Flush 2: %v", err)
	}

	check := func(s *Store, label string) {
		t.Helper()
		p, tomb, ok, err := s.Get("rec-00003")
		if err != nil || !ok || tomb || string(p) != "updated" {
			t.Fatalf("%s: rec-00003 = (%q,%v,%v,%v), want updated", label, p, tomb, ok, err)
		}
		_, tomb, ok, err = s.Get("rec-00005")
		if err != nil || !ok || !tomb {
			t.Fatalf("%s: rec-00005 tombstone not visible (%v,%v,%v)", label, tomb, ok, err)
		}
		p, tomb, ok, err = s.Get("rec-00001")
		if err != nil || !ok || tomb || string(p) != "v:rec-00001" {
			t.Fatalf("%s: rec-00001 = (%q,%v,%v,%v)", label, p, tomb, ok, err)
		}
		if _, _, ok, _ := s.Get("rec-99999"); ok {
			t.Fatalf("%s: absent id found", label)
		}
		if got := s.LSN(); got != 200 {
			t.Fatalf("%s: LSN = %d, want 200", label, got)
		}
		if string(s.Meta()) != `{"v":1}` {
			t.Fatalf("%s: Meta = %q", label, s.Meta())
		}
		// The live listing must exclude the tombstoned id, apply the
		// overwrite and come in id order.
		seen := map[string]string{}
		live := s.Live()
		for i, e := range live {
			if i > 0 && live[i-1].ID >= e.ID {
				t.Fatalf("%s: Live out of id order at %q", label, e.ID)
			}
			p, err := e.Read()
			if err != nil {
				t.Fatalf("%s: Read(%q): %v", label, e.ID, err)
			}
			seen[e.ID] = string(p)
		}
		if len(seen) != 9 {
			t.Fatalf("%s: Live listed %d live records, want 9", label, len(seen))
		}
		if seen["rec-00003"] != "updated" {
			t.Fatalf("%s: Live served stale rec-00003 %q", label, seen["rec-00003"])
		}
		if _, ok := seen["rec-00005"]; ok {
			t.Fatalf("%s: Live served tombstoned rec-00005", label)
		}
	}
	check(s, "live")

	s.Close()
	s2 := mustOpen(t, dir, -1)
	if st := s2.Stats(); st.Segments != 2 || st.Tombstones != 1 {
		t.Fatalf("reopen stats: %+v", st)
	}
	check(s2, "reopened")
}

// TestStoreEmptyFlushAdvancesLSN: a checkpoint with nothing dirty still
// commits a manifest so the WAL can be truncated.
func TestStoreEmptyFlushAdvancesLSN(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if s.HasManifest() {
		t.Fatal("fresh store claims a manifest")
	}
	if err := s.Flush(nil, 4096, nil); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
	if !s.HasManifest() || s.LSN() != 4096 {
		t.Fatalf("after empty flush: hasManifest=%v lsn=%d", s.HasManifest(), s.LSN())
	}
	if st := s.Stats(); st.Segments != 0 {
		t.Fatalf("empty flush created a segment: %+v", st)
	}
	s.Close()
	s2 := mustOpen(t, dir, 0)
	if !s2.HasManifest() || s2.LSN() != 4096 {
		t.Fatalf("reopen after empty flush: hasManifest=%v lsn=%d", s2.HasManifest(), s2.LSN())
	}
}

// TestStoreCompaction: at threshold, segments fold into one, tombstones
// vanish, the merged data is right, and old files are deleted.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	flushN(t, s, 0, 20, 100)
	if ran, err := s.Compact(); err != nil || ran {
		t.Fatalf("Compact below threshold: ran=%v err=%v", ran, err)
	}
	if err := s.Flush([]Entry{{ID: "rec-00002", Tombstone: true}}, 200, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush([]Entry{{ID: "rec-00004", Payload: []byte("new")}}, 300, nil); err != nil {
		t.Fatal(err)
	}
	ran, err := s.Compact()
	if err != nil || !ran {
		t.Fatalf("Compact at threshold: ran=%v err=%v", ran, err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.Tombstones != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if st.Entries != 19 { // 20 - 1 tombstoned
		t.Fatalf("post-compaction entries = %d, want 19", st.Entries)
	}
	if _, _, ok, _ := s.Get("rec-00002"); ok {
		t.Fatal("tombstoned id survived compaction")
	}
	if p, _, ok, _ := s.Get("rec-00004"); !ok || string(p) != "new" {
		t.Fatalf("rec-00004 after compaction: %q ok=%v", p, ok)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.sseg"))
	if len(files) != 1 {
		t.Fatalf("old segment files not deleted: %v", files)
	}
	// Reopen sanity.
	s.Close()
	s2 := mustOpen(t, dir, 3)
	if p, _, ok, _ := s2.Get("rec-00004"); !ok || string(p) != "new" {
		t.Fatalf("rec-00004 after compaction+reopen: %q ok=%v", p, ok)
	}
}

// TestStoreOrphanSweep: a segment file with no manifest entry — the
// crash-between-segment-and-manifest window — is deleted at Open, and
// its sequence number is never reused.
func TestStoreOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	flushN(t, s, 0, 5, 100)
	// Simulate the crash window: write a valid segment file the manifest
	// does not know about, plus temp litter.
	orphan := filepath.Join(dir, segName(99))
	if err := WriteFile(orphan, []Entry{{ID: "zzz", Payload: []byte("orphan")}}, nil); err != nil {
		t.Fatal(err)
	}
	litter := filepath.Join(dir, "MANIFEST.tmp-123")
	if err := os.WriteFile(litter, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, 0)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment survived Open")
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("temp litter survived Open")
	}
	if _, _, ok, _ := s2.Get("zzz"); ok {
		t.Fatal("orphan data visible after sweep")
	}
	// The swept orphan's sequence must not be reused.
	flushN(t, s2, 100, 1, 200)
	if _, err := os.Stat(filepath.Join(dir, segName(100))); err != nil {
		t.Fatalf("nextSeq did not advance past swept orphan: %v", err)
	}
}

// TestStoreFlushFailureRollsBack: an injected segment-write failure must
// leave the committed state (manifest, readers, LSN) untouched, and the
// next flush must succeed.
func TestStoreFlushFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	flushN(t, s, 0, 5, 100)
	s.SetWrapWriter(func(w io.Writer) io.Writer { return store.NewFailAfterWriter(w, 64) })
	err := s.Flush([]Entry{{ID: "zzz", Payload: bytes.Repeat([]byte("x"), 256)}}, 200, nil)
	if !errors.Is(err, store.ErrInjectedWrite) {
		t.Fatalf("Flush with failing writer: %v", err)
	}
	if s.LSN() != 100 {
		t.Fatalf("failed flush advanced LSN to %d", s.LSN())
	}
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("failed flush changed segment set: %+v", st)
	}
	s.SetWrapWriter(nil)
	if err := s.Flush([]Entry{{ID: "zzz", Payload: []byte("ok")}}, 200, nil); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if p, _, ok, _ := s.Get("zzz"); !ok || string(p) != "ok" {
		t.Fatalf("post-recovery read: %q ok=%v", p, ok)
	}
}

// TestCrashCutManifestEveryOffset truncates the MANIFEST at every byte
// offset: Open must fail with ErrCorrupt (or treat 0 bytes as damage
// too — an empty MANIFEST is not a missing one).
func TestCrashCutManifestEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	flushN(t, s, 0, 3, 100)
	s.Close()
	manPath := filepath.Join(dir, ManifestFileName)
	whole, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(manPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, nil, 0)
		if err == nil {
			s2.Close()
			t.Fatalf("manifest cut at %d/%d bytes opened successfully", cut, len(whole))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest cut at %d: err=%v, want ErrCorrupt", cut, err)
		}
	}
	// Control: restore and reopen.
	if err := os.WriteFile(manPath, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, nil, 0)
	if err != nil {
		t.Fatalf("control: restored manifest rejected: %v", err)
	}
	s3.Close()
}

// TestStoreManifestNamesMissingSegment: a manifest referencing a segment
// file that does not exist (deleted out-of-band) must fail the open, not
// silently serve a partial database.
func TestStoreManifestNamesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	flushN(t, s, 0, 3, 100)
	s.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.sseg"))
	if len(files) != 1 {
		t.Fatalf("expected 1 segment, have %v", files)
	}
	os.Remove(files[0])
	if _, err := Open(dir, nil, 0); err == nil {
		t.Fatal("Open succeeded with a manifest-named segment missing")
	}
}
