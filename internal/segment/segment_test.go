package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"seqrep/internal/store"
)

func testEntries(n int) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("seq-%05d", i)
		if i%7 == 3 {
			entries = append(entries, Entry{ID: id, Tombstone: true})
			continue
		}
		payload := bytes.Repeat([]byte{byte(i)}, 16+i%32)
		entries = append(entries, Entry{ID: id, Payload: payload})
	}
	return entries
}

func writeTestSegment(t *testing.T, n int) (string, []Entry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-0000000000000000.sseg")
	entries := testEntries(n)
	if err := WriteFile(path, entries, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, entries
}

// TestSegmentRoundTrip: every entry written comes back byte-identical,
// tombstones resolve without payloads, absent ids miss cleanly.
func TestSegmentRoundTrip(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		var cache *Cache
		if withCache {
			cache = NewCache(1 << 20)
		}
		path, entries := writeTestSegment(t, 100)
		r, err := OpenReader(path, cache)
		if err != nil {
			t.Fatalf("OpenReader(cache=%v): %v", withCache, err)
		}
		defer r.Close()
		if r.Len() != len(entries) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(entries))
		}
		// Two passes so the cached path (second pass hits) is exercised.
		for pass := 0; pass < 2; pass++ {
			for _, e := range entries {
				p, tomb, ok, err := r.Get(e.ID)
				if err != nil || !ok {
					t.Fatalf("Get(%q) pass %d: ok=%v err=%v", e.ID, pass, ok, err)
				}
				if tomb != e.Tombstone {
					t.Fatalf("Get(%q): tombstone=%v, want %v", e.ID, tomb, e.Tombstone)
				}
				if !e.Tombstone && !bytes.Equal(p, e.Payload) {
					t.Fatalf("Get(%q): payload mismatch", e.ID)
				}
			}
		}
		if _, _, ok, err := r.Get("absent"); ok || err != nil {
			t.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
		if withCache {
			if st := cache.Stats(); st.Hits == 0 || st.Entries == 0 {
				t.Fatalf("cache never hit: %+v", st)
			}
		}
	}
}

// TestSegmentWriteRejectsBadInput: unsorted, duplicate, and empty ids
// must be refused before anything lands on disk.
func TestSegmentWriteRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]Entry{
		"unsorted":  {{ID: "b", Payload: []byte("x")}, {ID: "a", Payload: []byte("y")}},
		"duplicate": {{ID: "a", Payload: []byte("x")}, {ID: "a", Payload: []byte("y")}},
		"empty id":  {{ID: "", Payload: []byte("x")}},
	}
	for name, entries := range cases {
		path := filepath.Join(dir, "bad.sseg")
		if err := WriteFile(path, entries, nil); err == nil {
			t.Errorf("%s: WriteFile accepted invalid entries", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: rejected write left a file behind", name)
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(leftovers) != 0 {
		t.Fatalf("rejected writes left temp litter: %v", leftovers)
	}
}

// TestSegmentWriteFailureLeavesNoFile: an injected write failure must
// not commit the segment or leave temp litter — the atomic-rename
// protocol's whole point.
func TestSegmentWriteFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000000.sseg")
	entries := testEntries(50)
	wrap := func(w io.Writer) io.Writer { return store.NewFailAfterWriter(w, 200) }
	err := WriteFile(path, entries, wrap)
	if !errors.Is(err, store.ErrInjectedWrite) {
		t.Fatalf("WriteFile with failing writer: err=%v, want ErrInjectedWrite", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write committed a segment file")
	}
	names, _ := os.ReadDir(dir)
	if len(names) != 0 {
		t.Fatalf("failed write left litter: %v", names)
	}
}

// TestCrashCutSegmentEveryOffset truncates a segment file at every byte
// offset and verifies OpenReader either refuses cleanly (the common
// case) or — never — silently opens with wrong data. Mirrors the WAL's
// cut-at-every-offset suite: an immutable segment has no legal torn
// state, so every cut must surface as an error.
func TestCrashCutSegmentEveryOffset(t *testing.T) {
	path, _ := writeTestSegment(t, 20)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for cut := 0; cut < len(whole); cut++ {
		cutPath := filepath.Join(dir, "cut.sseg")
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(cutPath, nil)
		if err == nil {
			r.Close()
			t.Fatalf("cut at %d/%d bytes opened successfully", cut, len(whole))
		}
	}
	// Control: the whole file opens.
	cutPath := filepath.Join(dir, "cut.sseg")
	if err := os.WriteFile(cutPath, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(cutPath, nil)
	if err != nil {
		t.Fatalf("control: whole file rejected: %v", err)
	}
	r.Close()
}

// TestCrashCutSegmentBitFlips flips one byte at a spread of offsets and
// verifies the damage is always detected — at open (header, index,
// bloom, trailer) or at first payload read (entry frames).
func TestCrashCutSegmentBitFlips(t *testing.T) {
	path, entries := writeTestSegment(t, 20)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for off := 0; off < len(whole); off += 7 {
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x40
		mutPath := filepath.Join(dir, "flip.sseg")
		if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(mutPath, nil)
		if err != nil {
			continue // detected at open: good
		}
		// Opened — every payload read must either succeed with the right
		// bytes or report corruption. A flipped bit in an entry frame is
		// caught by the frame CRC on first read.
		clean := true
		for _, e := range entries {
			p, tomb, ok, gerr := r.Get(e.ID)
			if gerr != nil {
				clean = false
				break
			}
			if !ok || tomb != e.Tombstone || (!e.Tombstone && !bytes.Equal(p, e.Payload)) {
				r.Close()
				t.Fatalf("flip at %d: wrong data served without error", off)
			}
		}
		r.Close()
		_ = clean
	}
}

// TestSegmentEmptyAndSingle: degenerate sizes survive the round trip.
func TestSegmentEmptyAndSingle(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1} {
		path := filepath.Join(dir, fmt.Sprintf("seg-%016x.sseg", n))
		entries := testEntries(n)
		if err := WriteFile(path, entries, nil); err != nil {
			t.Fatalf("WriteFile(n=%d): %v", n, err)
		}
		r, err := OpenReader(path, nil)
		if err != nil {
			t.Fatalf("OpenReader(n=%d): %v", n, err)
		}
		if r.Len() != n {
			t.Fatalf("Len = %d, want %d", r.Len(), n)
		}
		r.Close()
	}
}

// TestLastFrameBoundedByIndex: the last entry's frame ends where the
// index begins, so a length field claiming bytes of the index is an
// implausible length, refused before any CRC is computed, by the cached
// lookup and the boot read alike.
func TestLastFrameBoundedByIndex(t *testing.T) {
	path, entries := writeTestSegment(t, 5)
	last := entries[len(entries)-1]
	if last.Tombstone {
		t.Fatal("fixture: the last entry must carry a payload")
	}
	r, err := OpenReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, indexOff := r.offs[len(r.offs)-1], r.indexOff
	r.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(whole[off+4:], uint32(indexOff-off-frameHead+1))
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = OpenReader(path, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, _, _, gerr := r.Get(last.ID)
	live := liveEntries([]*Reader{r})
	_, rerr := live[len(live)-1].Read()
	for _, err := range []error{gerr, rerr} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible body length") {
			t.Fatalf("last frame reaching into the index: %v, want ErrCorrupt for an implausible length", err)
		}
	}
}

// TestLiveReadBypassesCache: boot reads every live payload once, so the
// boot read leaves the shared cache as it found it.
func TestLiveReadBypassesCache(t *testing.T) {
	s := mustOpen(t, t.TempDir(), -1)
	flushN(t, s, 0, 20, 1)
	for _, e := range s.Live() {
		if _, err := e.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats().Cache; st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("boot reads touched the cache: %+v", st)
	}
}

// segmentBoundaries walks a valid segment file and returns the offset at
// which each field ends: header fields, every frame's head and body
// fields, and the trailer's.
func segmentBoundaries(file []byte) []int {
	var ends []int
	off := 0
	field := func(n int) { off += n; ends = append(ends, off) }
	field(4) // magic
	count := int(binary.LittleEndian.Uint32(file[off:]))
	field(4)
	for f := 0; f < count+2; f++ { // entries, index, bloom
		blen := int(binary.LittleEndian.Uint32(file[off+4:]))
		field(4) // crc
		field(4) // body length
		if f < count {
			idLen := int(binary.LittleEndian.Uint16(file[off+1:]))
			field(1) // flags
			field(2) // id length
			field(idLen)
			field(blen - 3 - idLen) // payload
			continue
		}
		field(blen)
	}
	for _, n := range []int{8, 8, 4, 4, 4} { // trailer
		field(n)
	}
	return ends
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSegmentFile: a mutated three-entry segment (one entry a
// tombstone) either fails to open, or serves every entry, through the
// cached lookup and the boot read, as the written payload or
// ErrCorrupt. Nothing panics, and no read allocates more than the file
// holds, whatever its length fields claim.
func FuzzSegmentFile(f *testing.F) {
	entries := []Entry{
		{ID: "alpha", Payload: bytes.Repeat([]byte("a"), 1024)},
		{ID: "beta", Tombstone: true},
		{ID: "gamma", Payload: bytes.Repeat([]byte("g"), 1024)},
	}
	path := filepath.Join(f.TempDir(), "seg-0000000000000000.sseg")
	if err := WriteFile(path, entries, nil); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	for _, end := range segmentBoundaries(whole) {
		f.Add(whole[:end])
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.sseg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path, nil)
		if err != nil {
			return
		}
		defer r.Close()
		budget := uint64(len(file))
		served := func(how string, e Entry, p []byte, err error, alloc uint64) {
			t.Helper()
			if alloc > budget {
				t.Fatalf("%s(%q) allocated %d bytes for a %d-byte file", how, e.ID, alloc, budget)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s(%q): %v, want ErrCorrupt", how, e.ID, err)
			}
			if err == nil && !bytes.Equal(p, e.Payload) {
				t.Fatalf("%s(%q) served wrong bytes without an error", how, e.ID)
			}
		}
		live := map[string]LiveEntry{}
		for _, le := range liveEntries([]*Reader{r}) {
			live[le.ID] = le
		}
		for _, e := range entries {
			var (
				p         []byte
				tomb, ok  bool
				err       error
				_, listed = live[e.ID]
			)
			alloc := allocated(func() { p, tomb, ok, err = r.Get(e.ID) })
			if err == nil && (!ok || tomb != e.Tombstone) || listed == e.Tombstone {
				t.Fatalf("%q: found %v, tombstone %v, listed live %v; want tombstone %v", e.ID, ok, tomb, listed, e.Tombstone)
			}
			served("Get", e, p, err, alloc)
			if listed {
				alloc = allocated(func() { p, err = live[e.ID].Read() })
				served("Read", e, p, err, alloc)
			}
		}
	})
}
