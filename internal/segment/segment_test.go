package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	_, rerr := ReadLive(nil, live[len(live)-1:], make([][]byte, 1))
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
	live := s.Live()
	if _, err := ReadLive(nil, live, make([][]byte, len(live))); err != nil {
		t.Fatal(err)
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

// allocated reports the heap bytes fn allocates. The counter is
// process-wide, and when a system call blocks, the runtime may start an
// OS thread, whose bookkeeping (≈ 5 KiB) the counter then charges to fn.
// A measurement during which the thread count rose is taken again, so
// fn must do the same work each time; any other measurement stands.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	for range 5 {
		threads, _ := runtime.ThreadCreateProfile(nil)
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n, _ := runtime.ThreadCreateProfile(nil); n == threads {
			break
		}
	}
	return after.TotalAlloc - before.TotalAlloc
}

// withIndexOffsets returns a copy of the segment file whose index names
// offs as its frame offsets, the index frame's CRC recomputed: a file
// only a writer that misplaced its frames could produce.
func withIndexOffsets(file []byte, offs []uint64) []byte {
	out := bytes.Clone(file)
	tr := out[len(out)-trailerSize:]
	indexOff, bloomOff := binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	body := out[indexOff+frameHead : bloomOff]
	for i, p := 0, 0; p < len(body); i++ {
		p += 3 + int(binary.LittleEndian.Uint16(body[p+1:]))
		binary.LittleEndian.PutUint64(body[p:], offs[i])
		p += 8
	}
	binary.LittleEndian.PutUint32(out[indexOff:], crc32.Checksum(body, crcTable))
	return out
}

// fuzzEntries is FuzzSegmentFile's segment: three entries, one a
// tombstone.
var fuzzEntries = []Entry{
	{ID: "alpha", Payload: bytes.Repeat([]byte("a"), 1024)},
	{ID: "beta", Tombstone: true},
	{ID: "gamma", Payload: bytes.Repeat([]byte("g"), 1024)},
}

// unorderedOffsets are index offsets for fuzzEntries that do not
// strictly ascend, given the written ones: two entries swapped, and two
// naming one frame.
func unorderedOffsets(offs []int64) map[string][]uint64 {
	o := func(i int) uint64 { return uint64(offs[i]) }
	return map[string][]uint64{
		"descending":  {o(0), o(2), o(1)},
		"overlapping": {o(0), o(0), o(2)},
	}
}

// TestOpenReaderRejectsUnorderedOffsets: a run of adjacent entries is one
// byte range only because frame offsets ascend with the ids, so an index
// whose offsets do not strictly ascend fails the open.
func TestOpenReaderRejectsUnorderedOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-0000000000000000.sseg")
	if err := WriteFile(path, fuzzEntries, nil); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	offs := r.offs
	r.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range unorderedOffsets(offs) {
		if err := os.WriteFile(path, withIndexOffsets(whole, bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenReader(path, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "offsets not strictly ascending") {
			if err == nil {
				r.Close()
			}
			t.Errorf("%s offsets %v: OpenReader = %v, want ErrCorrupt for unordered offsets", name, bad, err)
		}
	}
}

// TestReadLiveRuns: over a tier of three segments whose ids overlap,
// with tombstones, ReadLive serves every window of the live listing as
// Get serves it, and a compacted tier's listing is a single run.
func TestReadLiveRuns(t *testing.T) {
	s := mustOpen(t, t.TempDir(), -1)
	flushN(t, s, 0, 40, 1)
	flushN(t, s, 10, 20, 2)
	entries := []Entry{{ID: "rec-00003", Tombstone: true}, {ID: "rec-00015", Payload: []byte("updated")}, {ID: "rec-00031", Tombstone: true}}
	if err := s.Flush(entries, 3, nil); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		live := s.Live()
		var buf []byte
		for _, window := range []int{1, 3, 7, len(live)} {
			payloads := make([][]byte, window)
			for lo := 0; lo < len(live); lo += window {
				chunk := live[lo:min(lo+window, len(live))]
				var err error
				if buf, err = ReadLive(buf, chunk, payloads); err != nil {
					t.Fatalf("%s: ReadLive: %v", label, err)
				}
				for k, e := range chunk {
					want, _, _, err := s.Get(e.ID)
					if err != nil || !bytes.Equal(payloads[k], want) {
						t.Fatalf("%s: window %d: %q served %q, Get %q (%v)", label, window, e.ID, payloads[k], want, err)
					}
				}
			}
		}
	}
	check("three segments")
	s.SetCompactThreshold(2)
	if ok, err := s.Compact(); !ok || err != nil {
		t.Fatalf("Compact = %v, %v", ok, err)
	}
	check("compacted")
	if live := s.Live(); runEnd(live, 0) != len(live) {
		t.Fatalf("a compacted tier's %d live entries split into runs at %d", len(live), runEnd(live, 0))
	}
}

// FuzzSegmentFile: a mutated three-entry segment (one entry a
// tombstone) either fails to open, or serves every entry, through the
// cached lookup and the boot read of the whole live listing, as the
// written payload or ErrCorrupt. Nothing panics, and no read allocates
// more than the file holds, whatever its length fields claim. The
// seeds include indexes whose offsets descend or name one frame twice,
// which the open rejects.
func FuzzSegmentFile(f *testing.F) {
	entries := fuzzEntries
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
	r, err := OpenReader(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, bad := range unorderedOffsets(r.offs) {
		f.Add(withIndexOffsets(whole, bad))
	}
	r.Close()
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
		live := liveEntries([]*Reader{r})
		listed := map[string]bool{}
		for _, le := range live {
			listed[le.ID] = true
		}
		written := map[string]Entry{}
		for _, e := range entries {
			var (
				p        []byte
				tomb, ok bool
				err      error
			)
			written[e.ID] = e
			alloc := allocated(func() { p, tomb, ok, err = r.Get(e.ID) })
			if err == nil && (!ok || tomb != e.Tombstone) || listed[e.ID] == e.Tombstone {
				t.Fatalf("%q: found %v, tombstone %v, listed live %v; want tombstone %v", e.ID, ok, tomb, listed[e.ID], e.Tombstone)
			}
			served("Get", e, p, err, alloc)
		}
		// Boot hands the read a buffer it reuses; given one the file's
		// size, the read fits in it whatever the length fields claim. The
		// whole listing is one read, as boot makes it; then each entry is
		// read alone, so a frame that fails does not hide the bytes served
		// for the entries before it.
		buf := make([]byte, 0, len(file))
		payloads := make([][]byte, len(live))
		alloc := allocated(func() { _, err = ReadLive(buf, live, payloads) })
		for k, le := range live {
			e, ok := written[le.ID]
			if !ok {
				t.Fatalf("listed %q, which was never written", le.ID)
			}
			served("ReadLive", e, payloads[k], err, alloc)
		}
		for k, le := range live {
			one := make([][]byte, 1)
			alloc := allocated(func() { _, err = ReadLive(buf, live[k:k+1], one) })
			served("ReadLive one", written[le.ID], one[0], err, alloc)
		}
	})
}
