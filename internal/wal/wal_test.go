package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// appendAll logs each payload as op=1, gen=index and returns the LSNs.
func appendAll(t *testing.T, w *WAL, payloads [][]byte) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(payloads))
	for i, p := range payloads {
		lsn, err := w.Append(1, uint64(i), p)
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		lsns[i] = lsn
	}
	return lsns
}

// collect replays w into a slice.
func collect(t *testing.T, w *WAL) []Record {
	t.Helper()
	var recs []Record
	if err := w.Replay(func(r Record) error {
		// Payload aliases the replay buffer per record; copy for keeping.
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello, wal"),
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	lsns := appendAll(t, w, payloads)
	for i, lsn := range lsns {
		if want := uint64(i + 1); lsn != want {
			t.Errorf("LSN[%d] = %d, want %d", i, lsn, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := collect(t, w2)
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Op != 1 || r.Gen != uint64(i) || r.LSN != uint64(i+1) {
			t.Errorf("record %d = op %d gen %d lsn %d", i, r.Op, r.Gen, r.LSN)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
	// The recovered log keeps accepting appends at the next LSN.
	lsn, err := w2.Append(2, 99, []byte("after recovery"))
	if err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
	if want := uint64(len(payloads) + 1); lsn != want {
		t.Errorf("post-recovery LSN = %d, want %d", lsn, want)
	}
}

// TestTornTailEveryOffset is the crash-interruption property suite: a log
// of records is cut at EVERY byte offset — inside the segment header,
// inside frame headers, inside bodies, and on clean frame boundaries —
// and each prefix must (a) recover without error, (b) replay exactly the
// records whose frames lie wholly before the cut (acknowledged writes
// never vanish, partial writes never surface), and (c) accept new
// appends at the correct next LSN.
func TestTornTailEveryOffset(t *testing.T) {
	// Build the reference log. NoSync keeps the suite fast; Close flushes.
	src := t.TempDir()
	w, err := Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("first"),
		nil,
		[]byte("third-record-with-a-longer-payload"),
		bytes.Repeat([]byte{0x5A}, 64),
		[]byte("five"),
	}
	appendAll(t, w, payloads)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segName := fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)
	data, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: whole[i] is the offset at which record i is
	// wholly on disk.
	whole := make([]int64, len(payloads)+1)
	whole[0] = headerSize
	for i, p := range payloads {
		whole[i+1] = whole[i] + int64(frameHead+1+8+len(p))
	}
	if whole[len(payloads)] != int64(len(data)) {
		t.Fatalf("frame accounting: computed end %d, file is %d bytes", whole[len(payloads)], len(data))
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wc, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		recs := collect(t, wc)

		wantN := 0
		for wantN < len(payloads) && whole[wantN+1] <= int64(cut) {
			wantN++
		}
		if len(recs) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(recs[i].Payload, payloads[i]) || recs[i].LSN != uint64(i+1) {
				t.Fatalf("cut %d: record %d corrupted by recovery", cut, i)
			}
		}
		// Recovery truncated the torn bytes; the next append must land
		// on a clean boundary and survive its own replay.
		lsn, err := wc.Append(7, 7, []byte("resumed"))
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if want := uint64(wantN + 1); lsn != want {
			t.Fatalf("cut %d: resumed LSN = %d, want %d", cut, lsn, want)
		}
		if err := wc.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		wr, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		recs = collect(t, wr)
		if len(recs) != wantN+1 || string(recs[wantN].Payload) != "resumed" {
			t.Fatalf("cut %d: after resume replayed %d records", cut, len(recs))
		}
		wr.Close()
	}
}

// TestCorruptMiddleFails: the torn-tail tolerance must not extend to
// damage before the tail — a flipped byte in an interior record is real
// corruption and recovery must refuse, not silently drop the record.
func TestCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, [][]byte{[]byte("one"), []byte("two"), []byte("three")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's body (offset headerSize +
	// frameHead lands on its op byte).
	data[headerSize+frameHead] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wc, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	// The damaged record is followed by intact frames, so this is not a
	// crash tear: truncating here would silently drop the acknowledged
	// records behind it. Recovery must refuse.
	if err := wc.Replay(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay of interior damage: %v, want ErrCorrupt", err)
	}
}

// TestCorruptLastFrameTruncates: a CRC failure on the physically last
// frame IS a crash tear (out-of-order page writeback can persist a
// frame's length before its body) and recovery truncates it, keeping
// everything before.
func TestCorruptLastFrameTruncates(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, [][]byte{[]byte("one"), []byte("two"), []byte("three")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the last record's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wc, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	recs := collect(t, wc)
	if len(recs) != 2 || string(recs[0].Payload) != "one" || string(recs[1].Payload) != "two" {
		t.Fatalf("after tail-frame damage replayed %d records", len(recs))
	}
	if lsn, err := w.Append(1, 0, nil); err == nil || lsn != 0 {
		t.Fatalf("Append on the closed source log: lsn %d, err %v", lsn, err)
	}
	if lsn, err := wc.Append(1, 9, []byte("resumed")); err != nil || lsn != 3 {
		t.Fatalf("resume after tail truncation: lsn %d, err %v", lsn, err)
	}
}

// TestCorruptNonFinalSegmentFails: damage in a sealed (non-final)
// segment is never repairable — every record there was acknowledged.
func TestCorruptNonFinalSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, [][]byte{[]byte("one"), []byte("two")})
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, [][]byte{[]byte("three")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Shear the tail off the FIRST segment.
	path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	wc, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := wc.Replay(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay of sheared sealed segment: %v, want ErrCorrupt", err)
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny SegmentBytes forces organic rotation as well.
	var payloads [][]byte
	for i := 0; i < 20; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(i)}, 16))
	}
	appendAll(t, w, payloads)
	st := w.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want rotation to have happened", st.Segments)
	}
	if st.Records != 20 || st.NextLSN != 21 {
		t.Fatalf("Stats = %+v", st)
	}

	// Checkpoint protocol: rotate, then truncate everything below the
	// returned base.
	base, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if base != 21 {
		t.Fatalf("Rotate base = %d, want 21", base)
	}
	if err := w.TruncateBefore(base); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.Records != 0 || st.Segments != 1 {
		t.Fatalf("after truncation Stats = %+v", st)
	}

	// Post-truncation appends continue the LSN sequence and survive
	// reopen; the truncated records are gone.
	lsn, err := w.Append(1, 0, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 21 {
		t.Fatalf("post-truncation LSN = %d, want 21", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := collect(t, w2)
	if len(recs) != 1 || string(recs[0].Payload) != "fresh" || recs[0].LSN != 21 {
		t.Fatalf("after truncation replay = %+v", recs)
	}
}

// TestRotateEmptySegment: rotating an empty segment is a no-op so
// back-to-back checkpoints do not litter empty files.
func TestRotateEmptySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b1, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != 1 || b2 != 1 {
		t.Fatalf("empty rotations returned %d, %d, want 1, 1", b1, b2)
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("empty rotations created segments: %+v", st)
	}
}

// TestGroupCommitConcurrent exercises the group-commit path with real
// fsyncs: concurrent appenders must each get a unique LSN and every
// acknowledged record must replay. Run under -race this also checks the
// waiter/syncer handoff.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	lsns := make([][]uint64, writers)
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := []byte(fmt.Sprintf("writer %d record %d", g, i))
				lsn, err := w.Append(1, uint64(g), payload)
				if err != nil {
					errs[g] = err
					return
				}
				lsns[g] = append(lsns[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	seen := make(map[uint64]bool)
	for _, ls := range lsns {
		for _, l := range ls {
			if seen[l] {
				t.Fatalf("duplicate LSN %d", l)
			}
			seen[l] = true
		}
	}
	if len(seen) != writers*each {
		t.Fatalf("%d unique LSNs, want %d", len(seen), writers*each)
	}
	for l := uint64(1); l <= writers*each; l++ {
		if !seen[l] {
			t.Fatalf("LSN %d missing: sequence not contiguous", l)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if recs := collect(t, w2); len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
}

// TestAppendBatch checks that a batch is one group: its records replay
// in order with contiguous LSNs, one fsync covers them all, and a
// segment that fills mid-batch rotates between two frames.
func TestAppendBatch(t *testing.T) {
	for _, tc := range []struct {
		name         string
		segmentBytes int64
	}{{"OneSegment", 0}, {"RotatesMidBatch", 256}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{SegmentBytes: tc.segmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(1, 0, []byte("before")); err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, 40)
			for i := range payloads {
				payloads[i] = []byte(fmt.Sprintf("batch record %02d", i))
			}
			syncs := w.Stats().Syncs
			first, err := w.AppendBatch(3, 7, payloads)
			if err != nil {
				t.Fatalf("AppendBatch: %v", err)
			}
			if first != 2 {
				t.Fatalf("first LSN = %d, want 2", first)
			}
			st := w.Stats()
			if st.NextLSN != 2+uint64(len(payloads)) {
				t.Fatalf("NextLSN = %d, want %d", st.NextLSN, 2+len(payloads))
			}
			if tc.segmentBytes == 0 && st.Syncs-syncs != 1 {
				t.Fatalf("batch cost %d fsyncs, want 1", st.Syncs-syncs)
			}
			if tc.segmentBytes > 0 && st.Segments < 3 {
				t.Fatalf("%d segments: the batch never rotated", st.Segments)
			}
			if _, err := w.AppendBatch(1, 0, nil); err == nil {
				t.Fatal("empty batch accepted")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(dir, Options{SegmentBytes: tc.segmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			recs := collect(t, w2)
			if len(recs) != 1+len(payloads) {
				t.Fatalf("replayed %d records, want %d", len(recs), 1+len(payloads))
			}
			for i, r := range recs[1:] {
				if r.Op != 3 || r.Gen != 7 || r.LSN != first+uint64(i) || !bytes.Equal(r.Payload, payloads[i]) {
					t.Fatalf("record %d = op %d gen %d lsn %d %q", i, r.Op, r.Gen, r.LSN, r.Payload)
				}
			}
		})
	}
}

func TestAppendBeforeReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, [][]byte{[]byte("x")})
	w.Close()

	w2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Append(1, 0, nil); err == nil {
		t.Fatal("Append before Replay on a non-empty log succeeded")
	}
}

func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := w.Append(1, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
	if _, err := w.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate on closed log: %v, want ErrClosed", err)
	}
	if err := w.Replay(func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay on closed log: %v, want ErrClosed", err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-zzzz.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with unparseable segment name succeeded")
	}
}

func TestStatsFresh(t *testing.T) {
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := w.Stats()
	if st.Records != 0 || st.Segments != 1 || st.NextLSN != 1 || st.Bytes != headerSize {
		t.Fatalf("fresh Stats = %+v", st)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync on fresh log: %v", err)
	}
}

// TestCorruptLengthFieldFails: bit rot in a non-tail frame's length
// field must not pass as a torn tail. A bogus length swallows the
// intact frames behind it as body (or points past them), so naive
// torn-tail truncation would silently drop acknowledged records;
// recovery must probe the remaining bytes for whole frames and refuse.
func TestCorruptLengthFieldFails(t *testing.T) {
	build := func(t *testing.T) (string, []byte, []int) {
		dir := t.TempDir()
		w, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{[]byte("one"), []byte("two-longer"), []byte("three")}
		appendAll(t, w, payloads)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		offs := make([]int, len(payloads)+1)
		offs[0] = headerSize
		for i, p := range payloads {
			offs[i+1] = offs[i] + frameHead + 1 + 8 + len(p)
		}
		return dir, data, offs
	}
	cases := []struct {
		name string
		blen func(data []byte, offs []int) uint32
	}{
		// Too small to hold op+gen: fails the plausibility check while
		// the intact frames sit right behind the lying header.
		{"tiny", func([]byte, []int) uint32 { return 0 }},
		// Far past EOF: the swallowed read hits EOF mid-"body".
		{"huge", func([]byte, []int) uint32 { return maxBody }},
		// Exactly to EOF: the remaining frames are consumed as one body
		// whose CRC fails with no trailing byte to betray it.
		{"exact", func(data []byte, offs []int) uint32 {
			return uint32(len(data) - offs[1] - frameHead)
		}},
		// Partway into the next frame: CRC fails with bytes following.
		{"partial", func(data []byte, offs []int) uint32 {
			return uint32(offs[2]-offs[1]-frameHead) + 4
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, data, offs := build(t)
			// Overwrite the SECOND frame's length field (the first and
			// third frames stay intact and acknowledged).
			blen := tc.blen(data, offs)
			data[offs[1]+4] = byte(blen)
			data[offs[1]+5] = byte(blen >> 8)
			data[offs[1]+6] = byte(blen >> 16)
			data[offs[1]+7] = byte(blen >> 24)
			path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			wc, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer wc.Close()
			if err := wc.Replay(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay with corrupted length: %v, want ErrCorrupt", err)
			}
			// Nothing may have been truncated away by the refused replay.
			if got, err := os.ReadFile(path); err != nil || len(got) != len(data) {
				t.Fatalf("refused replay changed the file: %d -> %d bytes (%v)", len(data), len(got), err)
			}
		})
	}
}

// TestRotationDuringGroupCommit hammers the race between segment
// rotation (which fsyncs, releases and CLOSES the active file under the
// log mutex) and the group-commit syncer (which fsyncs the file it
// captured outside the mutex): a rotation completing between capture
// and fsync used to surface as a spurious "file already closed" error
// that poisoned the log for every later append, even though rotation
// had already made the group's bytes durable.
func TestRotationDuringGroupCommit(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 forces a rotation before every append, maximizing
	// collisions with in-flight group fsyncs. Syncs stay ON — the race
	// lives between two real fsync paths.
	w, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := w.Append(1, uint64(g), []byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					errs <- fmt.Errorf("writer %d append %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every acknowledged append must replay.
	wr, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	if recs := collect(t, wr); len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
}
