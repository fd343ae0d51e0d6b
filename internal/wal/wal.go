// Package wal implements the write-ahead log behind the durable ingest
// path (docs/DURABILITY.md): a segmented, append-only, CRC-framed log
// whose Append only returns once the record is fsync-durable, with group
// commit so one fsync amortizes over every append that was in flight
// while the previous fsync ran.
//
// # On-disk layout
//
// A log is a directory of segment files named wal-<base>.log, where
// <base> is the 16-hex-digit LSN of the segment's first record. Each
// segment starts with a fixed header:
//
//	magic   "SWAL" (4 bytes)
//	version u8 (currently 1)
//	base    u64 (LSN of the first record)
//
// followed by frames, one per record:
//
//	crc  u32 (CRC-32C over the body)
//	blen u32 (body length)
//	body: op u8 | gen u64 | payload
//
// Records never span segments. The op byte and payload are opaque to
// this package — the database layer (internal/core) defines them; gen is
// the writer's mutation generation at append time, a debugging aid that
// ties each record back to the in-memory state that produced it.
//
// # Recovery
//
// Replay streams every record back in LSN order, verifying each frame's
// CRC. A torn frame (truncated header, truncated body, or CRC mismatch —
// what a crash mid-write leaves behind) is tolerated only at the tail of
// the final segment: the file is truncated back to the last whole record
// and appends continue from there. The same damage anywhere else is real
// corruption and fails Replay, because every record before the tail was
// fsync-acknowledged and must not silently vanish.
//
// # Group commit
//
// Appenders serialize frame bytes into a shared buffer under the log
// mutex, register a waiter, and block. A single background syncer drains
// all pending waiters at once: one buffer flush, one fsync, then every
// covered waiter is released. Under concurrency the fsync cost is paid
// once per group rather than once per record; a lone appender degrades
// to one fsync per append. AppendBatch frames many records under one
// mutex hold and parks one waiter for them all, so a batch is one group
// by construction, whoever else is appending.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	headerSize = 4 + 1 + 8 // magic, version, base LSN
	frameHead  = 4 + 4     // crc, body length
	version    = 1

	// DefaultSegmentBytes rotates segments at 64 MiB so checkpoint
	// truncation reclaims space in bounded chunks.
	DefaultSegmentBytes = 64 << 20

	// maxBody bounds one record's body so a corrupt length field cannot
	// drive a multi-gigabyte allocation during replay.
	maxBody = 1 << 30

	// MaxPayload is the largest payload one record can carry.
	MaxPayload = maxBody - (1 + 8)
)

var (
	segMagic = [4]byte{'S', 'W', 'A', 'L'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrCorrupt reports damage that recovery must not repair silently: a
	// torn or CRC-failing frame anywhere but the tail of the final
	// segment, or a malformed segment header.
	ErrCorrupt = errors.New("wal: corrupt log")
)

// Record is one logged operation. Op and Payload are opaque to this
// package; Gen is the writer's mutation generation at append time; LSN
// is the record's log sequence number (assigned by Append, contiguous
// from 1).
type Record struct {
	Op      byte
	Gen     uint64
	Payload []byte
	LSN     uint64
}

// Options tune a log. The zero value is production-ready.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = DefaultSegmentBytes). Rotation also happens explicitly at
	// every checkpoint via Rotate.
	SegmentBytes int64
	// NoSync skips every fsync — appends are still framed and flushed
	// but durability is left to the OS. Only for benchmarks measuring
	// the framing overhead and tests that do not care about crashes.
	NoSync bool
}

// WAL is a segmented write-ahead log. It is safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File      // active segment
	w        *bufio.Writer // buffers frames into f
	segBase  uint64        // LSN of the active segment's first record
	segSize  int64         // bytes written to the active segment
	segGen   uint64        // bumped whenever f is flushed+fsynced and retired (rotation, close)
	nextLSN  uint64        // LSN the next Append will take
	truncLSN uint64        // every record with LSN < truncLSN is checkpointed away
	sealed   []sealedSeg   // older segments, ascending by base
	waiters  []chan error  // appends waiting for the next fsync
	err      error         // first fatal I/O error; poisons the log
	closed   bool
	replayed bool

	// hookWrite and hookSync are fault-injection points (SetFault): when
	// armed, hookWrite is consulted before each frame write and hookSync
	// before each data fsync; a non-nil return stands in for the device
	// failing. Guarded by mu.
	hookWrite func() error
	hookSync  func() error

	// syncs counts the data fsyncs issued since Open: one per group
	// commit, plus those of rotation, Sync and Close.
	syncs atomic.Uint64

	// syncPass serializes whole group-commit passes (including the fsync
	// that runs outside mu) against Reset, which must not clear the poison
	// while an fsync whose outcome is unknown is still in flight. Lock
	// order: syncPass before mu.
	syncPass sync.Mutex

	syncReq chan struct{} // wakes the syncer; buffered(1)
	done    chan struct{} // syncer exited
}

type sealedSeg struct {
	base uint64
	path string
	size int64
}

// Open opens (creating if needed) the log directory. Existing segments
// are scanned but not read: call Replay before the first Append to
// stream the retained records back and repair any torn tail.
func Open(dir string, opts Options) (*WAL, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []sealedSeg
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: unparseable base LSN: %w", name, err)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		segs = append(segs, sealedSeg{base: base, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	w := &WAL{
		dir:     dir,
		opts:    opts,
		syncReq: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if len(segs) == 0 {
		// Fresh log: one empty segment starting at LSN 1; nothing to
		// replay.
		w.nextLSN, w.truncLSN = 1, 1
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
		w.replayed = true
	} else {
		w.sealed = segs
		w.truncLSN = segs[0].base
	}
	go w.syncer()
	return w, nil
}

// Replay streams every retained record to fn in LSN order, then prepares
// the final segment for appending. A torn tail (crash mid-append) is
// truncated back to the last whole record; damage anywhere else fails
// with ErrCorrupt. fn returning an error aborts the replay. Replay must
// be called (once) before the first Append on a log that had segments on
// disk; a fresh log needs no Replay but tolerates one.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.replayed {
		return nil
	}
	segs := w.sealed
	w.sealed = nil
	lsn := segs[0].base
	for i, seg := range segs {
		final := i == len(segs)-1
		end, n, err := w.replaySegment(seg, lsn, final, fn)
		if final && errors.Is(err, errTornHeader) && seg.base == lsn {
			// A crash during segment creation (rotation or first open)
			// tore the header before any record could land: recreate the
			// segment in place. Records, if any, could only follow a
			// complete, synced header.
			if rmErr := os.Remove(seg.path); rmErr != nil {
				return fmt.Errorf("wal: removing torn segment %s: %w", seg.path, rmErr)
			}
			if !w.opts.NoSync {
				if sErr := syncDir(w.dir); sErr != nil {
					return sErr
				}
			}
			if oErr := w.openSegment(lsn); oErr != nil {
				return oErr
			}
			w.nextLSN = lsn
			w.replayed = true
			return nil
		}
		if err != nil {
			return err
		}
		lsn += uint64(n)
		if final {
			// Continue appending into the recovered segment.
			f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
			if err != nil {
				return fmt.Errorf("wal: reopening %s: %w", seg.path, err)
			}
			if _, err := f.Seek(end, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("wal: seeking %s: %w", seg.path, err)
			}
			w.f = f
			w.w = bufio.NewWriter(f)
			w.segBase = seg.base
			w.segSize = end
		} else {
			w.sealed = append(w.sealed, seg)
		}
	}
	w.nextLSN = lsn
	w.replayed = true
	return nil
}

// errTornHeader reports a segment whose fixed header is incomplete or
// inconsistent — in the final segment, the leavings of a crash during
// segment creation (recoverable); anywhere else, corruption.
var errTornHeader = errors.New("torn segment header")

// errBadCRC tags a CRC mismatch so recovery can tell a torn tail frame
// (nothing after it) from mid-file corruption (intact bytes follow).
var errBadCRC = errors.New("crc mismatch")

// errBadLen and errTornBody tag a frame whose length field is implausible
// or points past the readable bytes. Either is what a torn tail looks
// like when the crash cut inside the frame header or body — but it is
// also what bit rot in a mid-file frame's length field looks like, where
// the bogus length swallows the intact frames that follow. Recovery
// distinguishes them by probing the remaining bytes for whole frames.
var (
	errBadLen   = errors.New("implausible body length")
	errTornBody = errors.New("torn frame body")
)

// replaySegment streams one segment's records to fn. It returns the
// offset just past the last whole record and the record count. In the
// final segment a torn tail is truncated (file shortened and synced);
// elsewhere it is ErrCorrupt.
func (w *WAL) replaySegment(seg sealedSeg, lsn uint64, final bool, fn func(Record) error) (int64, int, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening %s: %w", seg.path, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w (%s): short header (%v): %w", ErrCorrupt, seg.path, err, errTornHeader)
	}
	if [4]byte(hdr[:4]) != segMagic {
		return 0, 0, fmt.Errorf("%w (%s): bad magic %q: %w", ErrCorrupt, seg.path, hdr[:4], errTornHeader)
	}
	if hdr[4] != version {
		return 0, 0, fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, seg.path, hdr[4])
	}
	if got := binary.LittleEndian.Uint64(hdr[5:]); got != seg.base {
		return 0, 0, fmt.Errorf("%w (%s): header base %d disagrees with filename base %d: %w", ErrCorrupt, seg.path, got, seg.base, errTornHeader)
	}
	if lsn != seg.base {
		return 0, 0, fmt.Errorf("%w: %s starts at LSN %d, want %d (missing segment?)", ErrCorrupt, seg.path, seg.base, lsn)
	}
	offset := int64(headerSize)
	count := 0
	for {
		rec, frameLen, err := readFrame(br)
		if err == io.EOF {
			return offset, count, nil
		}
		if err != nil {
			// A crash tears the tail: a short frame, a garbage length, or
			// a CRC-failing frame with nothing after it. Intact data after
			// the damage is different — it means mid-file corruption (bit
			// rot, truncated copy), and "repairing" it would silently drop
			// acknowledged records. For a CRC failure any byte past the
			// frame's end proves that; for a corrupted length field the
			// frame's end is itself a lie (a bogus length swallows the
			// following frames as body, or points past them), so probe the
			// remaining bytes for a whole CRC-valid frame instead.
			torn := final
			if torn && errors.Is(err, errBadCRC) {
				if _, e := br.ReadByte(); e == nil {
					torn = false
				}
			}
			if torn && (errors.Is(err, errBadCRC) || errors.Is(err, errBadLen) || errors.Is(err, errTornBody)) {
				// A CRC failure with nothing after it still probes: a
				// corrupted length can swallow the following frames as
				// body exactly to EOF, failing their CRC collectively.
				intact, perr := tailHoldsFrames(seg.path, offset)
				if perr != nil {
					return 0, 0, perr
				}
				if intact {
					torn = false
				}
			}
			if !torn {
				return 0, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.path, offset, err)
			}
			// Torn tail of the final segment: drop the partial frame so
			// the next append starts on a clean boundary. The truncation
			// is synced — recovery must not itself be torn by a crash.
			f.Close()
			if err := truncateTo(seg.path, offset); err != nil {
				return 0, 0, err
			}
			return offset, count, nil
		}
		rec.LSN = lsn + uint64(count)
		if err := fn(rec); err != nil {
			return 0, 0, err
		}
		offset += frameLen
		count++
	}
}

// readFrame reads one frame. io.EOF means a clean end; any other error
// means a torn or corrupt frame at the current offset.
func readFrame(br *bufio.Reader) (Record, int64, error) {
	var head [frameHead]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("torn frame header: %w", err)
	}
	crc := binary.LittleEndian.Uint32(head[:4])
	blen := binary.LittleEndian.Uint32(head[4:])
	if blen < 1+8 || blen > maxBody {
		return Record{}, 0, fmt.Errorf("%w %d", errBadLen, blen)
	}
	body := make([]byte, blen)
	if _, err := io.ReadFull(br, body); err != nil {
		return Record{}, 0, fmt.Errorf("%w: %w", errTornBody, err)
	}
	if got := crc32.Checksum(body, crcTable); got != crc {
		return Record{}, 0, fmt.Errorf("%w: stored %08x, computed %08x", errBadCRC, crc, got)
	}
	return Record{
		Op:      body[0],
		Gen:     binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[9:],
	}, int64(frameHead) + int64(blen), nil
}

// tailHoldsFrames reports whether a whole, CRC-valid frame starts
// anywhere strictly after the damaged frame at offset — evidence that
// the damage is a corrupted length field in an acknowledged frame (bit
// rot) rather than a tail torn by a crash, so truncating would drop the
// intact records behind it. A bogus length leaves no trustworthy frame
// boundary to resume from, so every byte position is probed; the CRC is
// only computed for lengths that fit the remaining bytes, which random
// torn-frame garbage rarely satisfies.
func tailHoldsFrames(path string, offset int64) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("wal: reopening %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return false, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	tail, err := io.ReadAll(f)
	if err != nil {
		return false, fmt.Errorf("wal: reading tail of %s: %w", path, err)
	}
	for p := 1; p+frameHead+1+8 <= len(tail); p++ {
		crc := binary.LittleEndian.Uint32(tail[p : p+4])
		blen := binary.LittleEndian.Uint32(tail[p+4 : p+8])
		if blen < 1+8 || int64(blen) > int64(len(tail)-p-frameHead) {
			continue
		}
		body := tail[p+frameHead : p+frameHead+int(blen)]
		if crc32.Checksum(body, crcTable) == crc {
			return true, nil
		}
	}
	return false, nil
}

func truncateTo(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: truncating %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(offset); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncated %s: %w", path, err)
	}
	return nil
}

// openSegment creates the segment whose first record will carry base,
// writes its header, and syncs the directory so the file's existence
// survives a crash. Caller holds w.mu (or is initializing).
func (w *WAL) openSegment(base uint64) error {
	path := w.segPath(base)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = version
	binary.LittleEndian.PutUint64(hdr[5:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.segBase = base
	w.segSize = headerSize
	return nil
}

func (w *WAL) segPath(base uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix))
}

// Append logs one record and blocks until it is durable (fsync'd),
// sharing that fsync with every other append in flight. It returns the
// record's LSN. It is AppendBatch with one payload.
func (w *WAL) Append(op byte, gen uint64, payload []byte) (uint64, error) {
	return w.AppendBatch(op, gen, [][]byte{payload})
}

// AppendBatch logs payloads as consecutive records, every one under op
// and gen, and blocks until all of them are durable. The frames are
// written under one hold of the log mutex and the batch parks one
// waiter, so a single fsync covers it however many records it holds
// (shared, like any group, with the appends in flight beside it). It
// returns the first record's LSN; the rest follow contiguously. A full
// segment is still rotated between two frames, since records never span
// segments. On failure no record of the batch is acknowledged. A log
// with segments on disk must be Replayed first.
func (w *WAL) AppendBatch(op byte, gen uint64, payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	for _, p := range payloads {
		if len(p) > MaxPayload {
			return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record cap", len(p), MaxPayload)
		}
	}
	// frame is one record's crc | blen | op | gen; the payload follows it.
	var frame [frameHead + 1 + 8]byte
	frame[frameHead] = op
	binary.LittleEndian.PutUint64(frame[frameHead+1:], gen)
	opGenCRC := crc32.Checksum(frame[frameHead:], crcTable)

	w.mu.Lock()
	if err := w.appendable(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	first := w.nextLSN
	for _, p := range payloads {
		if w.segSize > w.opts.SegmentBytes && w.segSize > headerSize {
			// Seal the oversized segment before this record. rotateLocked
			// flushes, syncs and releases the current waiters itself, so no
			// acknowledged bytes are left behind in the old file (nor this
			// batch's earlier frames, which it syncs too). An empty segment
			// is never rotated (mirroring Rotate): its successor would claim
			// the same base LSN.
			if err := w.rotateLocked(); err != nil {
				w.mu.Unlock()
				return 0, err
			}
		}
		if w.hookWrite != nil {
			if err := w.hookWrite(); err != nil {
				w.fail(err)
				w.mu.Unlock()
				return 0, err
			}
		}
		blen := 1 + 8 + len(p)
		binary.LittleEndian.PutUint32(frame[:4], crc32.Update(opGenCRC, crcTable, p))
		binary.LittleEndian.PutUint32(frame[4:], uint32(blen))
		if _, err := w.w.Write(frame[:]); err != nil {
			w.fail(err)
			w.mu.Unlock()
			return 0, err
		}
		if _, err := w.w.Write(p); err != nil {
			w.fail(err)
			w.mu.Unlock()
			return 0, err
		}
		w.nextLSN++
		w.segSize += int64(frameHead) + int64(blen)
	}
	if w.opts.NoSync {
		w.mu.Unlock()
		return first, nil
	}
	ch := make(chan error, 1)
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()
	select {
	case w.syncReq <- struct{}{}:
	default: // syncer already signalled
	}
	return first, <-ch
}

// appendable reports why the log cannot accept writes, if it cannot.
// Caller holds w.mu.
func (w *WAL) appendable() error {
	switch {
	case w.closed:
		return ErrClosed
	case w.err != nil:
		return fmt.Errorf("wal: log failed: %w", w.err)
	case !w.replayed:
		return fmt.Errorf("wal: Append before Replay")
	}
	return nil
}

// fail poisons the log: after an I/O error the on-disk tail is
// unknowable, so no further append may be acknowledged. Caller holds
// w.mu.
func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the poison error — the first fatal I/O fault — or nil
// while the log is healthy. Callers use it to tell a poisoned log (the
// device failed; Reset can try to restore service) from transient
// per-call failures.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// SetFault arms (or, with nils, disarms) the log's fault-injection
// hooks: write is consulted before every frame write, sync before every
// data fsync; a non-nil return is treated exactly like the device
// failing at that point, poisoning the log. For chaos tests only.
func (w *WAL) SetFault(write, sync func() error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hookWrite, w.hookSync = write, sync
}

// syncLocked runs the armed fault hook, then fsyncs the active segment.
// Caller holds w.mu.
func (w *WAL) syncLocked() error {
	if w.hookSync != nil {
		if err := w.hookSync(); err != nil {
			return err
		}
	}
	w.syncs.Add(1)
	return w.f.Sync()
}

// syncer is the group-commit loop: each pass flushes the shared buffer,
// fsyncs once, and releases every waiter that registered before the
// flush. Appends arriving during the fsync pile into the next group.
func (w *WAL) syncer() {
	defer close(w.done)
	for range w.syncReq {
		// Let every runnable appender buffer and register before the
		// group is cut: without this yield the syncer, woken by the
		// first appender, starts fsyncing a group of one while the rest
		// are still re-entering Append — halving (or worse) the
		// amortization the group commit exists for.
		runtime.Gosched()
		// syncPass brackets the whole pass so Reset never clears the
		// poison while an fsync with an unknown outcome is in flight.
		w.syncPass.Lock()
		w.mu.Lock()
		if w.closed {
			w.releaseLocked(ErrClosed)
			w.mu.Unlock()
			w.syncPass.Unlock()
			return
		}
		ws := w.waiters
		w.waiters = nil
		if len(ws) == 0 {
			w.mu.Unlock()
			w.syncPass.Unlock()
			continue
		}
		var err error
		if w.err != nil {
			err = w.err
		} else if err = w.w.Flush(); err != nil {
			w.fail(err)
		}
		f, gen, hook := w.f, w.segGen, w.hookSync
		w.mu.Unlock()
		// The fsync runs outside the mutex: concurrent appends keep
		// buffering (and rotation keeps its own sync) while the disk
		// works — that overlap is the whole point of group commit.
		if err == nil && hook != nil {
			// An injected fault always poisons: it simulates the device
			// failing this group's fsync, so no retirement excuse applies.
			if err = hook(); err != nil {
				w.mu.Lock()
				w.fail(err)
				w.mu.Unlock()
			}
		}
		if err == nil {
			w.syncs.Add(1)
			if err = f.Sync(); err != nil {
				w.mu.Lock()
				if w.segGen != gen {
					// The segment was retired while this fsync was in
					// flight: the generation advances only after a
					// successful flush+fsync of the old file (rotation, or
					// Close's final sync), so every byte this group put in
					// f — flushed above, under the same lock hold that
					// captured gen — is already durable. The failure
					// (os.ErrClosed from the retirer's Close) is benign;
					// poisoning the log here would fail durable appends
					// forever.
					err = nil
				} else {
					w.fail(err)
				}
				w.mu.Unlock()
			}
		}
		for _, ch := range ws {
			ch <- err
		}
		w.syncPass.Unlock()
	}
}

// releaseLocked fails every parked waiter. Caller holds w.mu.
func (w *WAL) releaseLocked(err error) {
	for _, ch := range w.waiters {
		ch <- err
	}
	w.waiters = nil
}

// rotateLocked seals the active segment (flush, fsync, release current
// waiters, close) and opens a fresh one. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		w.fail(err)
		w.releaseLocked(err)
		return err
	}
	if !w.opts.NoSync {
		if err := w.syncLocked(); err != nil {
			w.fail(err)
			w.releaseLocked(err)
			return err
		}
	}
	// Everything buffered so far is durable: the waiters' records all
	// live in the just-synced file. Advance the generation before the
	// close so an in-flight group-commit fsync on this file knows its
	// bytes were covered and treats a closed-file failure as success.
	w.releaseLocked(nil)
	w.segGen++
	if err := w.f.Close(); err != nil {
		w.fail(err)
		return err
	}
	w.sealed = append(w.sealed, sealedSeg{base: w.segBase, path: w.segPath(w.segBase), size: w.segSize})
	if err := w.openSegment(w.nextLSN); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// Rotate seals the active segment and starts a new one, returning the
// new segment's base LSN: after the caller persists a snapshot covering
// every record below that LSN, TruncateBefore(base) reclaims the sealed
// segments. Rotating an empty segment is a no-op returning the same
// boundary.
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendable(); err != nil {
		return 0, err
	}
	if w.segSize == headerSize {
		return w.segBase, nil
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.segBase, nil
}

// TruncateBefore deletes sealed segments every record of which has
// LSN < base — the checkpoint's garbage collection. The active segment
// is never touched.
func (w *WAL) TruncateBefore(base uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	keep := w.sealed[:0]
	var firstErr error
	for _, seg := range w.sealed {
		next := seg.base + 1 // conservative: without reading, a sealed segment holds at least one record
		if end, ok := w.sealedEnd(seg); ok {
			next = end
		}
		if next <= base && seg.base < base {
			if err := os.Remove(seg.path); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: removing %s: %w", seg.path, err)
				keep = append(keep, seg)
				continue
			}
			continue
		}
		keep = append(keep, seg)
	}
	w.sealed = keep
	if base > w.truncLSN {
		w.truncLSN = min(base, w.segBase)
	}
	if firstErr != nil {
		return firstErr
	}
	if w.opts.NoSync {
		return nil
	}
	return syncDir(w.dir)
}

// sealedEnd returns the LSN one past seg's last record, derived from the
// next segment's base (segments are contiguous).
func (w *WAL) sealedEnd(seg sealedSeg) (uint64, bool) {
	for _, s := range w.sealed {
		if s.base > seg.base {
			return s.base, true
		}
	}
	if w.segBase > seg.base {
		return w.segBase, true
	}
	return 0, false
}

// Stats describes the log's retained (not yet checkpointed) state.
type Stats struct {
	// Records is the number of records a crash right now would replay:
	// everything appended since the last completed checkpoint.
	Records uint64
	// Bytes is the on-disk size of the retained segments (headers
	// included).
	Bytes int64
	// Segments is the retained segment file count (sealed + active).
	Segments int
	// NextLSN is the LSN the next append will take.
	NextLSN uint64
	// Syncs is the number of data fsyncs since Open. Records appended
	// over Syncs is the mean group size.
	Syncs uint64
}

// Stats returns a point-in-time view of the log's depth.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Stats{
		Segments: len(w.sealed) + 1,
		Bytes:    w.segSize,
		NextLSN:  w.nextLSN,
		Syncs:    w.syncs.Load(),
	}
	if w.f == nil {
		st.Segments-- // not yet replayed: no active segment
		st.Bytes = 0
	}
	for _, seg := range w.sealed {
		st.Bytes += seg.size
	}
	if w.nextLSN > w.truncLSN {
		st.Records = w.nextLSN - w.truncLSN
	}
	return st
}

// Sync flushes and fsyncs the active segment. Appends do this
// themselves; Sync exists for NoSync logs and shutdown paths.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		w.fail(err)
		return err
	}
	if err := w.syncLocked(); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// Close flushes, syncs and closes the log. Appends racing with Close
// fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil && w.err == nil {
		if err = w.w.Flush(); err == nil && !w.opts.NoSync {
			err = w.syncLocked()
		}
		if err == nil {
			// As in rotation: the file is fully flushed (+fsynced), so a
			// group-commit fsync racing this Close reports success to its
			// waiters instead of a spurious closed-file error.
			w.segGen++
		}
	}
	w.releaseLocked(ErrClosed)
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.mu.Unlock()
	// Wake the syncer so it observes closed and exits. The channel is
	// never closed — a racing Append may still try to signal it.
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
	<-w.done
	return err
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable (see store.SyncDir; duplicated here to keep wal dependency-
// free).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}
