// Package segment implements the on-disk tier behind O(delta)
// checkpoints (docs/STORAGE.md): immutable, sorted-by-id segment files
// holding record payloads and tombstones, a Bloom filter per segment for
// cheap negative lookups, an fsync-correct MANIFEST naming the live
// segment set plus the write-ahead-log LSN it covers, and LSM-style
// full-merge compaction that folds the tier back to one segment and
// drops tombstones once the segment count crosses a threshold.
//
// Payloads are opaque to this package — the database layer
// (internal/core) encodes them. Payload bytes are not resident: a
// segment keeps only its id index and Bloom filter in memory, and reads
// payload frames from disk on demand through a shared byte-bounded LRU
// (Cache), so memory for the stored payload tier is bounded by the cache
// size rather than the database size.
//
// # Segment file format
//
// A segment file (seg-<seq>.sseg, <seq> a 16-hex-digit sequence number
// that only ever grows) is written once, fsync'd, renamed into place and
// never modified:
//
//	header  magic "SSG1" (4 bytes) | count u32
//	frames  count entry frames, ascending strictly by id:
//	          crc u32 (CRC-32C over body) | blen u32 | body
//	          body: flags u8 (bit0 = tombstone) | idLen u16 | id | payload
//	index   one frame: per entry flags u8 | idLen u16 | id | offset u64
//	bloom   one frame: k u8 | nwords u32 | words u64×nwords
//	trailer indexOff u64 | bloomOff u64 | count u32 |
//	        crc u32 (CRC-32C over the preceding 20 bytes) | magic "1GSS"
//
// Because segments are immutable and land by atomic rename, a crash can
// never tear one under a live name: a file is either whole or absent
// (or an orphan no manifest references, removed at the next Open).
// Every structure a reader trusts — trailer, index, bloom, each entry
// frame — is CRC-framed, so bit rot fails loudly instead of serving
// wrong payloads.
package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"seqrep/internal/store"
)

const (
	segMagic     = "SSG1"
	trailerMagic = "1GSS"
	headerSize   = 4 + 4             // magic, count
	frameHead    = 4 + 4             // crc, body length
	trailerSize  = 8 + 8 + 4 + 4 + 4 // indexOff, bloomOff, count, crc, magic

	// maxBody bounds one frame body so a corrupt length field cannot
	// drive a multi-gigabyte allocation.
	maxBody = 1 << 30
	// maxEntries bounds a segment's entry count against corrupt headers.
	maxEntries = 1 << 26

	flagTombstone = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a segment or manifest whose framing or checksums do
// not hold — damage that must fail the open rather than silently serve
// wrong or partial data. Segments and manifests are written atomically,
// so ErrCorrupt means bit rot or a truncated copy, never a normal crash.
var ErrCorrupt = errors.New("segment: corrupt file")

// Entry is one record in a segment: a payload under an id, or a
// tombstone marking the id as deleted in every older segment.
type Entry struct {
	ID        string
	Tombstone bool
	Payload   []byte
}

// WriteFile writes entries (which must be strictly ascending by id) as
// an immutable segment at path: temp file in the same directory, full
// fsync, atomic rename, directory sync. wrap, when non-nil, decorates
// the data writer — the fault-injection hook (compare
// store.FileArchive.WrapWriter); production callers pass nil.
func WriteFile(path string, entries []Entry, wrap func(io.Writer) io.Writer) (err error) {
	for i, e := range entries {
		if e.ID == "" {
			return fmt.Errorf("segment: entry %d has an empty id", i)
		}
		if len(e.ID) > int(^uint16(0)) {
			return fmt.Errorf("segment: id %q too long", e.ID[:32])
		}
		if i > 0 && entries[i-1].ID >= e.ID {
			return fmt.Errorf("segment: entries not strictly ascending at %d (%q >= %q)", i, entries[i-1].ID, e.ID)
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("segment: temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	bw := bufio.NewWriter(w)

	// The offset of everything written so far, tracked by our own
	// counter: frame offsets in the index must describe the file layout,
	// not whatever a wrapped (possibly failing) writer reports.
	off := int64(0)
	write := func(p []byte) error {
		if err := writeFull(bw, p); err != nil {
			return err
		}
		off += int64(len(p))
		return nil
	}
	writeFrame := func(body []byte) error {
		var head [frameHead]byte
		binary.LittleEndian.PutUint32(head[:4], crc32.Checksum(body, crcTable))
		binary.LittleEndian.PutUint32(head[4:], uint32(len(body)))
		if err := write(head[:]); err != nil {
			return err
		}
		return write(body)
	}

	var hdr [headerSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(entries)))
	if err = write(hdr[:]); err != nil {
		return fmt.Errorf("segment: writing %s: %w", path, err)
	}

	offsets := make([]int64, len(entries))
	filter := newBloom(len(entries))
	for i, e := range entries {
		offsets[i] = off
		filter.add(e.ID)
		body := make([]byte, 1+2+len(e.ID)+len(e.Payload))
		if e.Tombstone {
			body[0] = flagTombstone
		}
		binary.LittleEndian.PutUint16(body[1:3], uint16(len(e.ID)))
		copy(body[3:], e.ID)
		copy(body[3+len(e.ID):], e.Payload)
		if err = writeFrame(body); err != nil {
			return fmt.Errorf("segment: writing %s: %w", path, err)
		}
	}

	indexOff := off
	index := make([]byte, 0, len(entries)*(1+2+16+8))
	for i, e := range entries {
		flags := byte(0)
		if e.Tombstone {
			flags = flagTombstone
		}
		index = append(index, flags)
		index = binary.LittleEndian.AppendUint16(index, uint16(len(e.ID)))
		index = append(index, e.ID...)
		index = binary.LittleEndian.AppendUint64(index, uint64(offsets[i]))
	}
	if err = writeFrame(index); err != nil {
		return fmt.Errorf("segment: writing %s index: %w", path, err)
	}
	bloomOff := off
	if err = writeFrame(filter.marshal()); err != nil {
		return fmt.Errorf("segment: writing %s bloom: %w", path, err)
	}

	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(tr[8:16], uint64(bloomOff))
	binary.LittleEndian.PutUint32(tr[16:20], uint32(len(entries)))
	binary.LittleEndian.PutUint32(tr[20:24], crc32.Checksum(tr[:20], crcTable))
	copy(tr[24:], trailerMagic)
	if err = write(tr[:]); err != nil {
		return fmt.Errorf("segment: writing %s trailer: %w", path, err)
	}

	if err = bw.Flush(); err != nil {
		return fmt.Errorf("segment: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("segment: syncing %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("segment: closing %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("segment: committing %s: %w", path, err)
	}
	if err = store.SyncDir(dir); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

func writeFull(w io.Writer, p []byte) error {
	_, err := w.Write(p)
	return err
}

// Reader serves one immutable segment. It keeps the id index (ids,
// flags, frame offsets) and the Bloom filter resident; payloads stay on
// disk and are read on demand, optionally through a shared Cache. Safe
// for concurrent use — reads go through (*os.File).ReadAt.
type Reader struct {
	path     string
	f        *os.File
	size     int64
	indexOff int64 // where the last entry frame must end
	ids      []string
	flags    []byte
	offs     []int64
	bloom    *bloom
	cache    *Cache
}

// OpenReader validates and opens a segment file. cache may be nil.
func OpenReader(path string, cache *Cache) (_ *Reader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: opening %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	size := info.Size()
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %s: %d bytes is too short for a segment", ErrCorrupt, path, size)
	}

	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("segment: %s header: %w", path, err)
	}
	if string(hdr[:4]) != segMagic {
		return nil, fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, path, hdr[:4])
	}
	count := binary.LittleEndian.Uint32(hdr[4:])

	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("segment: %s trailer: %w", path, err)
	}
	if string(tr[24:28]) != trailerMagic {
		return nil, fmt.Errorf("%w: %s: bad trailer magic %q", ErrCorrupt, path, tr[24:28])
	}
	if got, want := binary.LittleEndian.Uint32(tr[20:24]), crc32.Checksum(tr[:20], crcTable); got != want {
		return nil, fmt.Errorf("%w: %s: trailer crc %08x, computed %08x", ErrCorrupt, path, got, want)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	bloomOff := int64(binary.LittleEndian.Uint64(tr[8:16]))
	if tc := binary.LittleEndian.Uint32(tr[16:20]); tc != count {
		return nil, fmt.Errorf("%w: %s: trailer count %d disagrees with header count %d", ErrCorrupt, path, tc, count)
	}
	if count > maxEntries {
		return nil, fmt.Errorf("%w: %s: implausible entry count %d", ErrCorrupt, path, count)
	}
	if indexOff < headerSize || bloomOff <= indexOff || bloomOff >= size-trailerSize {
		return nil, fmt.Errorf("%w: %s: inconsistent section offsets (index %d, bloom %d, size %d)", ErrCorrupt, path, indexOff, bloomOff, size)
	}

	index, err := readFrameAt(f, path, indexOff, bloomOff-indexOff)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		path:     path,
		f:        f,
		size:     size,
		indexOff: indexOff,
		ids:      make([]string, 0, count),
		flags:    make([]byte, 0, count),
		offs:     make([]int64, 0, count),
		cache:    cache,
	}
	for len(index) > 0 {
		if len(index) < 3 {
			return nil, fmt.Errorf("%w: %s: truncated index entry", ErrCorrupt, path)
		}
		flags := index[0]
		idLen := int(binary.LittleEndian.Uint16(index[1:3]))
		if len(index) < 3+idLen+8 {
			return nil, fmt.Errorf("%w: %s: truncated index entry", ErrCorrupt, path)
		}
		id := string(index[3 : 3+idLen])
		off := int64(binary.LittleEndian.Uint64(index[3+idLen:]))
		if id == "" || off < headerSize || off >= indexOff {
			return nil, fmt.Errorf("%w: %s: invalid index entry (id %q, offset %d)", ErrCorrupt, path, id, off)
		}
		if n := len(r.ids); n > 0 && r.ids[n-1] >= id {
			return nil, fmt.Errorf("%w: %s: index ids not strictly ascending at %q", ErrCorrupt, path, id)
		}
		r.ids = append(r.ids, id)
		r.flags = append(r.flags, flags)
		r.offs = append(r.offs, off)
		index = index[3+idLen+8:]
	}
	if uint32(len(r.ids)) != count {
		return nil, fmt.Errorf("%w: %s: index holds %d entries, header says %d", ErrCorrupt, path, len(r.ids), count)
	}

	bloomBody, err := readFrameAt(f, path, bloomOff, size-trailerSize-bloomOff)
	if err != nil {
		return nil, err
	}
	if r.bloom, err = unmarshalBloom(bloomBody); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return r, nil
}

// readFrameAt reads and CRC-verifies one frame whose head starts at off
// and whose total length must not exceed limit, with one pread of limit
// bytes: every caller knows where the frame's section ends, and limit
// never reaches past the file.
func readFrameAt(f *os.File, path string, off, limit int64) ([]byte, error) {
	if limit < frameHead {
		return nil, fmt.Errorf("%w: %s: no room for a frame at %d", ErrCorrupt, path, off)
	}
	buf := make([]byte, limit)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: %s frame at %d: %v", ErrCorrupt, path, off, err)
	}
	crc := binary.LittleEndian.Uint32(buf[:4])
	blen := binary.LittleEndian.Uint32(buf[4:frameHead])
	if blen > maxBody || int64(blen) > limit-frameHead {
		return nil, fmt.Errorf("%w: %s frame at %d: implausible body length %d", ErrCorrupt, path, off, blen)
	}
	body := buf[frameHead : frameHead+int64(blen)]
	if got := crc32.Checksum(body, crcTable); got != crc {
		return nil, fmt.Errorf("%w: %s frame at %d: crc %08x, computed %08x", ErrCorrupt, path, off, crc, got)
	}
	return body, nil
}

// Len returns the entry count (live + tombstones).
func (r *Reader) Len() int { return len(r.ids) }

// Tombstones counts the tombstone entries.
func (r *Reader) Tombstones() int {
	n := 0
	for _, fl := range r.flags {
		if fl&flagTombstone != 0 {
			n++
		}
	}
	return n
}

// Bytes returns the segment file's size.
func (r *Reader) Bytes() int64 { return r.size }

// Path returns the segment file's path.
func (r *Reader) Path() string { return r.path }

// find returns the index position of id, or -1 — Bloom-gated, so misses
// are usually free.
func (r *Reader) find(id string) int {
	if len(r.ids) == 0 || !r.bloom.test(id) {
		return -1
	}
	i := sort.SearchStrings(r.ids, id)
	if i < len(r.ids) && r.ids[i] == id {
		return i
	}
	return -1
}

// Get returns the payload stored under id. ok reports whether the
// segment holds an entry for id at all; tombstone marks a held deletion
// (payload nil). The returned payload is the caller's to keep: cache
// hits are defensive copies, so mutation cannot corrupt other readers.
func (r *Reader) Get(id string) (payload []byte, tombstone, ok bool, err error) {
	i := r.find(id)
	if i < 0 {
		return nil, false, false, nil
	}
	if r.flags[i]&flagTombstone != 0 {
		return nil, true, true, nil
	}
	p, err := r.payloadAt(i)
	if err != nil {
		return nil, false, false, err
	}
	return p, false, true, nil
}

// payloadAt reads entry i's payload, through the shared cache when one
// is attached.
func (r *Reader) payloadAt(i int) ([]byte, error) {
	key := cacheKey{path: r.path, off: r.offs[i]}
	if p, ok := r.cache.get(key); ok {
		return p, nil
	}
	payload, err := r.readEntry(i)
	if err != nil {
		return nil, err
	}
	r.cache.put(key, payload)
	return payload, nil
}

// readEntry reads entry i's frame from disk with one pread and checks it
// holds the id the index names. Frames are contiguous, so entry i's
// frame ends where the next begins, or, for the last entry, where the
// index begins.
func (r *Reader) readEntry(i int) ([]byte, error) {
	end := r.indexOff
	if i+1 < len(r.offs) {
		end = r.offs[i+1]
	}
	body, err := readFrameAt(r.f, r.path, r.offs[i], end-r.offs[i])
	if err != nil {
		return nil, err
	}
	if len(body) < 3 {
		return nil, fmt.Errorf("%w: %s: entry %d body too short", ErrCorrupt, r.path, i)
	}
	idLen := int(binary.LittleEndian.Uint16(body[1:3]))
	if len(body) < 3+idLen || string(body[3:3+idLen]) != r.ids[i] {
		return nil, fmt.Errorf("%w: %s: entry %d id does not match its index", ErrCorrupt, r.path, i)
	}
	return body[3+idLen:], nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
