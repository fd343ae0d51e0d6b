package segment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// DefaultCompactThreshold is the segment count at which a flush triggers
// a full-merge compaction. Small on purpose: checkpoints are the only
// writer, so the tier grows by one segment per checkpoint and a low
// threshold keeps read overlays and tombstone debt shallow.
const DefaultCompactThreshold = 8

// Store is an LSM-style tier of immutable segments under one directory,
// rooted in a MANIFEST. One writer (the database checkpoint path) and
// any number of readers may use it concurrently.
//
// Write protocol (Flush): write the new segment file (atomic rename),
// then commit a new manifest naming old segments + new one and the WAL
// LSN the set now covers. The manifest rename is the single commit
// point; a crash before it leaves an orphan segment file that the next
// Open deletes, a crash after it is a completed flush.
//
// Compaction (Compact) merges every live segment newest-wins into one,
// drops tombstones (a full merge has nothing older for a tombstone to
// shadow), commits a manifest naming only the merged segment, then
// deletes the replaced files. Crash windows mirror Flush: pre-manifest
// leaves an orphan, post-manifest leaves garbage old segments that the
// next Open sweeps.
type Store struct {
	dir   string
	cache *Cache

	mu      sync.RWMutex
	readers []*Reader // oldest first; overlay newest-wins
	lsn     uint64
	meta    json.RawMessage
	hasMan  bool // a manifest exists on disk (distinguishes empty-set from never-flushed)
	nextSeq uint64

	compactThreshold int
	compactions      uint64

	// wrapWriter, when set, decorates segment data writers — the fault
	// injection hook for tests (compare store.FailAfterWriter).
	// Manifest writes are not wrapped: they are tiny and the interesting
	// failures (torn manifest) are exercised by crash-cut tests instead.
	wrapWriter func(io.Writer) io.Writer

	// readFault, when set, is consulted at the top of every point lookup
	// — the cold-read fault-injection hook (chaos suite) mirroring
	// wrapWriter on the write side. A non-nil error fails that Get only;
	// the store itself is untouched.
	readFault func() error
}

const (
	segPrefix = "seg-"
	segSuffix = ".sseg"
)

func segName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix)
}

// segSeq parses the sequence number out of a segment file name.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open loads the segment store in dir, creating the directory if needed.
// Orphan segment files the manifest does not name — leftovers of a crash
// between segment write and manifest commit — are deleted. cache may be
// nil (payload reads go straight to disk). compactThreshold <= 0 selects
// DefaultCompactThreshold; pass a negative value via SetCompactThreshold
// to disable compaction outright.
func Open(dir string, cache *Cache, compactThreshold int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: creating %s: %w", dir, err)
	}
	if compactThreshold == 0 {
		compactThreshold = DefaultCompactThreshold
	}
	s := &Store{dir: dir, cache: cache, compactThreshold: compactThreshold}

	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	live := make(map[string]bool)
	if man != nil {
		s.hasMan = true
		s.lsn = man.LSN
		s.meta = man.Meta
		for _, name := range man.Segments {
			live[name] = true
			r, err := OpenReader(filepath.Join(dir, name), cache)
			if err != nil {
				s.closeReaders()
				return nil, err
			}
			s.readers = append(s.readers, r)
			if seq, ok := segSeq(name); ok && seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}

	// Sweep orphans: segment files (and stale temp files) the manifest
	// does not reference. Advancing nextSeq past orphan sequence numbers
	// keeps names unique even when the orphan was written by a crashed
	// flush that never committed.
	names, err := os.ReadDir(dir)
	if err != nil {
		s.closeReaders()
		return nil, fmt.Errorf("segment: reading %s: %w", dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if name == ManifestFileName || live[name] {
			continue
		}
		if seq, ok := segSeq(name); ok {
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.Contains(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return s, nil
}

func (s *Store) closeReaders() {
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = nil
}

// SetWrapWriter installs a writer decorator applied to segment data
// files — the fault-injection hook for tests. Not safe to change while
// a Flush or Compact is in flight.
func (s *Store) SetWrapWriter(wrap func(io.Writer) io.Writer) {
	s.mu.Lock()
	s.wrapWriter = wrap
	s.mu.Unlock()
}

// SetReadFault installs a hook invoked before every point lookup (Get)
// reads the tier — the cold-read fault-injection counterpart of
// SetWrapWriter, used by the chaos suite to exercise paging failures.
// A returned error fails that lookup only. Pass nil to remove.
func (s *Store) SetReadFault(hook func() error) {
	s.mu.Lock()
	s.readFault = hook
	s.mu.Unlock()
}

// SetCompactThreshold overrides the segment count that triggers
// compaction. Negative disables compaction; zero restores the default.
func (s *Store) SetCompactThreshold(n int) {
	s.mu.Lock()
	if n == 0 {
		n = DefaultCompactThreshold
	}
	s.compactThreshold = n
	s.mu.Unlock()
}

// HasManifest reports whether a manifest has ever been committed —
// i.e. whether this store has state, even if the segment set is empty.
func (s *Store) HasManifest() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hasMan
}

// LSN returns the WAL offset the committed segment set covers: replay
// resumes here, truncation below here is safe.
func (s *Store) LSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// Meta returns the caller's opaque metadata blob from the manifest.
func (s *Store) Meta() json.RawMessage {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta
}

// Flush commits entries (strictly ascending by id; tombstones for
// removed records) as a new segment and advances the covered WAL LSN to
// lsn, storing meta alongside. An empty entries slice commits a
// manifest-only LSN advance — needed when a checkpoint finds nothing
// dirty but still wants to let the WAL go.
func (s *Store) Flush(entries []Entry, lsn uint64, meta json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	newSegments := make([]string, 0, len(s.readers)+1)
	for _, r := range s.readers {
		newSegments = append(newSegments, filepath.Base(r.Path()))
	}

	var newReader *Reader
	if len(entries) > 0 {
		name := segName(s.nextSeq)
		path := filepath.Join(s.dir, name)
		if err := WriteFile(path, entries, s.wrapWriter); err != nil {
			return err
		}
		r, err := OpenReader(path, s.cache)
		if err != nil {
			os.Remove(path)
			return err
		}
		newReader = r
		newSegments = append(newSegments, name)
	}

	man := &Manifest{LSN: lsn, Segments: newSegments, Meta: meta}
	if err := writeManifest(s.dir, man); err != nil {
		// The segment file (if any) is now an orphan; remove it so a
		// persistently failing manifest path doesn't leak disk, and roll
		// the sequence forward regardless — names are never reused.
		if newReader != nil {
			newReader.Close()
			os.Remove(newReader.Path())
			s.nextSeq++
		}
		return err
	}
	if newReader != nil {
		s.readers = append(s.readers, newReader)
		s.nextSeq++
	}
	s.lsn = lsn
	s.meta = meta
	s.hasMan = true
	return nil
}

// Get resolves id across the segment overlay, newest segment first.
// found reports whether any segment holds an entry for id; tombstone
// marks the newest entry as a deletion. The payload is the caller's to
// keep: cache hits are defensive copies (see Cache).
func (s *Store) Get(id string) (payload []byte, tombstone, found bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.readFault != nil {
		if err := s.readFault(); err != nil {
			return nil, false, false, err
		}
	}
	for i := len(s.readers) - 1; i >= 0; i-- {
		p, tomb, ok, err := s.readers[i].Get(id)
		if err != nil {
			return nil, false, false, err
		}
		if ok {
			return p, tomb, true, nil
		}
	}
	return nil, false, false, nil
}

// LiveEntry names one live record of the overlay: the newest entry for
// its id, which is not a tombstone. It stays readable until the store's
// next Compact or Close.
type LiveEntry struct {
	ID string
	r  *Reader
	i  int
}

// Live lists the overlay's live records (newest-wins, tombstones
// excluded) in ascending id order, without reading any payload: boot
// lists them once and reads them with LiveEntry.Read on as many
// goroutines as it likes.
func (s *Store) Live() []LiveEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return liveEntries(s.readers)
}

// Read returns the entry's payload: one pread of its whole frame, CRC
// and id checked, bypassing the cache (what boot reads once, nothing
// reads through the cache again). Safe for concurrent use.
func (e LiveEntry) Read() ([]byte, error) { return e.r.readEntry(e.i) }

// liveEntries is the newest-wins merge of readers in ascending id order:
// newest readers are visited first and the first entry seen per id
// wins. Segment sizes here are bounded by checkpoint deltas, so an
// in-memory merge is fine; a heap-based streaming merge is the upgrade
// path if segments ever outgrow RAM.
func liveEntries(readers []*Reader) []LiveEntry {
	seen := make(map[string]bool)
	var out []LiveEntry
	for i := len(readers) - 1; i >= 0; i-- {
		r := readers[i]
		for j, id := range r.ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			if r.flags[j]&flagTombstone == 0 {
				out = append(out, LiveEntry{ID: id, r: r, i: j})
			}
		}
	}
	slices.SortFunc(out, func(a, b LiveEntry) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Compact merges all live segments into one, dropping tombstones, when
// the segment count has reached the compaction threshold. Returns true
// when a merge ran. Callers invoke it after Flush; it is cheap to call
// when below threshold.
func (s *Store) Compact() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compactThreshold <= 0 || len(s.readers) < s.compactThreshold {
		return false, nil
	}
	live := liveEntries(s.readers)
	merged := make([]Entry, len(live))
	for i, e := range live {
		p, err := e.r.payloadAt(e.i)
		if err != nil {
			return false, err
		}
		merged[i] = Entry{ID: e.ID, Payload: p}
	}

	var newReaders []*Reader
	var names []string
	if len(merged) > 0 {
		name := segName(s.nextSeq)
		path := filepath.Join(s.dir, name)
		if err := WriteFile(path, merged, s.wrapWriter); err != nil {
			return false, err
		}
		r, err := OpenReader(path, s.cache)
		if err != nil {
			os.Remove(path)
			return false, err
		}
		newReaders = []*Reader{r}
		names = []string{name}
	}
	man := &Manifest{LSN: s.lsn, Segments: names, Meta: s.meta}
	if err := writeManifest(s.dir, man); err != nil {
		for _, r := range newReaders {
			r.Close()
			os.Remove(r.Path())
		}
		s.nextSeq++
		return false, err
	}
	s.nextSeq++
	old := s.readers
	s.readers = newReaders
	for _, r := range old {
		r.Close()
		os.Remove(r.Path())
	}
	s.compactions++
	return true, nil
}

// Stats is a point-in-time view of the tier for health endpoints.
type Stats struct {
	Segments    int        `json:"segments"`
	Entries     int        `json:"entries"`
	Tombstones  int        `json:"tombstones"`
	Bytes       int64      `json:"bytes"`
	LSN         uint64     `json:"lsn"`
	Compactions uint64     `json:"compactions"`
	Cache       CacheStats `json:"cache"`
}

// Stats reports segment counts, byte footprint, tombstone debt, and
// cache occupancy.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Segments:    len(s.readers),
		LSN:         s.lsn,
		Compactions: s.compactions,
		Cache:       s.cache.Stats(),
	}
	for _, r := range s.readers {
		st.Entries += r.Len()
		st.Tombstones += r.Tombstones()
		st.Bytes += r.Bytes()
	}
	return st
}

// Close releases every open segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, r := range s.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = nil
	return first
}
