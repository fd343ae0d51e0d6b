package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"seqrep/internal/resident"
	"seqrep/internal/segment"
	"seqrep/internal/seq"
	"seqrep/internal/wal"
)

// Durable write path (docs/DURABILITY.md, docs/STORAGE.md): a database
// opened with OpenDir owns a write-ahead log and an on-disk segment
// tier. Every Ingest and Remove appends its operation to the log — and
// waits for the fsync — before the in-memory commit, so an acknowledged
// write survives any crash; boot loads the segment tier's manifest and
// records, replays the log tail on top, and leaves the log attached.
// Checkpoint flushes only the records dirtied since the last checkpoint
// into a new segment (removals as tombstones) and truncates the log —
// O(delta) in the churn, not O(database).

// Data-directory layout.
const (
	// WALDirName is the write-ahead-log subdirectory.
	WALDirName = "wal"
	// legacySnapshotName is the monolithic snapshot that builds before the
	// segment tier kept in the data directory. This build cannot read it;
	// OpenDir refuses a directory that holds one and no manifest.
	legacySnapshotName = "snapshot.sdb"
)

// WAL record ops. Payload layouts are versioned implicitly by these
// constants: a new layout gets a new op.
const (
	walOpIngest byte = 1 // idLen u16 | id | n u32 | (t f64, v f64) × n
	walOpRemove byte = 2 // idLen u16 | id
)

// bootPhase is where an OpenDir boot stands; it only moves forward, and
// only before OpenDir returns.
type bootPhase uint8

const (
	adopting  bootPhase = iota // records from the tier: admitted clean, not marked dirty
	replaying                  // records from the log: marked dirty, admitted pinned, not re-appended
	live                       // every write is appended before it is published
)

// dirStore is the directory-backed storage (see storage): the write-ahead
// log, the segment tier, the dirty set, residency and degraded mode.
type dirStore struct {
	db    *DB
	phase bootPhase

	// wal is the log every Ingest/Remove appends to — and waits for the
	// fsync — before its in-memory commit. ckptMu brackets each
	// append→publish window for reading; a checkpoint takes it
	// exclusively around the log rotation so every record in a sealed
	// (about to be flushed and truncated) segment is committed in memory
	// first. ckptRun serializes whole checkpoints.
	wal      *wal.WAL
	ckptMu   sync.RWMutex
	ckptRun  sync.Mutex
	recovery RecoveryStats
	// replayBatch holds the consecutive logged ingests replay has
	// collected and not yet run (flushReplay).
	replayBatch []BatchItem

	// segs is the segment tier checkpoints flush into. dirty is the id set
	// mutated since the last checkpoint — true for a live upsert, false
	// for a removal that must become a tombstone — making checkpoint cost
	// O(delta). dirtyMu guards the map itself: writers mark while holding
	// ckptMu only for reading, so concurrent marks race with each other
	// even though they cannot race the checkpoint's swap. Lock order:
	// ckptMu → dirtyMu.
	segs    *segment.Store
	dirtyMu sync.Mutex
	dirty   map[string]bool
	// res bounds resident representation bytes (Config.MemoryBudget > 0;
	// nil keeps every representation resident — the tracker's methods
	// are no-ops on nil). See residency.go. Lock order: tracker → shard;
	// no tracker method is called while holding dirtyMu or a shard lock.
	res *resident.Tracker

	// Storage-fault read-only mode (degraded.go): degraded is the write
	// path's fast check, flipped when a WAL append/fsync fault poisons the
	// log. healthMu guards what health reporting reads: deg, the episode
	// and its transition counts, and ckpt, the checkpoint history fields
	// of WALStats. The probe fields run the supervised recovery loop.
	degraded  atomic.Bool
	healthMu  sync.Mutex
	deg       DegradedStatus
	ckpt      WALStats
	probeStop chan struct{}
	probeHalt sync.Once
	probeWG   sync.WaitGroup
}

// RecoveryStats reports what a boot-time WAL replay did. Skips are the
// normal overlap between a checkpoint's segments and the log records it
// covers (replay is idempotent); Failed counts records whose pipeline
// failed again during replay exactly as it did (unacknowledged) before
// the crash.
type RecoveryStats struct {
	// Replayed is the number of log records examined.
	Replayed int
	// Applied is the number of operations re-executed.
	Applied int
	// SkippedDuplicate counts ingests whose id the segments already held.
	SkippedDuplicate int
	// SkippedMissing counts removes whose id was already gone.
	SkippedMissing int
	// Failed counts operations that errored during replay (deterministic
	// pipeline failures — the original call returned the same error and
	// was never acknowledged).
	Failed int
}

// OpenDir opens (creating if needed) a durable database rooted at dir:
// layout dir/segments/ + dir/wal/. Boot loads the segment manifest and
// adopts every live record, replays the write-ahead log tail on top —
// truncating a torn final record, skipping records the segments already
// cover — then reclaims any sealed log segments the manifest's LSN shows
// are covered (the stranded leftovers of a checkpoint that died between
// its rotation and its truncation). The caller owns the returned
// database and must Close it to release the log and the segment files.
//
// cfg contributes the code components (breaker, representer,
// preprocessing); when a manifest exists its stored scalar parameters
// (ε, δ, bucket width, index coefficients, sketch block) win. Raw
// sequences are not part of the directory: the caller archives them.
func OpenDir(dir string, cfg Config) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty data directory")
	}
	if err := refuseLegacySnapshot(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating data dir: %w", err)
	}
	// No payload cache in the tier: the residency tracker is the one
	// cache of decoded payloads, under the one budget, with the OS page
	// cache beneath it (residency.go).
	segs, err := segment.Open(filepath.Join(dir, SegmentsDirName), nil, cfg.CompactThreshold)
	if err != nil {
		return nil, err
	}
	d := &dirStore{segs: segs, dirty: make(map[string]bool), probeStop: make(chan struct{})}
	db, err := d.boot(dir, cfg)
	if err != nil {
		segs.Close()
		return nil, err
	}
	return db, nil
}

// boot builds the database over the opened tier, one bootPhase at a
// time, and attaches the log.
func (d *dirStore) boot(dir string, cfg Config) (*DB, error) {
	var mm manifestMeta
	if d.segs.HasManifest() {
		var err error
		if mm, err = readManifestMeta(d.segs); err != nil {
			return nil, err
		}
		if cfg, err = applyManifestMeta(cfg, mm); err != nil {
			return nil, err
		}
	}
	if cfg.RecoveryProbeInterval == 0 {
		cfg.RecoveryProbeInterval = 2 * time.Second
	}
	db, err := newDB(cfg, d)
	if err != nil {
		return nil, err
	}
	d.db = db
	if cfg.MemoryBudget > 0 {
		// Armed before adoption, so under a budget the eviction sweep
		// bounds resident bytes while the tier streams in — boot never
		// materializes more than the budget plus two chunks: one
		// linking, the next decoding.
		d.res = resident.New(cfg.MemoryBudget, d.onEvict)
	}

	if d.segs.HasManifest() {
		if err := d.adoptSegments(mm); err != nil {
			return nil, err
		}
		if info, err := os.Stat(filepath.Join(dir, SegmentsDirName, segment.ManifestFileName)); err == nil {
			d.ckpt.LastCheckpoint = info.ModTime()
		}
	}

	// A WAL record is by definition not yet in a committed segment, so
	// everything replay applies must flush at the next checkpoint — were
	// it not marked, truncation would lose it.
	d.phase = replaying
	if mm.FeatSource == featSourceLegacyRaw || mm.SketchSource == featSourceLegacyRaw {
		// The tier still holds raw-derived vectors and sketches under a
		// manifest that says so. Every checkpoint rewrites the manifest with
		// this binary's source, so the payloads must be rewritten by the
		// same commit: schedule them all, once, before replay (whose marks
		// then win). They stay unpinned — the tier's copy of each
		// representation is still good, only the derived fields are stale.
		for _, id := range db.IDs() {
			d.dirty[id] = true
		}
	}
	w, err := wal.Open(filepath.Join(dir, WALDirName), wal.Options{})
	if err != nil {
		return nil, err
	}
	d.wal = w
	err = w.Replay(d.applyWALRecord)
	if err == nil {
		err = d.flushReplay() // the ingests the log ends with
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("core: replaying wal: %w", err)
	}
	// Reclaim sealed log segments the manifest already covers — the
	// crash window between a checkpoint's rotation and its truncation
	// strands them; their records were just replayed idempotently (and
	// any that actually mattered are in the dirty set now).
	if d.segs.HasManifest() {
		if err := w.TruncateBefore(d.segs.LSN()); err != nil {
			w.Close()
			return nil, fmt.Errorf("core: reclaiming covered wal segments: %w", err)
		}
	}
	d.phase = live
	return db, nil
}

// refuseLegacySnapshot fails the boot of a directory that a pre-segment-
// tier build checkpointed into one snapshot file and no build since has
// migrated (no manifest). Booting such a directory empty and replaying
// only the WAL tail over it would silently drop every record the
// snapshot holds, so its presence — or any doubt about it — is an error,
// raised before OpenDir creates or changes anything. Beside a manifest
// the file is a stray the manifest supersedes, and is left alone.
func refuseLegacySnapshot(dir string) error {
	snapPath := filepath.Join(dir, legacySnapshotName)
	if _, err := os.Stat(snapPath); errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("core: checking for legacy snapshot %s: %w", snapPath, err)
	}
	manifest := filepath.Join(dir, SegmentsDirName, segment.ManifestFileName)
	if _, err := os.Stat(manifest); errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: %s is a pre-segment-tier snapshot this build cannot read; open the directory once with the previous release, whose first checkpoint migrates it into %s/", snapPath, SegmentsDirName)
	}
	return nil
}

// applyWALRecord re-executes one logged operation during boot replay.
// Replay is idempotent on top of any checkpoint state: an ingest whose
// id is already stored is skipped (a segment covered it — per id,
// operations are serialized and only acknowledged ones are logged, so
// the stored value is either this record's or that of a later logged
// ingest that will overwrite it via the interleaved remove), and a
// remove of an absent id is skipped likewise. The phase is replaying, so
// the re-executed operations do not re-append themselves.
//
// Consecutive ingests collect into one batch of up to bootChunk items,
// run before a remove, before an ingest of an id the batch already
// holds, and when the log ends: every operation then finds the state it
// would have found replayed alone, and an ingest of a stored id fails
// its reservation as the duplicate it is.
func (d *dirStore) applyWALRecord(r wal.Record) error {
	d.recovery.Replayed++
	switch r.Op {
	case walOpIngest:
		id, s, err := decodeWALIngest(r.Payload)
		if err != nil {
			return fmt.Errorf("core: wal record %d: %w", r.LSN, err)
		}
		if len(d.replayBatch) == bootChunk || slices.ContainsFunc(d.replayBatch, func(it BatchItem) bool { return it.ID == id }) {
			if err := d.flushReplay(); err != nil {
				return err
			}
		}
		d.replayBatch = append(d.replayBatch, BatchItem{ID: id, Seq: s})
		return nil
	case walOpRemove:
		id, err := decodeWALRemove(r.Payload)
		if err != nil {
			return fmt.Errorf("core: wal record %d: %w", r.LSN, err)
		}
		if err := d.flushReplay(); err != nil {
			return err
		}
		if _, ok := d.db.Record(id); !ok {
			d.recovery.SkippedMissing++
			return nil
		}
		if err := d.db.Remove(id); err != nil {
			d.recovery.Failed++
			return nil
		}
		d.recovery.Applied++
		return nil
	default:
		return fmt.Errorf("core: wal record %d: unknown op %d", r.LSN, r.Op)
	}
}

// flushReplay runs the collected ingests as one db.ingest batch: built on
// the worker pool, linked under one imu hold.
func (d *dirStore) flushReplay() error {
	items := d.replayBatch
	d.replayBatch = nil
	for _, p := range d.db.ingest(items, false) {
		switch {
		case p.err == nil:
			d.recovery.Applied++
		case errors.Is(p.err, ErrDuplicateID):
			d.recovery.SkippedDuplicate++
		default:
			// The same deterministic failure the original caller saw: the
			// operation was logged but never acknowledged, so skipping it
			// reproduces the pre-crash state.
			d.recovery.Failed++
		}
	}
	return nil
}

func (d *dirStore) recoveryStats() RecoveryStats { return d.recovery }

// ingestPayload encodes an ingest's log record. While replaying there
// is none to encode: the operation being replayed is already in the log.
func (d *dirStore) ingestPayload(id string, s seq.Sequence) ([]byte, error) {
	if d.phase == replaying {
		return nil, nil
	}
	return encodeWALIngest(id, s)
}

// logIngest is write-ahead: a batch of ingests is fsync-durable before
// the commit that makes any of it observable, so an acknowledged ingest
// can always be replayed. The batch is one wal.AppendBatch, one fsync.
func (d *dirStore) logIngest(payloads [][]byte) error {
	return d.logWrite(walOpIngest, payloads)
}

// logRemove mirrors logIngest. The caller keeps the record in its shard
// until the log record lands: were it dropped first, a checkpoint in that
// window could truncate the covering ingest while no remove was logged,
// losing an acknowledged ingest for a removal never acknowledged.
func (d *dirStore) logRemove(id string) error {
	payload, err := encodeWALRemove(id)
	if err != nil {
		return err
	}
	return d.logWrite(walOpRemove, [][]byte{payload})
}

// logWrite appends operations, stamped with the mutation generation, and
// waits until they are fsync-durable. It returns holding ckptMu for
// reading until endWrite: a checkpoint may not rotate the log between the
// append and the publish, or a record could land in a sealed segment
// while its commit misses the flush, and truncation would lose it.
func (d *dirStore) logWrite(op byte, payloads [][]byte) error {
	d.ckptMu.RLock()
	if d.phase == replaying {
		return nil // the operation being replayed is already in the log
	}
	if _, err := d.wal.AppendBatch(op, d.db.gen.Load(), payloads); err != nil {
		d.ckptMu.RUnlock()
		// A poisoned log means the device failed (not a per-call problem
		// like an oversized payload or a racing Close): transition to
		// storage-fault read-only mode, and classify this very write's
		// failure as the degradation so the serving layer answers 503,
		// not 500 — the write was rejected, not half-applied.
		if poison := d.wal.Err(); poison != nil {
			d.enterDegraded(poison)
			return fmt.Errorf("core: %w: wal append: %w", ErrDegraded, err)
		}
		return fmt.Errorf("core: wal append: %w", err)
	}
	return nil
}

func (d *dirStore) endWrite() { d.ckptMu.RUnlock() }

// linked registers a record link just published (called under imu,
// inside the write window). An adopted record came from the tier: it is
// admitted clean — immediately evictable — and not marked. Any other is
// admitted pinned in the same tracker critical section, since its
// payload is not in the tier until a checkpoint flushes it (which unpins
// it after its manifest commit), and marked dirty in the same epoch as
// its log record (the checkpoint's rotate+swap cannot fall between
// them).
func (d *dirStore) linked(rec *Record) {
	dirty := d.phase != adopting
	d.res.Admit(rec.ID, rec.residentBytes(), &rec.hot, dirty)
	if dirty {
		d.markDirty(rec.ID, true)
	}
}

// unlinked withdraws a removed record from the tracker and marks its
// tombstone for the next checkpoint, inside the remove's write window.
// The ref pointer scopes the drop to exactly this record object: a later
// re-ingest under the same id carries a different ref, so a racing stale
// drop cannot touch the successor's entry.
func (d *dirStore) unlinked(rec *Record) {
	d.res.Drop(rec.ID, &rec.hot)
	d.markDirty(rec.ID, false)
}

// encodeWALIngest refuses what one log record cannot carry, so an
// oversized item fails alone instead of failing its whole batch's append.
func encodeWALIngest(id string, s seq.Sequence) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("core: id of %d bytes exceeds the wal record limit", len(id))
	}
	size := 2 + len(id) + 4 + 16*len(s)
	if size > wal.MaxPayload {
		return nil, fmt.Errorf("core: %q: %d samples exceed the wal record limit", id, len(s))
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	for _, p := range s {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.T))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.V))
	}
	return buf, nil
}

func decodeWALIngest(payload []byte) (string, seq.Sequence, error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("truncated ingest payload")
	}
	idLen := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < idLen+4 {
		return "", nil, fmt.Errorf("truncated ingest payload")
	}
	id := string(payload[:idLen])
	payload = payload[idLen:]
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != 16*n {
		return "", nil, fmt.Errorf("ingest payload holds %d bytes for %d samples", len(payload), n)
	}
	s := make(seq.Sequence, n)
	for i := range s {
		s[i].T = math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i:]))
		s[i].V = math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i+8:]))
	}
	return id, s, nil
}

func encodeWALRemove(id string) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("core: id of %d bytes exceeds the wal record limit", len(id))
	}
	buf := make([]byte, 0, 2+len(id))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
	return append(buf, id...), nil
}

func decodeWALRemove(payload []byte) (string, error) {
	if len(payload) < 2 {
		return "", fmt.Errorf("truncated remove payload")
	}
	idLen := int(binary.LittleEndian.Uint16(payload))
	if len(payload) != 2+idLen {
		return "", fmt.Errorf("remove payload holds %d bytes for a %d-byte id", len(payload)-2, idLen)
	}
	return string(payload[2:]), nil
}

// checkpoint runs one checkpoint with failure accounting: a failure is
// counted and retained for WALStats until a checkpoint succeeds.
// Checkpoints serialize.
func (d *dirStore) checkpoint() error {
	d.ckptRun.Lock()
	defer d.ckptRun.Unlock()
	err := d.runCheckpoint()
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	if err != nil {
		d.ckpt.CheckpointFailures++
		d.ckpt.CheckpointFailStreak++
		d.ckpt.LastCheckpointError = err.Error()
		return err
	}
	d.ckpt.CheckpointFailStreak, d.ckpt.LastCheckpointError = 0, ""
	d.ckpt.LastCheckpoint = time.Now()
	return nil
}

// runCheckpoint flushes the records dirtied since the last checkpoint
// into a new immutable segment and truncates the write-ahead log:
//
//  1. rotate the log and swap out the dirty set, atomically (briefly
//     excluding the append→publish windows, so every record in the
//     sealed log segments is committed in memory and marked dirty),
//  2. encode the dirty records — current payload for live ids,
//     tombstones for removed ones — and flush them as one segment, the
//     manifest committing both the segment and the covered log offset,
//  3. truncate the sealed log segments,
//  4. compact the segment tier if it has reached threshold.
//
// Cost is O(delta): only churned records are written, however large the
// database. A crash between any two steps is safe: before the manifest
// commits, the old segment set plus the full log still replay to the
// acknowledged state; after it, truncation is bookkeeping boot redoes
// from the manifest's LSN. On failure the swapped-out dirty set is
// merged back (the next attempt re-flushes those records — without this
// a later checkpoint would truncate their log entries unflushed).
// Concurrent writes keep committing throughout except during the
// rotation itself. ckptRun is held.
func (d *dirStore) runCheckpoint() error {
	degradedFlush := d.degraded.Load()
	d.ckptMu.Lock()
	var (
		base uint64
		err  error
	)
	if degradedFlush {
		// Storage-fault read-only mode: the poisoned log cannot rotate,
		// but the in-memory state is intact and the segment tier may
		// still accept writes — flush the dirty records from memory
		// anyway, so a fault that outlives the process costs no more
		// replay than necessary. Writes are failing fast with
		// ErrDegraded, so every acknowledged record below NextLSN is
		// covered by this flush plus the existing segments; what the log
		// holds beyond that was never acknowledged.
		base = d.wal.Stats().NextLSN
	} else {
		base, err = d.wal.Rotate()
		if err != nil {
			// A rotation fault poisons the log just like an append fault:
			// enter read-only mode so the next write fails fast instead of
			// discovering the dead log itself.
			if poison := d.wal.Err(); poison != nil {
				d.enterDegraded(poison)
			}
		}
	}
	var dirty map[string]bool
	if err == nil {
		dirty = d.swapDirty()
	}
	d.ckptMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}

	entries, flushed, err := d.encodeDirty(dirty)
	if err != nil {
		d.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	meta, err := json.Marshal(d.manifestMeta())
	if err != nil {
		d.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := d.segs.Flush(entries, base, meta); err != nil {
		d.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	// The manifest has committed: every flushed record's payload is
	// durably in the segment tier, so its residency pin — held since its
	// link to keep eviction away from the only copy — is released. The
	// ref pointer scopes each unpin to the exact record object flushed;
	// a same-id successor from a remove+re-ingest (necessarily in a
	// later dirty epoch) holds its own pin under its own ref.
	for _, rec := range flushed {
		d.res.Unpin(rec.ID, &rec.hot)
	}
	// The dirty records are durably in the segment tier, so the
	// swapped-out set is retired for good. What follows is reclamation —
	// a failure here leaves only garbage (extra sealed log segments, an
	// uncompacted tier), which boot and the next checkpoint clean up.
	if err := d.wal.TruncateBefore(base); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := d.segs.Compact(); err != nil {
		return fmt.Errorf("core: checkpoint: compacting segments: %w", err)
	}
	return nil
}

// WALStats describes the durable write path's current depth, for health
// reporting and checkpoint scheduling.
type WALStats struct {
	// Records is the number of log records a crash right now would
	// replay (appends since the last completed checkpoint).
	Records uint64
	// Bytes is the on-disk size of the retained log segments.
	Bytes int64
	// Segments is the retained segment file count.
	Segments int
	// Syncs is the number of data fsyncs the log has issued since boot.
	// Appends over Syncs is the mean group-commit size; a durable
	// IngestBatch is one group by itself.
	Syncs uint64
	// LastCheckpoint is when the last checkpoint completed — at boot,
	// the loaded manifest's modification time.
	// Zero when this database has never checkpointed and booted empty.
	LastCheckpoint time.Time
	// CheckpointFailures counts Checkpoint calls that returned an error
	// since boot. A growing count with a growing Records/Bytes is the
	// unbounded-log alarm health probes watch for.
	CheckpointFailures uint64
	// CheckpointFailStreak counts consecutive Checkpoint failures; the
	// next success resets it to zero. Health probes treat a streak at or
	// above their tolerance as unhealthy even if the node otherwise
	// serves.
	CheckpointFailStreak uint64
	// LastCheckpointError is the most recent checkpoint failure, cleared
	// by the next success. Empty when the last checkpoint succeeded (or
	// none has run).
	LastCheckpointError string
}

func (d *dirStore) walStats() (WALStats, bool) {
	st := d.wal.Stats()
	d.healthMu.Lock()
	out := d.ckpt
	d.healthMu.Unlock()
	out.Records, out.Bytes, out.Segments, out.Syncs = st.Records, st.Bytes, st.Segments, st.Syncs
	return out, true
}

// close stops the recovery probe, then closes the log and the tier.
func (d *dirStore) close() error {
	d.stopProbe()
	first := d.wal.Close()
	if err := d.segs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
