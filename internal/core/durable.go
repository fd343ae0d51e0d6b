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
	"time"

	"seqrep/internal/segment"
	"seqrep/internal/seq"
	"seqrep/internal/store"
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
// preprocessing, archive); when a manifest exists its stored scalar
// parameters (ε, δ, bucket width, index coefficients, sketch block) win.
// Raw sequences are not part of the directory: they live in cfg.Archive,
// which boot never reads.
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
	cache := segment.NewCache(segCacheBytes(cfg.SegmentCacheBytes))
	segs, err := segment.Open(filepath.Join(dir, SegmentsDirName), cache, cfg.CompactThreshold)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			segs.Close()
		}
	}()

	var (
		db       *DB
		legacy   bool
		ckptTime time.Time
	)
	if segs.HasManifest() {
		if db, legacy, err = bootFromSegments(segs, cfg); err != nil {
			return nil, err
		}
		if info, statErr := os.Stat(filepath.Join(dir, SegmentsDirName, segment.ManifestFileName)); statErr == nil {
			ckptTime = info.ModTime()
		}
	} else {
		if db, err = New(cfg); err != nil {
			return nil, err
		}
		// Attach the segment tier and arm residency before replay: replayed
		// links then register with the tracker like any live ingest
		// (admitted pinned — their payloads are not in the tier yet).
		// bootFromSegments already did both on the manifest path.
		db.segs = segs
		db.armResidency()
	}

	// Arm delta tracking after adoption (the manifest covers those
	// records) and before replay: a WAL record is by definition not yet
	// in a committed segment, so everything replay applies must flush at
	// the next checkpoint — were it not marked, truncation would lose it.
	db.enableDirtyTracking()
	if legacy {
		// The tier still holds raw-derived vectors and sketches under a
		// manifest that says so. Every checkpoint rewrites the manifest with
		// this binary's source, so the payloads must be rewritten by the
		// same commit: schedule them all, once, before replay (whose marks
		// then win). They stay unpinned — the tier's copy of each
		// representation is still good, only the derived fields are stale.
		for _, id := range db.IDs() {
			db.markDirty(id, true)
		}
	}

	w, err := wal.Open(filepath.Join(dir, WALDirName), wal.Options{})
	if err != nil {
		return nil, err
	}
	if err := w.Replay(db.applyWALRecord); err != nil {
		w.Close()
		return nil, fmt.Errorf("core: replaying wal: %w", err)
	}
	// Reclaim sealed log segments the manifest already covers — the
	// crash window between a checkpoint's rotation and its truncation
	// strands them; their records were just replayed idempotently (and
	// any that actually mattered are in the dirty set now).
	if segs.HasManifest() {
		if err := w.TruncateBefore(segs.LSN()); err != nil {
			w.Close()
			return nil, fmt.Errorf("core: reclaiming covered wal segments: %w", err)
		}
	}
	db.wal = w
	db.probeStop = make(chan struct{})
	if !ckptTime.IsZero() {
		db.lastCkpt.Store(&ckptTime)
	}
	ok = true
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
// remove of an absent id is skipped likewise. db.wal is still nil here,
// so the re-executed operations do not re-append themselves.
func (db *DB) applyWALRecord(r wal.Record) error {
	db.recovery.Replayed++
	switch r.Op {
	case walOpIngest:
		id, s, err := decodeWALIngest(r.Payload)
		if err != nil {
			return fmt.Errorf("core: wal record %d: %w", r.LSN, err)
		}
		if _, ok := db.Record(id); ok {
			db.recovery.SkippedDuplicate++
			return nil
		}
		if _, err := db.IngestRecord(id, s); err != nil {
			// The same deterministic failure the original caller saw: the
			// operation was logged but never acknowledged, so skipping it
			// reproduces the pre-crash state.
			db.recovery.Failed++
			return nil
		}
	case walOpRemove:
		id, err := decodeWALRemove(r.Payload)
		if err != nil {
			return fmt.Errorf("core: wal record %d: %w", r.LSN, err)
		}
		if _, ok := db.Record(id); !ok {
			db.recovery.SkippedMissing++
			return nil
		}
		if err := db.Remove(id); err != nil && !errors.Is(err, store.ErrNotFound) {
			// The in-memory removal succeeded (the id was present above);
			// only an archive fault can land here. A missing raw is the
			// expected replay overlap — the original remove already
			// deleted it — anything else is a real storage fault.
			db.recovery.Failed++
			return nil
		}
	default:
		return fmt.Errorf("core: wal record %d: unknown op %d", r.LSN, r.Op)
	}
	db.recovery.Applied++
	return nil
}

// Recovery reports what the boot-time replay did (zero value when the
// database was not opened via OpenDir or had nothing to replay).
func (db *DB) Recovery() RecoveryStats { return db.recovery }

// walAppend logs one operation and waits until it is fsync-durable,
// stamping the current mutation generation into the record. Called with
// db.ckptMu held for reading: the append→commit window must complete
// before a checkpoint may rotate the log (otherwise a record could land
// in a sealed segment while its in-memory commit misses the flush —
// truncation would then lose an acknowledged write).
func (db *DB) walAppend(op byte, payload []byte) error {
	if _, err := db.wal.Append(op, db.gen.Load(), payload); err != nil {
		// A poisoned log means the device failed (not a per-call problem
		// like an oversized payload or a racing Close): transition to
		// storage-fault read-only mode, and classify this very write's
		// failure as the degradation so the serving layer answers 503,
		// not 500 — the write was rejected, not half-applied.
		if poison := db.wal.Err(); poison != nil {
			db.enterDegraded(poison)
			return fmt.Errorf("core: %w: wal append: %w", ErrDegraded, err)
		}
		return fmt.Errorf("core: wal append: %w", err)
	}
	return nil
}

func encodeWALIngest(id string, s seq.Sequence) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("core: id of %d bytes exceeds the wal record limit", len(id))
	}
	buf := make([]byte, 0, 2+len(id)+4+16*len(s))
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

// Checkpoint flushes the records dirtied since the last checkpoint into
// a new immutable segment and truncates the write-ahead log:
//
//  1. rotate the log and swap out the dirty set, atomically (briefly
//     excluding the append→commit windows, so every record in the
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
// a later checkpoint would truncate their log entries unflushed) and
// the error is retained for WALStats until a checkpoint succeeds.
// Checkpoints serialize; concurrent writes keep committing throughout
// except during the rotation itself.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("core: database has no write-ahead log (not opened via OpenDir)")
	}
	db.ckptRun.Lock()
	defer db.ckptRun.Unlock()
	if err := db.checkpoint(); err != nil {
		db.ckptFails.Add(1)
		db.ckptStreak.Add(1)
		msg := err.Error()
		db.ckptErr.Store(&msg)
		return err
	}
	db.ckptErr.Store(nil)
	db.ckptStreak.Store(0)
	now := time.Now()
	db.lastCkpt.Store(&now)
	return nil
}

// checkpoint is Checkpoint's body, with failure accounting left to the
// caller. ckptRun is held.
func (db *DB) checkpoint() error {
	degradedFlush := db.degraded.Load()
	db.ckptMu.Lock()
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
		base = db.wal.Stats().NextLSN
	} else {
		base, err = db.wal.Rotate()
		if err != nil {
			// A rotation fault poisons the log just like an append fault:
			// enter read-only mode so the next write fails fast instead of
			// discovering the dead log itself.
			if poison := db.wal.Err(); poison != nil {
				db.enterDegraded(poison)
			}
		}
	}
	var dirty map[string]bool
	if err == nil {
		dirty = db.swapDirty()
	}
	db.ckptMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}

	entries, flushed, err := db.encodeDirty(dirty)
	if err != nil {
		db.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	meta, err := json.Marshal(db.manifestMeta())
	if err != nil {
		db.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := db.segs.Flush(entries, base, meta); err != nil {
		db.restoreDirty(dirty)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	// The manifest has committed: every flushed record's payload is
	// durably in the segment tier, so its residency pin — held since its
	// link to keep eviction away from the only copy — is released. The
	// ref pointer scopes each unpin to the exact record object flushed;
	// a same-id successor from a remove+re-ingest (necessarily in a
	// later dirty epoch) holds its own pin under its own ref.
	for _, rec := range flushed {
		db.res.Unpin(rec.ID, &rec.hot)
	}
	// The dirty records are durably in the
	// segment tier, so the swapped-out set is retired for good. What
	// follows is reclamation — a failure here leaves only garbage (extra
	// sealed log segments, an uncompacted tier), which boot and the next
	// checkpoint clean up.
	if err := db.wal.TruncateBefore(base); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := db.segs.Compact(); err != nil {
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

// WALStats reports the write-ahead log's depth; ok is false when the
// database has no log (not opened via OpenDir).
func (db *DB) WALStats() (WALStats, bool) {
	if db.wal == nil {
		return WALStats{}, false
	}
	st := db.wal.Stats()
	out := WALStats{
		Records:              st.Records,
		Bytes:                st.Bytes,
		Segments:             st.Segments,
		CheckpointFailures:   db.ckptFails.Load(),
		CheckpointFailStreak: db.ckptStreak.Load(),
	}
	if t := db.lastCkpt.Load(); t != nil {
		out.LastCheckpoint = *t
	}
	if msg := db.ckptErr.Load(); msg != nil {
		out.LastCheckpointError = *msg
	}
	return out, true
}

// Close releases the write-ahead log (flushing and syncing its tail)
// and the segment tier's open files. Writes racing with Close fail
// unacknowledged; queries against resident records are unaffected. A
// database without a log closes trivially.
func (db *DB) Close() error {
	db.stopProbe()
	var first error
	if db.wal != nil {
		first = db.wal.Close()
	}
	if db.segs != nil {
		if err := db.segs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
