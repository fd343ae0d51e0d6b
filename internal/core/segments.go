package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"seqrep/internal/segment"
)

// Segment-tier glue (docs/STORAGE.md): an OpenDir database checkpoints
// into a tier of immutable on-disk segments under dir/segments — the
// only on-disk form of a database. Only the records dirtied since
// the last checkpoint are flushed — O(delta), not O(database) — with
// removals becoming tombstones; the tier's MANIFEST records the WAL
// offset the segments cover, which is both the replay resume point and
// the truncation bound.

// SegmentsDirName is the segment-tier subdirectory of an OpenDir data
// directory.
const SegmentsDirName = "segments"

// manifestMeta is the configuration blob the checkpoint path stores in
// the segment manifest: the scalar parameters a reboot must restore
// before it can decode payloads and rebuild indexes, plus the source the
// stored feature vectors and sketches were computed from (persist.go's
// featSource constants) — a boot that finds the legacy raw source
// rebuilds them instead of restoring them.
type manifestMeta struct {
	Epsilon      float64 `json:"epsilon"`
	Delta        float64 `json:"delta"`
	Bucket       float64 `json:"bucket"`
	IndexCoeffs  int64   `json:"index_coeffs"` // <= 0: feature index disabled
	FeatSource   byte    `json:"feat_source"`
	SketchBlock  int64   `json:"sketch_block"` // <= 0: sketches disabled
	SketchSource byte    `json:"sketch_source"`
}

func (db *DB) manifestMeta() manifestMeta {
	mm := manifestMeta{
		Epsilon:      db.cfg.Epsilon,
		Delta:        db.cfg.Delta,
		Bucket:       db.cfg.BucketWidth,
		IndexCoeffs:  int64(db.cfg.IndexCoeffs),
		FeatSource:   featSourceRecon,
		SketchBlock:  int64(db.cfg.SketchBlock),
		SketchSource: featSourceRecon,
	}
	if db.findex == nil {
		mm.IndexCoeffs, mm.FeatSource = -1, featSourceNone
	}
	if db.cfg.SketchBlock <= 0 {
		mm.SketchBlock, mm.SketchSource = -1, featSourceNone
	}
	return mm
}

// applyManifestMeta folds stored scalar parameters into cfg: stored data
// parameters win (the stored representations were built under them),
// code components stay cfg's.
func applyManifestMeta(cfg Config, mm manifestMeta) (Config, error) {
	const maxCoeffs, maxBlock = 1 << 20, 1 << 20
	if mm.IndexCoeffs > maxCoeffs {
		return cfg, fmt.Errorf("core: implausible index coefficient count %d", mm.IndexCoeffs)
	}
	if mm.SketchBlock > maxBlock {
		return cfg, fmt.Errorf("core: implausible sketch block size %d", mm.SketchBlock)
	}
	if mm.FeatSource > featSourceRecon {
		return cfg, fmt.Errorf("core: unknown feature-vector source %d", mm.FeatSource)
	}
	if mm.SketchSource > featSourceRecon {
		return cfg, fmt.Errorf("core: unknown sketch source %d", mm.SketchSource)
	}
	cfg.Epsilon, cfg.Delta, cfg.BucketWidth = mm.Epsilon, mm.Delta, mm.Bucket
	if mm.IndexCoeffs <= 0 {
		cfg.IndexCoeffs = -1
	} else {
		cfg.IndexCoeffs = int(mm.IndexCoeffs)
	}
	if mm.SketchBlock <= 0 {
		cfg.SketchBlock = -1
	} else {
		cfg.SketchBlock = int(mm.SketchBlock)
	}
	return cfg, nil
}

// segCacheBytes resolves the Config.SegmentCacheBytes knob: zero means
// the 32 MiB default, negative disables the cache.
func segCacheBytes(v int64) int64 {
	if v == 0 {
		return 32 << 20
	}
	if v < 0 {
		return 0
	}
	return v
}

// markDirty notes that id was mutated (live = an upsert, !live = a
// removal that must flush as a tombstone). Last op wins. No-op while
// tracking is disabled (non-durable databases; the segment-adoption
// window at boot, whose records the manifest already covers).
//
// dirtyMu, not ckptMu, guards the map: writers call this holding ckptMu
// only for reading, so two writers would otherwise race each other. The
// read hold still gives the ordering that matters — a checkpoint's
// rotate+swap (exclusive) cannot fall between a writer's WAL append and
// its mark, so a mark always lands in the same dirty epoch as its log
// record and truncation can never outrun the dirty set.
func (db *DB) markDirty(id string, live bool) {
	db.dirtyMu.Lock()
	if db.dirty != nil {
		db.dirty[id] = live
	}
	db.dirtyMu.Unlock()
}

// enableDirtyTracking arms checkpoint delta tracking (OpenDir boot,
// after segment adoption and before WAL replay).
func (db *DB) enableDirtyTracking() {
	db.dirtyMu.Lock()
	db.dirty = make(map[string]bool)
	db.dirtyMu.Unlock()
}

// swapDirty exchanges the dirty set for a fresh one, returning the old.
// Called by Checkpoint under ckptMu (exclusive), alongside the WAL
// rotation it must be atomic with.
func (db *DB) swapDirty() map[string]bool {
	db.dirtyMu.Lock()
	old := db.dirty
	db.dirty = make(map[string]bool, len(old))
	db.dirtyMu.Unlock()
	return old
}

// restoreDirty merges a swapped-out dirty set back after a failed
// checkpoint, so the next attempt re-flushes those records. Ids the
// current set already holds keep their newer mark (last op wins). This
// is correctness, not hygiene: the failed checkpoint did not truncate,
// but a later successful one will truncate past these records' log
// entries — they must be in its flush or they are lost.
func (db *DB) restoreDirty(old map[string]bool) {
	db.dirtyMu.Lock()
	if db.dirty != nil {
		for id, live := range old {
			if _, ok := db.dirty[id]; !ok {
				db.dirty[id] = live
			}
		}
	}
	db.dirtyMu.Unlock()
}

// encodeDirty builds the segment entries for one checkpoint: the
// current payload for each live dirty record, a tombstone for each
// removed one, sorted by id as the segment format requires. A dirty id
// whose record vanished between the swap and here (removed concurrently)
// also becomes a tombstone — safe, because the drop only happens after
// the remove's WAL append fsync'd, so the removal is durable in the log
// tail this checkpoint leaves behind.
//
// The second return value lists the live records whose payloads went
// into the entries: once the checkpoint's manifest commits, these are
// the records whose residency pins the checkpoint releases (their only
// copy is no longer RAM + WAL).
func (db *DB) encodeDirty(dirty map[string]bool) ([]segment.Entry, []*Record, error) {
	ids := make([]string, 0, len(dirty))
	for id := range dirty {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]segment.Entry, 0, len(ids))
	flushed := make([]*Record, 0, len(ids))
	for _, id := range ids {
		rec, ok := db.Record(id)
		if !ok {
			entries = append(entries, segment.Entry{ID: id, Tombstone: true})
			continue
		}
		// A dirty record is pinned resident, so this is a pointer load,
		// not a fault-in — except the one-time rewrite after a legacy-
		// source boot (OpenDir), whose records are clean in the tier and
		// may be cold. The error path also covers a remove racing between
		// the lookup above and here.
		fs, err := db.materialize(rec)
		if err != nil {
			if err = db.verifyReadError(rec, err); err != nil {
				return nil, nil, fmt.Errorf("core: encoding %q: %w", id, err)
			}
			entries = append(entries, segment.Entry{ID: id, Tombstone: true})
			continue
		}
		payload, err := encodeRecordPayload(fs, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("core: encoding %q: %w", id, err)
		}
		entries = append(entries, segment.Entry{ID: id, Payload: payload})
		flushed = append(flushed, rec)
	}
	return entries, flushed, nil
}

// bootFromSegments populates a fresh database from the committed
// segment tier: manifest meta resolves the scalar configuration, then
// every live record is decoded and adopted. Runs before dirty tracking
// is enabled — the manifest already covers these records, so re-flushing
// them at the next checkpoint would defeat the O(delta) contract.
//
// legacy reports a directory whose stored vectors or sketches derive from
// archived raws (featSourceLegacyRaw): those were discarded and rebuilt
// in memory, and the caller must schedule every record for a rewrite so
// the manifest never claims featSourceRecon over raw-derived payloads.
func bootFromSegments(segs *segment.Store, cfg Config) (db *DB, legacy bool, err error) {
	var mm manifestMeta
	meta := segs.Meta()
	if len(meta) == 0 {
		return nil, false, fmt.Errorf("core: segment manifest carries no configuration metadata")
	}
	if err := json.Unmarshal(meta, &mm); err != nil {
		return nil, false, fmt.Errorf("core: segment manifest metadata: %w", err)
	}
	if cfg, err = applyManifestMeta(cfg, mm); err != nil {
		return nil, false, err
	}
	if db, err = New(cfg); err != nil {
		return nil, false, err
	}
	// Attach the tier and arm residency before adoption: each adopted
	// record is admitted clean (dirty tracking is still off and its
	// payload is durably in the tier), so under a memory budget the
	// eviction sweep bounds resident bytes while records stream in —
	// boot never materializes more than the budget plus one record.
	db.segs = segs
	db.armResidency()
	err = segs.Iterate(func(id string, payload []byte) error {
		fs, feats, zfeats, sk, err := decodeRecordPayload(db, id, payload)
		if err != nil {
			return err
		}
		// Raw-derived vectors and sketches would bound a form no query
		// verifies against: drop them and let adopt rebuild.
		if mm.FeatSource == featSourceLegacyRaw {
			feats, zfeats = nil, nil
		}
		if mm.SketchSource == featSourceLegacyRaw {
			sk = nil
		}
		return db.adopt(id, fs, feats, zfeats, sk)
	})
	if err != nil {
		return nil, false, err
	}
	return db, mm.FeatSource == featSourceLegacyRaw || mm.SketchSource == featSourceLegacyRaw, nil
}

// SegmentStats reports the on-disk segment tier's footprint — segment
// and tombstone counts, bytes, compactions, payload-cache occupancy —
// for health endpoints. ok is false when the database has no segment
// tier (not opened via OpenDir).
func (db *DB) SegmentStats() (segment.Stats, bool) {
	if db.segs == nil {
		return segment.Stats{}, false
	}
	return db.segs.Stats(), true
}

// WrapCheckpointWriter installs a writer decorator on segment flushes —
// the checkpoint fault-injection hook tests use to make Checkpoint fail
// mid-write (compare store.FileArchive.WrapWriter). Pass nil to remove.
// No-op without a segment tier.
func (db *DB) WrapCheckpointWriter(wrap func(io.Writer) io.Writer) {
	if db.segs != nil {
		db.segs.SetWrapWriter(wrap)
	}
}

// SetSegmentReadFault installs a fault hook on the segment tier's point
// lookups — the residency subsystem's cold-read path (chaos tests).
// Pass nil to remove. No-op without a segment tier.
func (db *DB) SetSegmentReadFault(hook func() error) {
	if db.segs != nil {
		db.segs.SetReadFault(hook)
	}
}
