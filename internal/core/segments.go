package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"seqrep/internal/feature"
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

func (d *dirStore) manifestMeta() manifestMeta {
	cfg := d.db.cfg
	mm := manifestMeta{
		Epsilon:      cfg.Epsilon,
		Delta:        cfg.Delta,
		Bucket:       cfg.BucketWidth,
		IndexCoeffs:  int64(cfg.IndexCoeffs),
		FeatSource:   featSourceRecon,
		SketchBlock:  int64(cfg.SketchBlock),
		SketchSource: featSourceRecon,
	}
	if d.db.findex == nil {
		mm.IndexCoeffs, mm.FeatSource = -1, featSourceNone
	}
	if cfg.SketchBlock <= 0 {
		mm.SketchBlock, mm.SketchSource = -1, featSourceNone
	}
	return mm
}

// readManifestMeta parses the configuration blob of a committed manifest.
func readManifestMeta(segs *segment.Store) (manifestMeta, error) {
	var mm manifestMeta
	meta := segs.Meta()
	if len(meta) == 0 {
		return mm, fmt.Errorf("core: segment manifest carries no configuration metadata")
	}
	if err := json.Unmarshal(meta, &mm); err != nil {
		return mm, fmt.Errorf("core: segment manifest metadata: %w", err)
	}
	return mm, nil
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

// markDirty notes that id was mutated (live = an upsert, !live = a
// removal that must flush as a tombstone). Last op wins.
//
// dirtyMu, not ckptMu, guards the map: writers call this holding ckptMu
// only for reading, so two writers would otherwise race each other. The
// read hold still gives the ordering that matters — a checkpoint's
// rotate+swap (exclusive) cannot fall between a writer's WAL append and
// its mark, so a mark always lands in the same dirty epoch as its log
// record and truncation can never outrun the dirty set.
func (d *dirStore) markDirty(id string, live bool) {
	d.dirtyMu.Lock()
	d.dirty[id] = live
	d.dirtyMu.Unlock()
}

// swapDirty exchanges the dirty set for a fresh one, returning the old.
// Called by the checkpoint under ckptMu (exclusive), alongside the WAL
// rotation it must be atomic with.
func (d *dirStore) swapDirty() map[string]bool {
	d.dirtyMu.Lock()
	old := d.dirty
	d.dirty = make(map[string]bool, len(old))
	d.dirtyMu.Unlock()
	return old
}

// restoreDirty merges a swapped-out dirty set back after a failed
// checkpoint, so the next attempt re-flushes those records. Ids the
// current set already holds keep their newer mark (last op wins). This
// is correctness, not hygiene: the failed checkpoint did not truncate,
// but a later successful one will truncate past these records' log
// entries — they must be in its flush or they are lost.
func (d *dirStore) restoreDirty(old map[string]bool) {
	d.dirtyMu.Lock()
	for id, live := range old {
		if _, ok := d.dirty[id]; !ok {
			d.dirty[id] = live
		}
	}
	d.dirtyMu.Unlock()
}

// encodeDirty builds the segment entries for one checkpoint: the
// current payload for each live dirty record, a tombstone for each
// removed one, sorted by id as the segment format requires. A dirty id
// whose record vanished between the swap and here (removed concurrently)
// also becomes a tombstone — safe, because the drop only happens after
// the remove's WAL append fsync'd, so the removal is durable in the log
// tail this checkpoint leaves behind. Payloads are encoded on the worker
// pool, each into its id's slot, so the entries come out in id order
// however the pool runs, and a failure reports the lowest failing id.
//
// The second return value lists the live records whose payloads went
// into the entries: once the checkpoint's manifest commits, these are
// the records whose residency pins the checkpoint releases (their only
// copy is no longer RAM + WAL).
func (d *dirStore) encodeDirty(dirty map[string]bool) ([]segment.Entry, []*Record, error) {
	ids := make([]string, 0, len(dirty))
	for id := range dirty {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]segment.Entry, len(ids))
	recs := make([]*Record, len(ids))
	errs := make([]error, len(ids))
	d.db.forEachClaimed(len(ids), func(i int) {
		entries[i] = segment.Entry{ID: ids[i], Tombstone: true}
		rec, ok := d.db.Record(ids[i])
		if !ok {
			return
		}
		// A dirty record is pinned resident, so this is a pointer load,
		// not a fault-in — except the one-time rewrite after a legacy-
		// source boot (OpenDir), whose records are clean in the tier and
		// may be cold. The error path also covers a remove racing between
		// the lookup above and here.
		fs, err := d.db.materialize(rec)
		if err != nil {
			errs[i] = d.db.verifyReadError(rec, err)
			return
		}
		payload, err := encodeRecordPayload(fs, rec)
		if err != nil {
			errs[i] = err
			return
		}
		entries[i], recs[i] = segment.Entry{ID: ids[i], Payload: payload}, rec
	})
	flushed := make([]*Record, 0, len(ids))
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("core: encoding %q: %w", ids[i], err)
		}
		if recs[i] != nil {
			flushed = append(flushed, recs[i])
		}
	}
	return entries, flushed, nil
}

// bootChunk is how many records boot builds on the worker pool before
// linking them under one imu hold: tier records read, decoded and
// profiled, or consecutive logged ingests replayed. A few hundred keeps
// Config.Workers busy and the link amortized, while a budgeted boot
// holds at most the budget plus one chunk.
const bootChunk = 256

// adoptSegments adopts every live record of the committed tier (boot
// phase adopting), a chunk at a time: the chunk's records are read,
// decoded and profiled in parallel, reserved in id order and linked
// together. Under a memory budget the eviction sweep runs as each link
// admits them.
func (d *dirStore) adoptSegments(mm manifestMeta) error {
	live := d.segs.Live()
	batch := make([]pending, min(bootChunk, len(live)))
	for len(live) > 0 {
		chunk := live[:min(bootChunk, len(live))]
		live, batch = live[len(chunk):], batch[:len(chunk)]
		d.db.forEachClaimed(len(chunk), func(i int) {
			batch[i].rec, batch[i].err = d.adoptRecord(chunk[i], mm)
		})
		for _, p := range batch {
			if p.err != nil {
				return p.err
			}
			if !d.db.shardOf(p.rec.ID).reserve(p.rec.ID) {
				return fmt.Errorf("core: duplicate id %q in segment tier", p.rec.ID)
			}
		}
		d.db.link(batch)
		for _, p := range batch {
			if p.err != nil {
				return p.err
			}
		}
	}
	return nil
}

// adoptRecord reads, decodes and profiles one tier record, outside every
// lock. Stored feature vectors and sketches are restored verbatim, except
// those the manifest says derive from archived raws
// (featSourceLegacyRaw): they would bound a form no query verifies
// against, so they are rebuilt from the comparison form.
func (d *dirStore) adoptRecord(e segment.LiveEntry, mm manifestMeta) (*Record, error) {
	payload, err := e.Read()
	if err != nil {
		return nil, err
	}
	fs, feats, zfeats, sk, err := decodeRecordPayload(d.db, e.ID, payload)
	if err != nil {
		return nil, err
	}
	if mm.FeatSource == featSourceLegacyRaw {
		feats, zfeats = nil, nil
	}
	if mm.SketchSource == featSourceLegacyRaw {
		sk = nil
	}
	profile, err := feature.Extract(fs, d.db.cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: adopting %q: %w", e.ID, err)
	}
	rec := &Record{ID: e.ID, N: fs.N, Profile: profile, feats: feats, zfeats: zfeats, sketch: sk}
	rec.setRep(fs)
	d.db.derive(rec)
	return rec, nil
}

func (d *dirStore) segmentStats() (segment.Stats, bool) { return d.segs.Stats(), true }

func (d *dirStore) wrapCheckpointWriter(wrap func(io.Writer) io.Writer) {
	d.segs.SetWrapWriter(wrap)
}

func (d *dirStore) setSegmentReadFault(hook func() error) { d.segs.SetReadFault(hook) }
