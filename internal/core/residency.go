// Residency: the paging layer between the lock-striped shards and the
// on-disk segment tier. With Config.MemoryBudget > 0 on an OpenDir
// database, record representations become a bounded hot cache: a
// resident.Tracker accounts every representation's bytes, evicts cold
// clean payloads when the budget is exceeded (Record.rep flips to nil),
// and the exact-verification / GetRecord paths page missing payloads
// back in from the segment tier through materialize.
//
// Invariants (see docs/STORAGE.md "Residency & paging"):
//
//   - Eviction never drops the only copy: a record is admitted pinned
//     while dirty (WAL-covered, not yet checkpointed) and unpinned only
//     after a checkpoint's manifest commit puts its payload in the
//     tier. A cold record is therefore always clean, and a clean record
//     is always readable from the tier. (The rewrite OpenDir schedules
//     after a legacy-source boot marks records dirty without pinning
//     them: their representations are already in the tier.)
//   - Tombstoned ids stay authoritative: a fault-in that finds a
//     tombstone (the record was removed under the scan) classifies as
//     ErrUnknownID, which query verification treats exactly like the
//     removed-mid-scan case; a record still present whose payload is
//     missing from the tier is an invariant breach and surfaces as
//     ErrStorage.
//   - A failed pread never evicts: faultIn admits to the tracker only
//     after the read and decode succeeded, so an injected disk fault on
//     the cold path leaves residency exactly as it was.
package core

import (
	"fmt"

	"seqrep/internal/rep"
	"seqrep/internal/resident"
	"sync/atomic"
)

// armResidency creates the residency tracker when the configuration and
// storage support it: a memory budget is set and a segment tier exists
// to page from. Called single-threaded during OpenDir boot, after
// db.segs is attached and before any record is adopted or replayed.
func (db *DB) armResidency() {
	if db.cfg.MemoryBudget > 0 && db.segs != nil {
		db.res = resident.New(db.cfg.MemoryBudget, db.onEvictRep)
	}
}

// onEvictRep is the tracker's eviction callback: release id's
// representation payload. ref scopes the eviction to the record object
// the tracker entry was created for — if the id now names a different
// record (removed and re-ingested), the entry is stale and is dropped
// without touching the successor. Runs with the tracker lock held; it
// takes only a shard read lock (lock order: tracker before shard,
// nothing takes the tracker lock while holding a shard lock).
func (db *DB) onEvictRep(id string, ref *atomic.Bool) bool {
	rec, ok := db.Record(id)
	if !ok || &rec.hot != ref {
		return true // record gone or replaced: forget the stale entry
	}
	rec.rep.Store(nil)
	return true
}

// dirtyTracking reports whether dirty tracking is live — the condition
// under which a newly linked record must be admitted pinned (its
// payload exists nowhere but RAM and the WAL until a checkpoint runs).
func (db *DB) dirtyTracking() bool {
	db.dirtyMu.Lock()
	defer db.dirtyMu.Unlock()
	return db.dirty != nil
}

// materialize returns rec's representation, paging it in from the
// segment tier if it was evicted. The hot flag is set on every call, so
// a use between two eviction sweeps grants the payload a second chance.
func (db *DB) materialize(rec *Record) (*rep.FunctionSeries, error) {
	if fs := rec.rep.Load(); fs != nil {
		rec.hot.Store(true)
		return fs, nil
	}
	return db.faultIn(rec)
}

// faultIn resolves a cold representation: segment-tier point lookup
// (bloom filters + payload LRU), payload decode, then admission to the
// hot set. The admit happens strictly after a successful read+decode —
// a failed pread surfaces as an error for this caller only and leaves
// the resident set untouched.
func (db *DB) faultIn(rec *Record) (*rep.FunctionSeries, error) {
	if db.segs == nil {
		// Unreachable by construction (evictions require a tier), kept as
		// an honest failure rather than a nil dereference.
		return nil, fmt.Errorf("core: representation of %q evicted with no segment tier to page from: %w", rec.ID, ErrStorage)
	}
	payload, tomb, found, err := db.segs.Get(rec.ID)
	if err != nil {
		return nil, fmt.Errorf("core: paging %q from segment tier: %w: %w", rec.ID, ErrStorage, err)
	}
	if !found || tomb {
		if cur, ok := db.Record(rec.ID); !ok || cur != rec {
			// The record was removed while this scan held its pointer;
			// the tombstone is authoritative. Query verification skips
			// such records (verifyReadError), Representation reports
			// the id unknown.
			return nil, fmt.Errorf("core: paging %q: %w", rec.ID, ErrUnknownID)
		}
		// Still live but its payload is not in the tier: the clean ⇒
		// durable invariant broke somewhere — never skip silently.
		return nil, fmt.Errorf("core: paging %q: payload missing from segment tier: %w", rec.ID, ErrStorage)
	}
	fs, _, _, _, err := decodeRecordPayload(db, rec.ID, payload)
	if err != nil {
		return nil, fmt.Errorf("core: decoding paged payload of %q: %w: %w", rec.ID, ErrStorage, err)
	}
	if !rec.rep.CompareAndSwap(nil, fs) {
		// Lost the race to a concurrent fault-in: share the winner's
		// series if it is still there, otherwise (evicted again already)
		// install ours — either way every reader sees one valid series.
		if cur := rec.rep.Load(); cur != nil {
			rec.hot.Store(true)
			return cur, nil
		}
		rec.rep.Store(fs)
	}
	db.res.ColdHit()
	db.res.Admit(rec.ID, rec.repBytes, &rec.hot, false)
	// A Remove racing this admit may have issued its Drop before the
	// entry existed; re-check liveness and withdraw so a removed record
	// cannot strand a tracker entry.
	if cur, ok := db.Record(rec.ID); !ok || cur != rec {
		db.res.Drop(rec.ID, &rec.hot)
	}
	return fs, nil
}

// Representation returns the stored function series for id, paging it
// in from the segment tier when it is not resident. The returned series
// is immutable and remains valid even if the record is evicted or
// removed afterwards.
func (db *DB) Representation(id string) (*rep.FunctionSeries, error) {
	rec, ok := db.Record(id)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownID, id)
	}
	fs, err := db.materialize(rec)
	if err != nil {
		if cur, ok := db.Record(id); !ok || cur != rec {
			return nil, fmt.Errorf("core: %w %q", ErrUnknownID, id)
		}
		return nil, err
	}
	return fs, nil
}

// ResidencyStats reports the residency tracker's counters. ok is false
// when no memory budget is configured (fully resident operation).
func (db *DB) ResidencyStats() (resident.Stats, bool) {
	if db.res == nil {
		return resident.Stats{}, false
	}
	return db.res.Stats(), true
}
