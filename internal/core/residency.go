// Residency: the paging layer between the lock-striped shards and the
// on-disk segment tier. With Config.MemoryBudget > 0 on an OpenDir
// database, record representations become a bounded hot cache: a
// resident.Tracker accounts every representation's bytes, evicts cold
// clean payloads when the budget is exceeded (Record.rep flips to nil),
// and DB.materialize pages missing payloads back in through the storage
// seam's faultIn.
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
	"sync/atomic"

	"seqrep/internal/rep"
	"seqrep/internal/resident"
)

// onEvict is the tracker's eviction callback: release id's
// representation payload. ref scopes the eviction to the record object
// the tracker entry was created for — if the id now names a different
// record (removed and re-ingested), the entry is stale and is dropped
// without touching the successor. Runs with the tracker lock held; it
// takes only a shard read lock (lock order: tracker before shard,
// nothing takes the tracker lock while holding a shard lock).
func (d *dirStore) onEvict(id string, ref *atomic.Bool) bool {
	rec, ok := d.db.Record(id)
	if !ok || &rec.hot != ref {
		return true // record gone or replaced: forget the stale entry
	}
	rec.rep.Store(nil)
	return true
}

// faultIn resolves a cold representation: one segment-tier point lookup
// (bloom filters, then one pread with its CRC and id check), a decode of
// the representation alone — the feature vectors and the sketch are
// resident, so the decoder checks their bytes without copying them —
// then admission to the hot set. The tracker is the only payload cache:
// there is none in the tier, so a cold hit costs one read and one
// decode. The admit happens strictly after a successful read+decode — a
// failed pread surfaces as an error for this caller only and leaves the
// resident set untouched.
func (d *dirStore) faultIn(rec *Record) (*rep.FunctionSeries, error) {
	payload, tomb, found, err := d.segs.Get(rec.ID)
	if err != nil {
		return nil, fmt.Errorf("core: paging %q from segment tier: %w: %w", rec.ID, ErrStorage, err)
	}
	if !found || tomb {
		if cur, ok := d.db.Record(rec.ID); !ok || cur != rec {
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
	fs, _, _, _, err := decodeRecordPayload(d.db, rec.ID, payload, repOnly)
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
	d.res.ColdHit()
	d.res.Admit(rec.ID, rec.residentBytes(), &rec.hot, false)
	// A Remove racing this admit may have issued its Drop before the
	// entry existed; re-check liveness and withdraw so a removed record
	// cannot strand a tracker entry.
	if cur, ok := d.db.Record(rec.ID); !ok || cur != rec {
		d.res.Drop(rec.ID, &rec.hot)
	}
	return fs, nil
}

func (d *dirStore) residencyStats() (resident.Stats, bool) {
	return d.res.Stats(), d.db.cfg.MemoryBudget > 0
}
