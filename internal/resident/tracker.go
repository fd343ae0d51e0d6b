// Package resident is the residency subsystem that lets one node serve
// datasets larger than RAM: a byte-budgeted CLOCK tracker over record
// representation payloads. The engine keeps every record's id, feature
// vector and multiresolution sketch resident (candidate generation and
// the band tier never touch disk) and registers the heavy
// representation payload here; when the tracked bytes exceed the budget
// the tracker sweeps its CLOCK ring and asks the engine — through the
// onEvict callback — to drop cold, clean payloads, which page back in
// from the on-disk segment tier on their next use.
//
// Correctness hinges on two rules the API encodes directly:
//
//   - Pinning. A dirty record (WAL-covered, not yet checkpointed) is
//     admitted pinned and never offered for eviction: the segment tier
//     does not hold its payload yet, so evicting it would drop the only
//     copy. The engine unpins it after the checkpoint's manifest commit
//     makes the segment copy durable.
//
//   - Identity. Entries carry a ref pointer (the record's own hot flag)
//     as an identity token: Unpin and Drop act only when the caller's
//     pointer matches the entry's, so a stale unpin or drop aimed at a
//     record that was removed and re-ingested under the same id cannot
//     touch the successor's entry.
package resident

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of the tracker for health and
// metrics reporting.
type Stats struct {
	// ResidentRecords is the number of payloads currently materialized.
	ResidentRecords int
	// ResidentBytes is their estimated footprint.
	ResidentBytes int64
	// MemoryBudget is the configured byte budget.
	MemoryBudget int64
	// Pinned counts resident payloads exempt from eviction (dirty
	// records whose only copy is in RAM plus the WAL).
	Pinned int
	// Evictions counts payloads evicted since boot.
	Evictions uint64
	// ColdHits counts payload misses served by paging from the segment
	// tier since boot.
	ColdHits uint64
}

// entry is one tracked payload on the CLOCK ring.
type entry struct {
	id    string
	bytes int64
	// ref is the CLOCK reference bit, shared with the owning record so
	// every touch of the payload (a query verification, a GetRecord)
	// grants a second chance without calling into the tracker. It
	// doubles as the entry's identity token.
	ref  *atomic.Bool
	pins int
	idx  int // position in the ring, maintained on swap-remove
}

// Tracker is the byte-budgeted CLOCK over resident payloads. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// tracker is the unlimited-budget, fully-resident mode).
type Tracker struct {
	budget int64
	// onEvict asks the owner to release id's payload; ref is the entry's
	// identity token, so the owner can verify it still names the same
	// record. It returns true when the entry should be forgotten (payload
	// dropped, or the record no longer exists); false leaves the entry in
	// place for the next sweep. Called with the tracker's lock held: the
	// callback must not call back into the tracker.
	onEvict func(id string, ref *atomic.Bool) bool

	mu        sync.Mutex
	entries   map[string]*entry
	ring      []*entry
	hand      int
	bytes     int64
	pinned    int
	evictions atomic.Uint64
	coldHits  atomic.Uint64
}

// New creates a tracker enforcing budget bytes. budget must be > 0 (the
// caller models "unlimited" as a nil *Tracker). onEvict is the owner's
// release callback; see Tracker.onEvict.
func New(budget int64, onEvict func(id string, ref *atomic.Bool) bool) *Tracker {
	return &Tracker{
		budget:  budget,
		onEvict: onEvict,
		entries: make(map[string]*entry),
	}
}

// Admit registers (or re-registers) id's payload as resident, costing
// bytes against the budget, with ref as the entry's CLOCK bit and
// identity token. pin admits the entry pinned (one pin count) in the
// same critical section, so a dirty record can never be selected for
// eviction between its admit and its pin. Admitting an id whose entry
// carries a different ref replaces the stale entry (the record was
// removed and re-ingested); re-admitting with the same ref refreshes
// the byte cost and adds the pin if requested. Over-budget admits
// trigger an eviction sweep before returning.
func (t *Tracker) Admit(id string, bytes int64, ref *atomic.Bool, pin bool) {
	if t == nil {
		return
	}
	ref.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[id]
	if e != nil && e.ref != ref {
		// Stale entry from a removed predecessor under the same id.
		t.removeLocked(e)
		e = nil
	}
	if e == nil {
		e = &entry{id: id, bytes: bytes, ref: ref, idx: len(t.ring)}
		t.entries[id] = e
		t.ring = append(t.ring, e)
		t.bytes += bytes
	} else {
		t.bytes += bytes - e.bytes
		e.bytes = bytes
	}
	if pin {
		if e.pins == 0 {
			t.pinned++
		}
		e.pins++
	}
	t.sweepLocked()
}

// Unpin releases one pin on id's entry, provided ref matches the entry's
// identity. The freed entry becomes evictable on the next sweep, which
// runs immediately if the tracker is over budget.
func (t *Tracker) Unpin(id string, ref *atomic.Bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[id]
	if e == nil || e.ref != ref || e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		t.pinned--
	}
	t.sweepLocked()
}

// Drop forgets id's entry (the record was removed), provided ref matches
// the entry's identity.
func (t *Tracker) Drop(id string, ref *atomic.Bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[id]
	if e == nil || e.ref != ref {
		return
	}
	t.removeLocked(e)
}

// ColdHit counts one payload miss served by paging from the segment
// tier.
func (t *Tracker) ColdHit() {
	if t == nil {
		return
	}
	t.coldHits.Add(1)
}

// Stats snapshots the tracker's counters.
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		ResidentRecords: len(t.ring),
		ResidentBytes:   t.bytes,
		MemoryBudget:    t.budget,
		Pinned:          t.pinned,
		Evictions:       t.evictions.Load(),
		ColdHits:        t.coldHits.Load(),
	}
}

// removeLocked unlinks e from the ring and map and refunds its bytes.
func (t *Tracker) removeLocked(e *entry) {
	last := len(t.ring) - 1
	moved := t.ring[last]
	t.ring[e.idx] = moved
	moved.idx = e.idx
	t.ring = t.ring[:last]
	if t.hand > last-1 {
		t.hand = 0
	}
	delete(t.entries, e.id)
	t.bytes -= e.bytes
	if e.pins > 0 {
		t.pinned--
	}
}

// sweepLocked runs the CLOCK hand until the tracker is back under
// budget or two full revolutions found nothing evictable (everything
// pinned or freshly referenced — staying over budget is then correct:
// the budget bounds cold capacity, it never drops a payload whose only
// copy is in RAM).
func (t *Tracker) sweepLocked() {
	steps := 2 * len(t.ring)
	for t.bytes > t.budget && len(t.ring) > 0 && steps > 0 {
		steps--
		if t.hand >= len(t.ring) {
			t.hand = 0
		}
		e := t.ring[t.hand]
		if e.pins > 0 {
			t.hand++
			continue
		}
		if e.ref.Swap(false) {
			// Referenced since the last pass: second chance.
			t.hand++
			continue
		}
		if t.onEvict(e.id, e.ref) {
			t.removeLocked(e)
			t.evictions.Add(1)
			// The swapped-in tail entry now sits under the hand; do not
			// advance, it deserves inspection too.
			continue
		}
		t.hand++
	}
}
