package server

import (
	"fmt"
	"testing"

	"seqrep/api"
)

// TestResultCacheKeepsFresher pins the slow-writer race: a put at an
// older generation must not clobber a same-key entry already computed at
// a newer one.
func TestResultCacheKeepsFresher(t *testing.T) {
	c := newResultCache(4)
	fresh := &api.QueryResponse{Generation: 5}
	stale := &api.QueryResponse{Generation: 3}

	c.put("k", 5, fresh)
	c.put("k", 3, stale) // the straggler loses
	if got := c.get("k", 5); got != fresh {
		t.Fatalf("get at gen 5 = %+v, want the fresher entry", got)
	}
	// The other direction still updates.
	fresher := &api.QueryResponse{Generation: 7}
	c.put("k", 7, fresher)
	if got := c.get("k", 7); got != fresher {
		t.Fatal("newer-generation put did not replace")
	}
}

// TestResultCacheGetSparesFresherEntry pins the read side of the
// stalled-request race: a reader holding an old generation must not
// evict a same-key entry already computed at a newer one.
func TestResultCacheGetSparesFresherEntry(t *testing.T) {
	c := newResultCache(4)
	fresh := &api.QueryResponse{Generation: 6}
	c.put("k", 6, fresh)
	if got := c.get("k", 5); got != nil {
		t.Fatal("stale reader was served a future-generation answer")
	}
	if got := c.get("k", 6); got != fresh {
		t.Fatal("stale reader evicted the fresher entry")
	}
	st := c.stats()
	if st.invalidations != 0 {
		t.Fatalf("stale-reader miss counted as invalidation: %+v", st)
	}
}

// TestResultCacheLRUAndInvalidation pins capacity eviction and the
// generation invalidation bookkeeping.
func TestResultCacheLRUAndInvalidation(t *testing.T) {
	c := newResultCache(2)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), 1, &api.QueryResponse{})
	}
	if c.get("k0", 1) != nil {
		t.Fatal("oldest entry survived past capacity")
	}
	if c.get("k2", 1) == nil {
		t.Fatal("newest entry evicted")
	}
	// Generation mismatch: evicts, counts an invalidation and a miss.
	if c.get("k2", 2) != nil {
		t.Fatal("stale-generation entry served")
	}
	if c.get("k2", 2) != nil { // really gone, not just skipped
		t.Fatal("stale entry lingered after invalidation")
	}
	st := c.stats()
	if st.invalidations != 1 || st.hits != 1 || st.entries != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation, 1 hit, 1 entry", st)
	}
}
