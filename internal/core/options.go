package core

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// QueryOptions bounds a similarity query's answer. The zero value asks
// for the classic unbounded behaviour: every match within the tolerance.
//
// Limit caps the number of matches returned; once the cap is reached the
// query stops generating and verifying work. Without TopK the retained
// matches are the first Limit found (scan order is unspecified), so two
// runs of the same limited similarity query may keep different members
// of the full match set; a feature family keeps its canonical prefix.
//
// TopK keeps only the K nearest matches, ordered nearest-first (the same
// exact-first, smallest-deviation, then id order every materialized query
// returns). Unlike Limit it is deterministic — it is exactly the
// unbounded result sorted and truncated to K — and it feeds the
// best-so-far distance back into the search as a shrinking pruning
// radius: once K matches are held, no candidate further than the current
// K-th best is verified, and on the index plan the feature-space bound
// tightens mid-traversal (the classic kNN optimization).
//
// When both are set the effective bound is min(TopK, Limit).
//
// MaxError and MaxTier only affect progressive delivery (QueryProgressive
// and its DistanceQueryProgressive helper); match-level delivery ignores
// them. Progressive delivery is incompatible with TopK — a band-accepted
// answer has no exact distance to rank by.
type QueryOptions struct {
	// Limit caps the result count (0 = unlimited).
	Limit int
	// TopK keeps the K nearest matches by distance (0 = off).
	TopK int
	// MaxError is the progressive quality knob: a record whose error band
	// has tightened to width ≤ MaxError may be accepted without exact
	// verification, so any false positive is within eps+MaxError of the
	// exemplar. 0 demands exact answers (the progressive run then returns
	// exactly the exact query's matches).
	MaxError float64
	// MaxTier caps how deep the progressive cascade refines: TierSketch
	// or TierCandidate answer from bands alone, TierExact (or 0) refines
	// all the way to exact verification.
	MaxTier Tier
}

func (o QueryOptions) validate() error {
	if o.Limit < 0 {
		return fmt.Errorf("core: negative query limit %d", o.Limit)
	}
	if o.TopK < 0 {
		return fmt.Errorf("core: negative top-k %d", o.TopK)
	}
	if math.IsNaN(o.MaxError) || o.MaxError < 0 {
		return fmt.Errorf("core: invalid max error %g", o.MaxError)
	}
	if o.MaxTier < 0 || o.MaxTier > TierExact {
		return fmt.Errorf("core: invalid quality tier %d", o.MaxTier)
	}
	return nil
}

// bound returns the effective result cap: min of the set bounds, 0 when
// neither is set.
func (o QueryOptions) bound() int {
	switch {
	case o.TopK > 0 && o.Limit > 0:
		return min(o.TopK, o.Limit)
	case o.TopK > 0:
		return o.TopK
	default:
		return o.Limit
	}
}

// matchHeap is a bounded worst-at-root heap ordered by matchCompare, so
// the root is the match the next better candidate evicts.
type matchHeap []Match

func (h matchHeap) Len() int           { return len(h) }
func (h matchHeap) Less(i, j int) bool { return matchCompare(h[i], h[j]) > 0 }
func (h matchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() any          { old := *h; n := len(old); m := old[n-1]; *h = old[:n-1]; return m }

// collector funnels verdicts from the query workers into the caller: it
// enforces Limit, maintains the TopK heap and its pruning radius,
// serializes the caller's callback — match-level (yield) or, under
// progressive delivery, frame-level (frames) — or collects the matches
// into out, and carries the stop flags and first hard error of a run. One
// collector lives per query execution.
type collector struct {
	spec *querySpec
	// At most one sink is set; calls are serialized under mu. With
	// neither, matches are appended to out.
	yield  func(Match) bool
	frames func(ProgressiveMatch) bool
	out    []Match

	k      int  // TopK heap size (0 = streaming mode)
	limit  int  // emit cap in streaming mode (0 = unlimited)
	prunes bool // whether the heap radius feeds back into verification

	// radiusBits holds math.Float64bits of the current pruning radius —
	// the query tolerance, shrunk to the K-th best distance once the heap
	// fills. Read lock-free on the hot path; updated under mu.
	radiusBits atomic.Uint64

	// halted tells producers to stop generating work (limit reached, the
	// callback returned false, a hard error, or an abort). aborted flags
	// the involuntary stop: a producer observed done — the caller's
	// context — closed and bailed, so runQuery must report ctx.Err().
	done    <-chan struct{}
	halted  atomic.Bool
	aborted atomic.Bool

	mu        sync.Mutex
	heap      matchHeap
	emitted   int
	truncated bool
	firstErr  error
}

func newCollector(done <-chan struct{}, spec *querySpec, opts QueryOptions, yield func(Match) bool, frames func(ProgressiveMatch) bool) *collector {
	c := &collector{
		spec:   spec,
		yield:  yield,
		frames: frames,
		limit:  opts.Limit,
		prunes: spec.prunes && opts.TopK > 0,
		done:   done,
	}
	if opts.TopK > 0 {
		c.k = opts.bound()
		c.limit = 0 // folded into k
	}
	c.radiusBits.Store(math.Float64bits(spec.initEps))
	return c
}

// radius returns the current verification radius. It only ever shrinks.
func (c *collector) radius() float64 {
	return math.Float64frombits(c.radiusBits.Load())
}

func (c *collector) halt() { c.halted.Store(true) }

// chanClosed is the cheap cooperative-cancellation probe: a non-blocking
// receive on ctx.Done() (nil for background contexts, which never match).
func chanClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// abort records that the caller's context ended and stops the run.
func (c *collector) abort() {
	c.aborted.Store(true)
	c.halt()
}

// stopped is the probe every producer loop polls: it reports whether to
// stop generating work, latching a cancelled context as an abort.
func (c *collector) stopped() bool {
	if c.halted.Load() {
		return true
	}
	if chanClosed(c.done) {
		c.abort()
		return true
	}
	return false
}

// noteTruncated records that work beyond the result bound was discarded.
func (c *collector) noteTruncated() {
	c.mu.Lock()
	c.truncated = true
	c.mu.Unlock()
}

// fail records the first hard verification error and stops the run.
func (c *collector) fail(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	c.halt()
}

func (c *collector) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// found accepts one verified match from a worker. In top-K mode it feeds
// the bounded heap (tightening the pruning radius once full); in
// streaming mode it yields immediately, stopping the run at the limit.
func (c *collector) found(m Match) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.halted.Load() {
		return
	}
	if c.k > 0 {
		if len(c.heap) < c.k {
			heap.Push(&c.heap, m)
		} else if matchCompare(m, c.heap[0]) < 0 {
			c.heap[0] = m
			heap.Fix(&c.heap, 0)
			c.truncated = true
		} else {
			c.truncated = true
			return
		}
		if len(c.heap) == c.k && c.prunes {
			c.radiusBits.Store(math.Float64bits(totalDeviation(c.heap[0])))
		}
		return
	}
	c.delivered(c.emit(m))
}

// emit hands one match to the caller: through yield, or into out.
func (c *collector) emit(m Match) bool {
	if c.yield == nil {
		c.out = append(c.out, m)
		return true
	}
	return c.yield(m)
}

// reserve sizes a collecting run's out for the n matches a feature
// producer is about to deliver (Limit permitting).
func (c *collector) reserve(n int) {
	if c.yield == nil && c.frames == nil {
		if c.limit > 0 {
			n = min(n, c.limit)
		}
		c.out = slices.Grow(c.out, n)
	}
}

// frame delivers one progressive frame; a final frame carrying a Match is
// an accepted answer and counts against Limit like any other.
func (c *collector) frame(pm ProgressiveMatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.halted.Load() {
		return
	}
	more := c.frames(pm)
	if pm.Final && pm.Match != nil {
		c.delivered(more)
	} else if !more {
		c.halt()
	}
}

// delivered accounts one match handed to the caller (callers hold mu) and
// stops the run when the callback declined more or Limit is reached.
func (c *collector) delivered(more bool) {
	c.emitted++
	if !more {
		c.halt()
	} else if c.limit > 0 && c.emitted == c.limit {
		c.truncated = true
		c.halt()
	}
}

// verify checks one candidate's exact samples at the current radius and
// collects the verdict — the step every producer's fan-out ends in. band
// is the candidate's cascade band; under progressive delivery every
// candidate gets its final frame here: the exact distance as a point band
// on an accept, the band it had been refined to on a reject.
func (c *collector) verify(rec *Record, band Band) {
	radius := c.radius()
	m, ok, err := c.spec.verify(rec, radius)
	switch {
	case err != nil:
		c.fail(err)
	case c.frames != nil:
		pm := ProgressiveMatch{ID: rec.ID, Tier: TierExact, Band: band, Final: true}
		if ok {
			accepted := m // copied so only accepted frames put a Match on the heap
			d := m.Deviations[c.spec.devKey]
			pm.Band, pm.Match = Band{Lo: d, Hi: d}, &accepted
		}
		c.frame(pm)
	case ok:
		c.found(m)
	case radius < c.spec.initEps:
		// Rejected at a radius the top-K feedback tightened below the
		// query's own tolerance: it might have been an unbounded match.
		c.noteTruncated()
	}
}

// drain empties the top-K heap in nearest-first order through yield.
// Called once, after every producer has finished.
func (c *collector) drain() {
	if c.k == 0 {
		return
	}
	c.mu.Lock()
	ordered := make([]Match, len(c.heap))
	for i := len(c.heap) - 1; i >= 0; i-- {
		ordered[i] = heap.Pop(&c.heap).(Match)
	}
	c.mu.Unlock()
	for _, m := range ordered {
		c.emitted++
		if !c.emit(m) {
			c.halt()
			return
		}
	}
}
