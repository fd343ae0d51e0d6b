package core

// This file is the similarity families' one candidate pipeline, which
// runQuery runs under both deliveries. A source hands over records — the
// feature index's candidates when featureScale bounds the metric, every
// record otherwise — and the tiers answer first from their compact
// per-record sketches with a guaranteed two-sided error band, then
// tighten the survivors' bands with the DFT feature distance, and finally
// hand what remains to the executor's verification fan-out against exact
// samples: the Lernaean-Hydra-style δ-ε progressive contract, in which
// the exact query is the MaxError = 0 mode of the same procedure with its
// frames off, and the approximate mode is a cheaper traversal of the
// same index.
//
// The guarantee, relied on by the property suite and the serving layer:
//
//   - Every emitted frame's band contains the record's true distance
//     (Lo ≤ d ≤ Hi, bit-level — the band math carries floating-point
//     slack on both sides).
//   - A record's frames only ever tighten: each successive frame's band
//     is contained in the previous one.
//   - No false dismissals: a record is dropped only when its band's
//     lower edge exceeds the tolerance, so every true match is either
//     accepted or refined further.
//   - False positives are bounded: a match accepted at a non-exact tier
//     has true distance ≤ eps + the accepted band's width, and bands are
//     only accepted early when their width ≤ QueryOptions.MaxError. With
//     MaxError = 0 and full refinement the accepted set is exactly the
//     exact query's match set.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"seqrep/internal/multires"
)

// Tier is a progressive quality level: how far through the cascade an
// answer (or a refinement cap) has come.
type Tier int

const (
	// TierNone is the zero value; as QueryOptions.MaxTier it means "no
	// cap" (refine all the way to TierExact).
	TierNone Tier = iota
	// TierSketch answers from the per-record multiresolution sketches: one
	// band per record the candidate source hands over, no sample reads.
	// (The source itself reads feature vectors when it is the index; a
	// record the index dismisses is never banded.)
	TierSketch
	// TierCandidate tightens sketch bands with the DFT feature-distance
	// lower bound (Parseval) — the distance the index already computed
	// when it is the source — still without reading samples.
	TierCandidate
	// TierExact verifies against exact samples; its bands are points.
	TierExact
)

// String names the tier as it appears in wire frames and querylang.
func (t Tier) String() string {
	switch t {
	case TierSketch:
		return "sketch"
	case TierCandidate:
		return "candidate"
	case TierExact:
		return "exact"
	default:
		return ""
	}
}

// ParseTier resolves a quality-level name ("sketch", "candidate",
// "exact") to its Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "sketch":
		return TierSketch, nil
	case "candidate":
		return TierCandidate, nil
	case "exact":
		return TierExact, nil
	default:
		return TierNone, fmt.Errorf("core: unknown quality tier %q (want sketch, candidate or exact)", s)
	}
}

// Band is a two-sided bound on a record's true distance to the exemplar:
// Lo ≤ d ≤ Hi. Hi may be +Inf when nothing bounds the distance from
// above (a record without a sketch).
type Band struct {
	Lo, Hi float64
}

// Width is the band's uncertainty; +Inf when Hi is unbounded.
func (b Band) Width() float64 { return b.Hi - b.Lo }

// Contains reports whether d lies within the band (inclusive).
func (b Band) Contains(d float64) bool { return b.Lo <= d && d <= b.Hi }

// ProgressiveMatch is one frame of a progressive query's answer stream.
// A record may appear in several frames — its band tightening tier by
// tier — and every record that appears gets exactly one Final frame:
// with a Match when it is accepted, without one when refinement ruled it
// out. Records dismissed before their first frame never appear.
type ProgressiveMatch struct {
	ID   string
	Tier Tier // the tier that produced this frame
	Band Band // current bound on the true distance; tightens monotonically
	// Final marks the record's last frame. Accepted records carry the
	// Match; for answers finalized before exact verification (a band
	// accept or a Tier cap) the Match's deviation is the band's upper
	// edge — an upper bound on the true distance, not the distance
	// itself — and Band still reports both edges.
	Final bool
	Match *Match
}

// bandFloor shrinks a mathematically sound lower bound by the same
// floating-point whisker the band math uses, so summation-order rounding
// can never raise it above the true distance.
func bandFloor(x float64) float64 {
	x = x*(1-1e-9) - 1e-12
	if x < 0 {
		return 0
	}
	return x
}

// finalizeAt reports whether the cascade stops refining a record at the
// given tier: the caller capped refinement here, or the band is already
// as tight as demanded (width ≤ MaxError, which a MaxError of 0 never
// satisfies — exact answers only).
func finalizeAt(tier, maxTier Tier, band Band, maxError float64) bool {
	if tier >= maxTier {
		return true
	}
	return maxError > 0 && band.Width() <= maxError
}

// bandMatch builds the Match for a record accepted on its band alone.
// The deviation reported is the band's upper edge (the sound upper bound
// on the true distance); with an unbounded band — a tier cap over a
// sketchless record — the lower edge stands in, keeping wire encodings
// finite.
func bandMatch(id string, devKey string, band Band) *Match {
	dev := band.Hi
	if math.IsInf(dev, 1) {
		dev = band.Lo
	}
	return &Match{ID: id, Exact: band.Hi == 0, Deviations: map[string]float64{devKey: dev}}
}

// cascadeRun is one run of the candidate pipeline's tiers: the tiers in
// order, the run's parameters and its counters.
type cascadeRun struct {
	spec     *querySpec
	col      *collector
	tiers    []Tier // in order, backed by tierBuf
	tierBuf  [2]Tier
	maxTier  Tier
	maxError float64

	sketched, pruned, bandAccepted, visited, verified atomic.Int64
}

// cascadeTally is one worker's share of a run's counters, merged once
// per chunk of records so the tiers' inner loops touch no shared word.
// visited and verified count the records a streaming source walked and
// those it verified record by record; truncated notes a dismissal at a radius top-K shrank
// below the query's tolerance.
type cascadeTally struct {
	sketched, pruned, bandAccepted, visited, verified int64
	truncated                                         bool
}

func (cr *cascadeRun) merge(t cascadeTally) {
	cr.sketched.Add(t.sketched)
	cr.pruned.Add(t.pruned)
	cr.bandAccepted.Add(t.bandAccepted)
	cr.visited.Add(t.visited)
	cr.verified.Add(t.verified)
	if t.truncated {
		cr.col.noteTruncated()
	}
}

// settle delivers tier's verdict on c's band and reports whether the
// record goes on to the next tier: a band whose lower edge already
// exceeds the verification radius dismisses it (silently at the sketch
// tier, where the record has no frame yet; with its final reject frame
// after), a decisive band finalizes it as a band accept, and anything
// else is announced with a non-final frame and refined further. The
// radius is the query's tolerance, shrunk under top-K to the K-th best
// distance; a dismissal below the tolerance might have been an unbounded
// match, so it marks the answer truncated, as collector.verify does.
func (cr *cascadeRun) settle(c *candidate, tier Tier, t *cascadeTally) bool {
	radius := cr.col.radius()
	var final bool
	var match *Match
	switch {
	case c.band.Lo > radius:
		t.pruned++
		t.truncated = t.truncated || radius < cr.spec.initEps
		if tier == TierSketch {
			return false
		}
		final = true
	case finalizeAt(tier, cr.maxTier, c.band, cr.maxError):
		t.bandAccepted++
		final, match = true, bandMatch(c.rec.ID, cr.spec.devKey, c.band)
	}
	if cr.col.frames != nil {
		cr.col.frame(ProgressiveMatch{ID: c.rec.ID, Tier: tier, Band: c.band, Final: final, Match: match})
	}
	return !final
}

// step runs one tier on one record, then settles it. The sketch tier
// bands the record against the exemplar's sketch (unbounded when either
// side has none). The candidate tier lifts the band's lower edge to the
// scaled DFT feature distance the index computed while generating the
// candidate; an unindexed record keeps its negative fd, which floors to
// zero and lifts nothing, as does every record on the linear source (no
// spec.lb): it is settled on its sketch band, so a cap at this tier
// still gives it its final frame.
func (cr *cascadeRun) step(tier Tier, c *candidate, t *cascadeTally) bool {
	switch tier {
	case TierSketch:
		c.band = Band{Lo: 0, Hi: math.Inf(1)}
		if qsk := cr.spec.qsk; qsk != nil && c.rec.sketch != nil {
			if lo, hi, ok := multires.DistanceBand(qsk, c.rec.sketch, cr.spec.metric); ok && !math.IsNaN(lo) && !math.IsNaN(hi) {
				c.band = Band{Lo: lo, Hi: hi}
				t.sketched++
			}
		}
	case TierCandidate:
		if lb := cr.spec.lb; lb != nil {
			if flo := bandFloor(c.fd * lb.scale); flo > c.band.Lo {
				c.band.Lo = min(flo, c.band.Hi) // both edges are slacked; never invert the band
			}
		}
	}
	return cr.settle(c, tier, t)
}

// run takes one record through the whole chain: every tier, then, if
// none settled it, exact verification.
func (cr *cascadeRun) run(c *candidate, t *cascadeTally) {
	for _, tier := range cr.tiers {
		if !cr.step(tier, c, t) {
			return
		}
	}
	t.verified++
	cr.col.verify(c.rec, c.band)
}

// cascadeChunk is how many records a worker claims at a time in a tier
// pass: enough to amortize the claim and the tally merge, and a selective
// query's few dozen survivors run on one goroutine.
const cascadeChunk = 64

// refine runs one tier over items across the worker pool and compacts
// the records that go on in place.
func (db *DB) refine(cr *cascadeRun, items []candidate, tier Tier) []candidate {
	db.forEachClaimed((len(items)+cascadeChunk-1)/cascadeChunk, func(ci int) {
		var t cascadeTally
		part := items[ci*cascadeChunk : min((ci+1)*cascadeChunk, len(items))]
		for i := range part {
			if cr.col.stopped() || !cr.step(tier, &part[i], &t) {
				part[i].rec = nil
			}
		}
		cr.merge(t)
	})
	kept := items[:0]
	for _, c := range items {
		if c.rec != nil {
			kept = append(kept, c)
		}
	}
	return kept
}

// produceSimilarity is the one candidate pipeline of the distance, value
// and shape families: a source hands over records, the tiers (sketch
// band, then feature bound) dismiss, finalize or pass each on, and the
// survivors go to exact verification. Without a frame sink the tiers
// emit no frame, and with maxError 0 and no tier cap they never accept
// on a band, so exact delivery gets every dismissal progressive delivery
// makes and nothing else. The spec picks the source, never an option:
// the feature index when the query carries a lower bound (spec.lb), at
// its fixed bound or, under top-K, streaming; otherwise a linear walk.
func (db *DB) produceSimilarity(spec *querySpec, opts QueryOptions, col *collector, stats *QueryStats) {
	cr := &cascadeRun{spec: spec, col: col, maxTier: TierExact}
	cr.tiers = cr.tierBuf[:0]
	if col.frames != nil {
		cr.maxError = opts.MaxError
		if opts.MaxTier != TierNone {
			cr.maxTier = opts.MaxTier
		}
	}
	// A tier that can dismiss nothing runs only to give progressive
	// delivery its frames: the sketch tier without a sketch, and the
	// candidate tier without the index's distance, unless a cap at it
	// finalizes the records there.
	if spec.qsk != nil || col.frames != nil {
		cr.tiers = append(cr.tiers, TierSketch)
	}
	if spec.lb != nil || cr.maxTier == TierCandidate {
		cr.tiers = append(cr.tiers, TierCandidate)
	}

	stats.Plan = PlanIndex
	switch {
	case spec.lb == nil:
		stats.Plan = PlanScan
		db.walkRecords(cr, stats)
	case opts.TopK > 0:
		db.streamIndexed(cr, stats)
	default:
		db.collectIndexed(cr, stats)
	}
	if col.frames != nil {
		stats.Plan = PlanProgressive
	}
	stats.Sketched = int(cr.sketched.Load())
	stats.Pruned += int(cr.pruned.Load())
	stats.BandAccepted = int(cr.bandAccepted.Load())
}

// collectIndexed is the index source at the query's fixed bound, with
// no radius feedback: the tree search collects the candidates into
// pooled scratch, and the tiers, each a breadth-first pass, and
// verification run over them afterwards. The length group's read lock is
// held only inside the search, so nothing done with the candidates —
// band tiers, frame delivery, verification — can stall a mutation of the
// group.
func (db *DB) collectIndexed(cr *cascadeRun, stats *QueryStats) {
	spec, col := cr.spec, cr.col
	scratch := candPool.Get().(*[]candidate)
	items := (*scratch)[:0]
	fixed := spec.lb.at(spec.initEps)
	bound := func() float64 {
		if col.stopped() {
			return -1
		}
		return fixed
	}
	stats.Examined, stats.Pruned = db.findex.collect(spec.n, *spec.lb, bound, func(rec *Record, fd float64) bool {
		items = append(items, candidate{rec: rec, fd: fd})
		return true
	})
	*scratch = items // refine compacts in place: the scratch keeps every pointer to clear
	for _, tier := range cr.tiers {
		items = db.refine(cr, items, tier)
	}
	stats.Candidates = len(items)
	db.verifyAll(col, items)
	clear(*scratch) // drop record pointers before pooling the scratch
	*scratch = (*scratch)[:0]
	candPool.Put(scratch)
}

// walkRecords is the linear source: every shard is snapshotted, and
// each length-matching record runs the whole chain inside the walk — the
// tiers, then exact verification — so the walk builds no candidate slice
// however little the tiers dismiss, and under progressive delivery a
// record's frames arrive together. Examined counts every record visited,
// of any length.
func (db *DB) walkRecords(cr *cascadeRun, stats *QueryStats) {
	shardRecs := db.snapshotRecords()
	db.forEachClaimed(len(shardRecs), func(i int) {
		var t cascadeTally
		for _, rec := range shardRecs[i] {
			if cr.col.stopped() {
				break
			}
			t.visited++
			if cr.spec.n > 0 && rec.N != cr.spec.n {
				continue
			}
			cr.run(&candidate{rec: rec, fd: -1}, &t)
		}
		cr.merge(t)
	})
	stats.Examined = int(cr.visited.Load())
	stats.Candidates = int(cr.verified.Load())
}

// streamIndexed is the index source behind top-K: candidate generation
// streams records to a fan-out, each worker running the tiers and then
// exact verification on one record at a time, while the vantage-point-tree
// traversal re-reads the pruning bound at every node — so the best K
// verified so far shrink the search mid-flight, and the search examines
// strictly fewer vectors than the equivalent unbounded query whenever
// the K-th best distance drops below the tolerance.
func (db *DB) streamIndexed(cr *cascadeRun, stats *QueryStats) {
	spec, col := cr.spec, cr.col
	workers := max(db.cfg.Workers, 1)
	candCh := make(chan candidate, 4*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var t cascadeTally
			for c := range candCh {
				if !col.stopped() { // else drain
					cr.run(&c, &t)
				}
			}
			cr.merge(t)
		}()
	}
	var shrunk atomic.Bool
	bound := func() float64 {
		if col.stopped() {
			return -1
		}
		r := col.radius()
		if r < spec.initEps {
			shrunk.Store(true)
		}
		return spec.lb.at(r)
	}
	// The workers drain candCh to its close however the run stops, so a
	// send blocks only until a worker is free.
	emit := func(rec *Record, fd float64) bool {
		if col.stopped() {
			return false
		}
		select {
		case candCh <- candidate{rec: rec, fd: fd}:
			return true
		case <-col.done:
			col.abort()
			return false
		}
	}
	stats.Examined, stats.Pruned = db.findex.collect(spec.n, *spec.lb, bound, emit)
	close(candCh)
	wg.Wait()
	stats.Candidates = int(cr.verified.Load())
	// A feature-pruned row under a tightened bound may have been an
	// unbounded match (by Parseval a true match's feature distance never
	// exceeds its real distance, so only a shrunken bound can prune one):
	// the answer is then possibly short of the unbounded one.
	if shrunk.Load() && stats.Pruned > 0 {
		col.noteTruncated()
	}
}
