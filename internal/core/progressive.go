package core

// This file is the similarity families' one candidate pipeline, which
// runQuery runs under both deliveries. A source hands over records — the
// feature index's candidates when featureScale bounds the metric, every
// record otherwise — and each record takes one chain: the band tier
// answers from what is resident, with a guaranteed two-sided error band
// (the record's compact sketch against the exemplar's, its lower edge
// lifted by the DFT feature distance), and what the band does not settle
// goes to verification against exact samples: the Lernaean-Hydra-style
// δ-ε progressive contract, in which the exact query is the MaxError = 0
// mode of the same procedure with its frames off, and the approximate
// mode is a cheaper traversal of the same index.
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
	// TierCandidate is the band tier: one two-sided band per record the
	// candidate source hands over, from its stored multiresolution sketch
	// against the exemplar's, with the lower edge lifted to the scaled DFT
	// feature distance the index computed while generating it. It reads
	// no samples. (The source itself reads feature vectors when it is the
	// index; a record the index dismisses is never banded.)
	TierCandidate
	// TierExact verifies against exact samples; its bands are points.
	TierExact
)

// String names the tier as it appears in wire frames and querylang.
func (t Tier) String() string {
	switch t {
	case TierCandidate:
		return "candidate"
	case TierExact:
		return "exact"
	default:
		return ""
	}
}

// ParseTier resolves a quality-level name to its Tier: "candidate" (or
// "sketch", the band tier's older name) and "exact".
func ParseTier(s string) (Tier, error) {
	switch s {
	case "sketch", "candidate":
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
// A record appears in at most two frames — its band, then, unless the
// band settled it, its exact verdict — and every record that appears
// gets exactly one Final frame: with a Match when it is accepted,
// without one when verification ruled it out. Records the index or the
// band dismisses never appear.
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

// cascadeRun is one run of the candidate pipeline: its parameters and its
// counters.
type cascadeRun struct {
	spec     *querySpec
	col      *collector
	maxTier  Tier
	maxError float64

	sketched, pruned, bandAccepted, visited, verified atomic.Int64
}

// cascadeTally is one worker's share of a run's counters, merged once
// per record or shard so the chain touches no shared word. visited and
// verified count the records a source walked and those it verified;
// truncated notes a dismissal at a radius top-K shrank below the query's
// tolerance.
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

// band bounds c's true distance without reading a sample: the record's
// sketch against the exemplar's (unbounded when either side has none),
// with the lower edge lifted to the scaled DFT feature distance the index
// computed while generating the candidate. An unindexed record keeps its
// negative fd, which floors to zero and lifts nothing, as does every
// record on the linear source (no spec.lb).
func (cr *cascadeRun) band(c candidate, t *cascadeTally) Band {
	b := Band{Lo: 0, Hi: math.Inf(1)}
	if qsk := cr.spec.qsk; qsk != nil && c.rec.sketch != nil {
		if lo, hi, ok := multires.DistanceBand(qsk, c.rec.sketch, cr.spec.metric); ok && !math.IsNaN(hi) {
			b = Band{Lo: lo, Hi: hi}
			t.sketched++
		}
	}
	if lb := &cr.spec.lb; lb.prunes() {
		if flo := lb.floor(c.fd); flo > b.Lo {
			b.Lo = min(flo, b.Hi) // both edges are slacked; never invert the band
		}
	}
	return b
}

// settle delivers the band's verdict on record id and reports whether it
// goes on to exact verification. A band whose lower edge already exceeds
// the verification radius dismisses the record, silently, since it has
// no frame yet. A band that is decisive finalizes it as a band accept:
// the caller capped refinement at the band tier, or the band is as tight
// as demanded (width ≤ MaxError, which a MaxError of 0 never satisfies).
// Anything else is announced with a non-final frame and verified. The
// radius is the query's tolerance, shrunk under top-K to the K-th best
// distance; a dismissal below the tolerance might have been an unbounded
// match, so it marks the answer truncated, as collector.verify does.
func (cr *cascadeRun) settle(id string, b Band, t *cascadeTally) bool {
	radius := cr.col.radius()
	if b.Lo > radius {
		t.pruned++
		t.truncated = t.truncated || radius < cr.spec.initEps
		return false
	}
	final := cr.maxTier == TierCandidate || cr.maxError > 0 && b.Width() <= cr.maxError
	var match *Match
	if final {
		t.bandAccepted++
		match = bandMatch(id, cr.spec.devKey, b)
	}
	if cr.col.frames != nil {
		cr.col.frame(ProgressiveMatch{ID: id, Tier: TierCandidate, Band: b, Final: final, Match: match})
	}
	return !final
}

// run takes one record through the whole chain: its band, the band's
// verdict, then, if that did not settle it, exact verification.
func (cr *cascadeRun) run(c candidate, t *cascadeTally) {
	b := cr.band(c, t)
	if !cr.settle(c.rec.ID, b, t) {
		return
	}
	t.verified++
	cr.col.verify(c.rec, b)
}

// produceSimilarity is the one candidate pipeline of the distance, value
// and shape families: a source hands over records, and each runs one
// chain (cascadeRun.run): its sample-free band dismisses, finalizes or
// passes it on, and the survivors are verified against exact samples.
// Without a frame sink the band emits no frame, and with maxError 0 and
// no tier cap it never accepts, so exact delivery gets every dismissal
// progressive delivery makes and nothing else. The spec picks the
// source, never an option: the feature index when the query carries a
// lower bound (spec.lb), at its fixed bound or, under top-K, streaming;
// otherwise a linear walk.
func (db *DB) produceSimilarity(spec *querySpec, opts QueryOptions, col *collector, stats *QueryStats) {
	cr := &cascadeRun{spec: spec, col: col, maxTier: TierExact}
	if col.frames != nil {
		cr.maxError = opts.MaxError
		if opts.MaxTier != TierNone {
			cr.maxTier = opts.MaxTier
		}
	}

	stats.Plan = PlanIndex
	switch {
	case !spec.lb.prunes():
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
	stats.Candidates = int(cr.verified.Load())
	stats.Sketched = int(cr.sketched.Load())
	stats.Pruned += int(cr.pruned.Load())
	stats.BandAccepted = int(cr.bandAccepted.Load())
}

// collectIndexed is the index source at the query's fixed bound, with
// no radius feedback: the tree search collects the candidates into
// pooled scratch, and each then runs the chain on the worker pool. The
// length group's read lock is held only inside the search, so nothing
// done with the candidates — bands, frame delivery, verification — can
// stall a mutation of the group.
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
	stats.Examined, stats.Pruned = db.findex.collect(spec.n, spec.lb, bound, func(rec *Record, fd float64) bool {
		items = append(items, candidate{rec: rec, fd: fd})
		return true
	})
	db.forEachClaimed(len(items), func(i int) {
		if col.stopped() {
			return
		}
		var t cascadeTally
		cr.run(items[i], &t)
		cr.merge(t)
	})
	clear(items) // drop record pointers before pooling the scratch
	*scratch = items[:0]
	candPool.Put(scratch)
}

// walkRecords is the linear source: every shard is snapshotted, and
// each length-matching record runs the whole chain inside the walk, so
// the walk builds no candidate slice however little the band dismisses.
// Examined counts every record visited, of any length.
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
			cr.run(candidate{rec: rec, fd: -1}, &t)
		}
		cr.merge(t)
	})
	stats.Examined = int(cr.visited.Load())
}

// streamIndexed is the index source behind top-K: candidate generation
// streams records to a fan-out, each worker running the chain on one
// record at a time, while the vantage-point-tree traversal re-reads the
// pruning bound at every node — so the best K
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
					cr.run(c, &t)
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
	stats.Examined, stats.Pruned = db.findex.collect(spec.n, spec.lb, bound, emit)
	close(candCh)
	wg.Wait()
	// A feature-pruned row under a tightened bound may have been an
	// unbounded match (by Parseval a true match's feature distance never
	// exceeds its real distance, so only a shrunken bound can prune one):
	// the answer is then possibly short of the unbounded one.
	if shrunk.Load() && stats.Pruned > 0 {
		col.noteTruncated()
	}
}
