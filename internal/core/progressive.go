package core

// This file is the progressive query cascade: the coarse-to-fine
// candidate producer runQuery selects under progressive delivery. A
// similarity query takes its records from the source the exact plan uses
// — the feature index's candidates when featureScale bounds the metric,
// every record otherwise — answers first from their compact per-record
// sketches with a guaranteed two-sided error band, then tightens the
// survivors' bands with the DFT feature distance, and finally hands what
// remains to the executor's verification fan-out against exact samples —
// the Lernaean-Hydra-style δ-ε progressive contract, in which the exact
// query is the MaxError = 0 mode of the same procedure and the
// approximate mode is a cheaper traversal of the same index.
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

// cascadeRun is one execution of the coarse tiers: the exemplar's sketch,
// the run's parameters and its counters.
type cascadeRun struct {
	// qsk is the exemplar's sketch; nil when sketches are disabled.
	qsk      *multires.Sketch
	spec     *querySpec
	col      *collector
	maxTier  Tier
	maxError float64

	sketched, pruned, bandAccepted atomic.Int64
}

// cascadeTally is one worker's share of a run's counters, merged once
// per chunk of records so the tiers' inner loops touch no shared word.
type cascadeTally struct{ sketched, pruned, bandAccepted int64 }

func (cr *cascadeRun) merge(t cascadeTally) {
	cr.sketched.Add(t.sketched)
	cr.pruned.Add(t.pruned)
	cr.bandAccepted.Add(t.bandAccepted)
}

// settle delivers tier's verdict on c's band and reports whether the
// record goes on to the next tier: a band whose lower edge already
// exceeds the tolerance dismisses it (silently at the sketch tier, where
// the record has no frame yet; with its final reject frame after), a
// decisive band finalizes it as a band accept, and anything else is
// announced with a non-final frame and refined further.
func (cr *cascadeRun) settle(c *candidate, tier Tier, t *cascadeTally) bool {
	pm := ProgressiveMatch{ID: c.rec.ID, Tier: tier, Band: c.band}
	switch {
	case c.band.Lo > cr.spec.initEps:
		t.pruned++
		if tier == TierSketch {
			return false
		}
		pm.Final = true
	case finalizeAt(tier, cr.maxTier, c.band, cr.maxError):
		t.bandAccepted++
		pm.Final, pm.Match = true, bandMatch(c.rec.ID, cr.spec.devKey, c.band)
	}
	cr.col.frame(pm)
	return !pm.Final
}

// sketchStep is tier 1 for one record: band it against the exemplar's
// sketch (unbounded when either side has none), then settle.
func (cr *cascadeRun) sketchStep(c *candidate, t *cascadeTally) bool {
	c.band = Band{Lo: 0, Hi: math.Inf(1)}
	if cr.qsk != nil && c.rec.sketch != nil {
		if lo, hi, ok := multires.DistanceBand(cr.qsk, c.rec.sketch, cr.spec.metric); ok && !math.IsNaN(lo) && !math.IsNaN(hi) {
			c.band = Band{Lo: lo, Hi: hi}
			t.sketched++
		}
	}
	return cr.settle(c, TierSketch, t)
}

// candidateStep is tier 2 for one record: lift the band's lower edge to
// the scaled DFT feature distance the index computed while generating the
// candidate, then settle. An unindexed record keeps its negative fd, which
// floors to zero and lifts nothing, as does every record on the linear
// source (no spec.lb): it is settled on its sketch band, so a cap at this
// tier still gives it its final frame.
func (cr *cascadeRun) candidateStep(c *candidate, t *cascadeTally) bool {
	if lb := cr.spec.lb; lb != nil {
		if flo := bandFloor(c.fd * lb.scale); flo > c.band.Lo {
			c.band.Lo = min(flo, c.band.Hi) // both edges are slacked; never invert the band
		}
	}
	return cr.settle(c, TierCandidate, t)
}

// cascadeChunk is how many records a worker claims at a time in a tier
// pass: enough to amortize the claim and the tally merge, and a selective
// query's few dozen survivors run on one goroutine.
const cascadeChunk = 64

// refine runs one tier's step over items across the worker pool and
// compacts the records that go on in place.
func (db *DB) refine(cr *cascadeRun, items []candidate, step func(*candidate, *cascadeTally) bool) []candidate {
	db.forEachClaimed((len(items)+cascadeChunk-1)/cascadeChunk, func(ci int) {
		var t cascadeTally
		part := items[ci*cascadeChunk : min((ci+1)*cascadeChunk, len(items))]
		for i := range part {
			if cr.col.stopped() || !step(&part[i], &t) {
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

// sketchPass is the linear candidate source: every shard is snapshotted
// and every length-matching record banded at the sketch tier. It is what
// the cascade runs on when the feature index cannot generate the
// candidates — a database without the index, or a custom metric, which
// has no featureScale entry. examined counts every record visited, of
// any length, as on the scan plan.
func (db *DB) sketchPass(cr *cascadeRun) (items []candidate, examined int) {
	shardRecs := db.snapshotRecords()
	surv := make([][]candidate, len(shardRecs))
	var visited atomic.Int64
	db.forEachClaimed(len(shardRecs), func(i int) {
		var out []candidate
		var t cascadeTally
		var ex int64
		for _, rec := range shardRecs[i] {
			if cr.col.stopped() {
				break
			}
			ex++
			if cr.spec.n > 0 && rec.N != cr.spec.n {
				continue
			}
			c := candidate{rec: rec, fd: -1}
			if cr.sketchStep(&c, &t) {
				out = append(out, c)
			}
		}
		surv[i] = out
		visited.Add(ex)
		cr.merge(t)
	})
	for _, s := range surv {
		items = append(items, s...)
	}
	return items, int(visited.Load())
}

// produceCascade is the progressive candidate producer: the sketch and
// candidate tiers emit band frames through the collector — in tier order
// per record — and dismiss, finalize or pass on each record; the
// survivors go to the executor's verification fan-out, which gives each
// its final exact-tier frame.
//
// The records come from the same source the exact plan uses. When the
// query carries a feature lower bound (spec.lb) the feature index
// generates them (collectIndexed, shared with
// produceIndexed): the tree search's dismissals are a sound lower bound,
// so they are silent pre-first-frame dismissals like the sketch tier's
// own, and the tiers run over the index's survivors only. Otherwise the
// linear sketch pass bands every record. The source follows from what
// the spec carries, never from an option.
func (db *DB) produceCascade(spec *querySpec, opts QueryOptions, col *collector, stats *QueryStats) {
	cr := &cascadeRun{spec: spec, col: col, maxTier: opts.MaxTier, maxError: opts.MaxError}
	if db.cfg.SketchBlock > 0 {
		cr.qsk = multires.BuildSketch(spec.exemplar.Values(), db.cfg.SketchBlock)
	}
	if cr.maxTier == TierNone {
		cr.maxTier = TierExact
	}

	// Tier 1 — sketch, over the source's records.
	var items []candidate
	if spec.lb != nil {
		scratch := db.collectIndexed(spec, col, stats)
		defer releaseCands(scratch)
		items = db.refine(cr, *scratch, cr.sketchStep)
	} else {
		items, stats.Examined = db.sketchPass(cr)
	}

	// Tier 2 — candidate. Runs when the index was the source — and when it
	// was not but the caller capped refinement here, to finalize on the
	// sketch bands, the best information such a configuration has.
	if spec.lb != nil || cr.maxTier == TierCandidate {
		items = db.refine(cr, items, cr.candidateStep)
	}
	stats.Sketched = int(cr.sketched.Load())
	stats.Pruned += int(cr.pruned.Load())
	stats.BandAccepted = int(cr.bandAccepted.Load())
	if cr.maxTier != TierExact {
		return
	}

	// Tier 3 — exact: every remaining survivor is verified against its
	// exact samples through the query's verification kernel.
	stats.Candidates = len(items)
	db.verifyAll(col, items)
}
