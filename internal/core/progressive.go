package core

// This file is the progressive query cascade: the coarse-to-fine
// candidate producer runQuery selects under progressive delivery. A
// similarity query answers first from compact per-record sketches with a
// guaranteed two-sided error band, then refines survivors through DFT
// feature-distance pruning, and finally hands what remains to the
// executor's verification fan-out against exact samples — the
// Lernaean-Hydra-style δ-ε progressive contract, in which the exact query
// is the MaxError = 0 mode of the same procedure.
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

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/multires"
)

// Tier is a progressive quality level: how far through the cascade an
// answer (or a refinement cap) has come.
type Tier int

const (
	// TierNone is the zero value; as QueryOptions.MaxTier it means "no
	// cap" (refine all the way to TierExact).
	TierNone Tier = iota
	// TierSketch answers from the per-record multiresolution sketches
	// alone: one band per record, no sample or feature reads.
	TierSketch
	// TierCandidate tightens sketch bands with the DFT feature-distance
	// lower bound (Parseval), still without reading samples.
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

// cascade is the query-side state of the coarse tiers: the exemplar's
// sketch and its feature vector with the lower-bound scaling.
type cascade struct {
	// qsk is the exemplar's sketch; nil when sketches are disabled.
	qsk *multires.Sketch
	// qf is the exemplar's DFT feature vector (z-normalized when useZ)
	// and fscale maps feature distance onto a lower bound of the query
	// metric; fscale 0 disables the candidate tier.
	qf     []float64
	fscale float64
	useZ   bool
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

// featureScale returns the factor mapping the DFT feature distance (a
// Euclidean lower bound by Parseval) onto a lower bound of the named
// metric, and whether the z-normalized vectors are the right ones. A
// zero scale means the metric admits no sound feature bound.
//
//	l1:          L1 ≥ L2 ≥ F
//	l2, zl2:     L2 ≥ F
//	linf, band:  L∞ ≥ L2/√n ≥ F/√n
//	norml2:      L2/√n ≥ F/√n
//	norml1:      L1/n ≥ L2/n ≥ F/n
func featureScale(metric string, n int) (scale float64, useZ bool) {
	fn := float64(n)
	switch metric {
	case "l1", "l2":
		return 1, false
	case "zl2":
		return 1, true
	case "linf", "band", "norml2":
		return 1 / math.Sqrt(fn), false
	case "norml1":
		return 1 / fn, false
	default:
		return 0, false
	}
}

// cascadeOf computes the exemplar-side sketch and feature vector of one
// cascade run.
func (db *DB) cascadeOf(spec *querySpec) cascade {
	var cs cascade
	vals := spec.exemplar.Values()
	if db.cfg.SketchBlock > 0 {
		cs.qsk = multires.BuildSketch(vals, db.cfg.SketchBlock)
	}
	if db.findex != nil {
		scale, useZ := featureScale(spec.metric, len(vals))
		if scale > 0 {
			src := vals
			if useZ {
				src = dist.ZNormalizeValues(vals)
			}
			if qf, err := dft.Features(src, db.findex.k); err == nil {
				cs.qf, cs.fscale, cs.useZ = qf, scale, useZ
			}
		}
	}
	return cs
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

// progItem is one cascade survivor between tiers.
type progItem struct {
	rec  *Record
	band Band
}

// produceCascade is the progressive candidate producer: the sketch and
// candidate tiers emit band frames through the collector — in tier order
// per record — and dismiss, finalize or pass on each record; the
// survivors go to the executor's verification fan-out, which gives each
// its final exact-tier frame.
func (db *DB) produceCascade(spec *querySpec, opts QueryOptions, col *collector, stats *QueryStats) {
	maxTier := opts.MaxTier
	if maxTier == TierNone {
		maxTier = TierExact
	}
	cs := db.cascadeOf(spec)
	eps := spec.initEps
	var examined, sketched, pruned, bandAccepted atomic.Int64

	// Tier 1 — sketch: band every length-matching record against the
	// exemplar's sketch; dismiss (silently) what the band already rules
	// out, finalize what it already settles, pass the rest on.
	shardRecs := db.snapshotRecords()
	surv := make([][]progItem, len(shardRecs))
	db.forEachClaimed(len(shardRecs), func(i int) {
		var out []progItem
		var ex, sk, pr int64
		for _, rec := range shardRecs[i] {
			if col.stopped() {
				break
			}
			ex++
			if spec.n > 0 && rec.N != spec.n {
				continue
			}
			band := Band{Lo: 0, Hi: math.Inf(1)}
			if cs.qsk != nil && rec.sketch != nil {
				if lo, hi, ok := multires.DistanceBand(cs.qsk, rec.sketch, spec.metric); ok && !math.IsNaN(lo) && !math.IsNaN(hi) {
					band = Band{Lo: lo, Hi: hi}
					sk++
				}
			}
			if band.Lo > eps {
				pr++
				continue
			}
			if finalizeAt(TierSketch, maxTier, band, opts.MaxError) {
				bandAccepted.Add(1)
				col.frame(ProgressiveMatch{ID: rec.ID, Tier: TierSketch, Band: band, Final: true,
					Match: bandMatch(rec.ID, spec.devKey, band)})
				continue
			}
			col.frame(ProgressiveMatch{ID: rec.ID, Tier: TierSketch, Band: band})
			out = append(out, progItem{rec: rec, band: band})
		}
		surv[i] = out
		examined.Add(ex)
		sketched.Add(sk)
		pruned.Add(pr)
	})
	var items []progItem
	for _, s := range surv {
		items = append(items, s...)
	}

	// Tier 2 — candidate: tighten each survivor's lower edge with the
	// scaled DFT feature distance. Runs only when the feature index is up
	// and the metric admits a sound scaling; records without feature
	// vectors pass through untouched (and unannounced).
	if len(items) > 0 && cs.qf != nil && cs.fscale > 0 {
		next := make([]progItem, len(items))
		db.forEachClaimed(len(items), func(i int) {
			if col.stopped() {
				return
			}
			it := items[i]
			feats := it.rec.feats
			if cs.useZ {
				feats = it.rec.zfeats
			}
			if feats == nil {
				next[i] = it
				return
			}
			band := it.band
			if flo := bandFloor(dft.FeatureDist(cs.qf, feats) * cs.fscale); flo > band.Lo {
				if flo > band.Hi {
					flo = band.Hi // both edges are slacked; never invert the band
				}
				band.Lo = flo
			}
			if band.Lo > eps {
				pruned.Add(1)
				col.frame(ProgressiveMatch{ID: it.rec.ID, Tier: TierCandidate, Band: band, Final: true})
				return
			}
			if finalizeAt(TierCandidate, maxTier, band, opts.MaxError) {
				bandAccepted.Add(1)
				col.frame(ProgressiveMatch{ID: it.rec.ID, Tier: TierCandidate, Band: band, Final: true,
					Match: bandMatch(it.rec.ID, spec.devKey, band)})
				return
			}
			col.frame(ProgressiveMatch{ID: it.rec.ID, Tier: TierCandidate, Band: band})
			next[i] = progItem{rec: it.rec, band: band}
		})
		items = items[:0]
		for _, it := range next {
			if it.rec != nil {
				items = append(items, it)
			}
		}
	} else if maxTier == TierCandidate {
		// The candidate tier cannot run (no index or no sound scaling)
		// but the caller capped refinement here: finalize on the sketch
		// bands, which is the best information this configuration has.
		for _, it := range items {
			bandAccepted.Add(1)
			col.frame(ProgressiveMatch{ID: it.rec.ID, Tier: TierCandidate, Band: it.band, Final: true,
				Match: bandMatch(it.rec.ID, spec.devKey, it.band)})
		}
	}
	stats.Examined = int(examined.Load())
	stats.Sketched = int(sketched.Load())
	stats.Pruned = int(pruned.Load())
	stats.BandAccepted = int(bandAccepted.Load())
	if maxTier != TierExact {
		return
	}

	// Tier 3 — exact: every remaining survivor is verified against its
	// exact samples through the query's verification kernel.
	cands, bands := make([]*Record, len(items)), make([]Band, len(items))
	for i, it := range items {
		cands[i], bands[i] = it.rec, it.band
	}
	stats.Candidates = len(cands)
	db.verifyAll(col, cands, bands)
}
