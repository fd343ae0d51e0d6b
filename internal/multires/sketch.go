package multires

import (
	"math"

	"seqrep/internal/dist"
)

// Sketch is the compact per-record summary behind the progressive query
// cascade: the sequence's comparison-form values reduced to one mean per
// fixed-size block (one rung of the piecewise-constant multiresolution
// ladder this package builds as a Pyramid) plus the norms of the residual
// — what the block means fail to capture. The block means of a query and
// a record bound their true distance from both sides without touching a
// single sample (see DistanceBand), which is what lets the engine's band
// tier answer first with a guaranteed error band.
//
// The z-normalized fields carry the same summary over the z-normalized
// values, so the zl2 metric gets bands through identical machinery.
// Sketches are immutable after construction.
type Sketch struct {
	// N is the summarized sample count; Block the block size the means
	// were computed over (the last block may be short).
	N, Block int
	// Means holds one mean per block, ceil(N/Block) of them.
	Means []float64
	// R1, R2, Rinf are the L1, L2 and L∞ norms of the residual vector
	// (values minus their block mean).
	R1, R2, Rinf float64
	// ZMeans and ZR* are the same summary over the z-normalized values
	// (dist.ZNormalizeValues, the exact transform zl2 verification uses).
	ZMeans          []float64
	ZR1, ZR2, ZRinf float64
}

// NumBlocks returns how many block means a length-n sketch with the given
// block size holds.
func NumBlocks(n, block int) int {
	if n <= 0 || block <= 0 {
		return 0
	}
	return (n + block - 1) / block
}

// BuildSketch summarizes vals into a Sketch with the given block size.
// It returns nil when vals is empty or block is not positive — callers
// treat a nil sketch as "no information" (an unbounded band).
func BuildSketch(vals []float64, block int) *Sketch {
	return BuildSketchZ(vals, dist.ZNormalizeValues(vals), block)
}

// BuildSketchZ is BuildSketch given zvals = dist.ZNormalizeValues(vals)
// as well, for a caller that already holds it. Neither slice is retained.
func BuildSketchZ(vals, zvals []float64, block int) *Sketch {
	if len(vals) == 0 || block <= 0 {
		return nil
	}
	s := &Sketch{N: len(vals), Block: block}
	s.Means, s.R1, s.R2, s.Rinf = blockSummary(vals, block)
	s.ZMeans, s.ZR1, s.ZR2, s.ZRinf = blockSummary(zvals, block)
	return s
}

// blockSummary computes per-block means and the residual norms in one
// layout shared by the plain and z-normalized halves of a sketch.
func blockSummary(vals []float64, block int) (means []float64, r1, r2, rinf float64) {
	nb := NumBlocks(len(vals), block)
	means = make([]float64, 0, nb)
	ss := 0.0
	// One block at a time: its mean, then its residuals, which the norms
	// take in sample order.
	for lo := 0; lo < len(vals); lo += block {
		part := vals[lo:min(lo+block, len(vals))]
		sum := 0.0
		for _, v := range part {
			sum += v
		}
		mean := sum / float64(len(part))
		means = append(means, mean)
		for _, v := range part {
			r := v - mean
			a := math.Abs(r)
			r1 += a
			ss += r * r
			if a > rinf {
				rinf = a
			}
		}
	}
	r2 = math.Sqrt(ss)
	return means, r1, r2, rinf
}

// Compatible reports whether two sketches summarize the same layout and
// can be banded against each other.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s != nil && o != nil && s.N == o.N && s.Block == o.Block &&
		len(s.Means) == len(o.Means) && len(s.ZMeans) == len(o.ZMeans)
}

// Floating-point soundness slack: the band inequalities are exact in real
// arithmetic; the slack absorbs summation-order rounding so a band always
// contains the exactly-computed distance even at the bit level. Mirrors
// the lower-bound slack of the core query planner.
func soundLo(x float64) float64 {
	x = x*(1-1e-9) - 1e-12
	if x < 0 {
		return 0
	}
	return x
}

func soundHi(x float64) float64 { return x*(1+1e-9) + 1e-12 }

// DistanceBand bounds the distance between the two summarized value
// vectors under the named metric from both sides: lo <= d(q, r) <= hi for
// the true distance d. ok is false — with an uninformative [0, +Inf)
// band — when the sketches are incompatible or the metric is not one the
// sketch can band ("l1", "l2", "linf", "norml1", "norml2", "zl2", and
// "band", the ±ε value-query semantics, which equals linf).
//
// The bounds decompose each vector into its block-mean projection plus a
// residual. For L2 the projection is orthogonal, giving the exact
// decomposition ||q−r||² = m² + ||q⊥−r⊥||² with m the block-mean
// distance; for L1/L∞ the triangle inequality brackets the residual term.
// Both sides are widened by a whisker of floating-point slack so the
// guarantee survives rounding.
func DistanceBand(q, r *Sketch, metric string) (lo, hi float64, ok bool) {
	if !q.Compatible(r) {
		return 0, math.Inf(1), false
	}
	n := float64(q.N)
	switch metric {
	case "l2":
		lo, hi = l2Band(q, r)
	case "norml2":
		lo, hi = l2Band(q, r)
		rt := math.Sqrt(n)
		lo, hi = lo/rt, hi/rt
	case "l1":
		lo, hi = l1Band(q, r)
	case "norml1":
		lo, hi = l1Band(q, r)
		lo, hi = lo/n, hi/n
	case "linf", "band":
		lo, hi = linfBand(q, r)
	case "zl2":
		lo, hi = zl2Band(q, r)
	default:
		return 0, math.Inf(1), false
	}
	return soundLo(lo), soundHi(hi), true
}

// lastWeight is the sample count of the final (possibly short) block; all
// earlier blocks weigh Block samples. The weighted loops below are the
// per-record hot path of the band tier, so they stay closure- and
// allocation-free.
func lastWeight(s *Sketch) float64 {
	return float64(s.N - s.Block*(len(s.Means)-1))
}

func l2BandOf(qm, rm []float64, q *Sketch, qr2, rr2 float64) (lo, hi float64) {
	full := float64(q.Block)
	m2sq := 0.0
	nb := len(qm)
	for j := 0; j < nb-1; j++ {
		d := qm[j] - rm[j]
		m2sq += d * d
	}
	m2sq *= full
	d := qm[nb-1] - rm[nb-1]
	m2sq += lastWeight(q) * d * d
	rd := qr2 - rr2
	lo = math.Sqrt(m2sq + rd*rd)
	sum := qr2 + rr2
	hi = math.Sqrt(m2sq + sum*sum)
	return lo, hi
}

func l2Band(q, r *Sketch) (lo, hi float64)  { return l2BandOf(q.Means, r.Means, q, q.R2, r.R2) }
func zl2Band(q, r *Sketch) (lo, hi float64) { return l2BandOf(q.ZMeans, r.ZMeans, q, q.ZR2, r.ZR2) }

func l1Band(q, r *Sketch) (lo, hi float64) {
	full := float64(q.Block)
	m1 := 0.0
	nb := len(q.Means)
	for j := 0; j < nb-1; j++ {
		m1 += math.Abs(q.Means[j] - r.Means[j])
	}
	m1 *= full
	m1 += lastWeight(q) * math.Abs(q.Means[nb-1]-r.Means[nb-1])
	resid := q.R1 + r.R1
	lo = math.Max(m1-resid, math.Abs(q.R1-r.R1)-m1)
	if lo < 0 {
		lo = 0
	}
	return lo, m1 + resid
}

func linfBand(q, r *Sketch) (lo, hi float64) {
	minf := 0.0
	for j := range q.Means {
		if d := math.Abs(q.Means[j] - r.Means[j]); d > minf {
			minf = d
		}
	}
	resid := q.Rinf + r.Rinf
	lo = math.Max(minf-resid, math.Abs(q.Rinf-r.Rinf)-minf)
	if lo < 0 {
		lo = 0
	}
	return lo, minf + resid
}
