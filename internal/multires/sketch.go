package multires

import (
	"math"
	"slices"

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
	return BuildSketchZ(nil, vals, dist.ZNormalizeValues(vals), block)
}

// BuildSketchZ is BuildSketch given zvals = dist.ZNormalizeValues(vals)
// as well. Means and ZMeans are appended to buf, windows of buf's own
// array when it has room for 2·NumBlocks more. vals and zvals are not kept.
func BuildSketchZ(buf, vals, zvals []float64, block int) *Sketch {
	if len(vals) == 0 || block <= 0 {
		return nil
	}
	s := &Sketch{N: len(vals), Block: block}
	nb, start := NumBlocks(len(vals), block), len(buf)
	buf = slices.Grow(buf, 2*nb)
	buf, s.R1, s.R2, s.Rinf = blockSummary(buf, vals, block)
	buf, s.ZR1, s.ZR2, s.ZRinf = blockSummary(buf, zvals, block)
	s.Means, s.ZMeans = buf[start:start+nb:start+nb], buf[start+nb:start+2*nb:start+2*nb]
	return s
}

// blockSummary appends per-block means to means and computes the
// residual norms, in one layout shared by the plain and z-normalized
// halves of a sketch.
func blockSummary(means, vals []float64, block int) ([]float64, float64, float64, float64) {
	var r1, ss, rinf float64
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
	return means, r1, math.Sqrt(ss), rinf
}

// Compatible reports whether two sketches summarize the same layout and
// can be banded against each other.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s != nil && o != nil && s.N == o.N && s.Block == o.Block &&
		len(s.Means) == len(o.Means) && len(s.ZMeans) == len(o.ZMeans)
}

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
// Both sides are widened by dist.Slack, the rounding contract, for the
// query q (the first argument): each band loop also sums q's squared
// norm, Σ wⱼ·meanⱼ² + R2² over the compared values (exact by the
// orthogonality above), so the contract costs one multiply-add per block.
func DistanceBand(q, r *Sketch, metric string) (lo, hi float64, ok bool) {
	if !q.Compatible(r) {
		return 0, math.Inf(1), false
	}
	n := float64(q.N)
	var qss float64
	switch metric {
	case "l2":
		lo, hi, qss = l2Band(q, r)
	case "norml2":
		lo, hi, qss = l2Band(q, r)
		rt := math.Sqrt(n)
		lo, hi = lo/rt, hi/rt
	case "l1":
		lo, hi, qss = l1Band(q, r)
	case "norml1":
		lo, hi, qss = l1Band(q, r)
		lo, hi = lo/n, hi/n
	case "linf", "band":
		lo, hi, qss = linfBand(q, r)
	case "zl2":
		lo, hi, qss = zl2Band(q, r)
	default:
		return 0, math.Inf(1), false
	}
	s := dist.QuerySlack(q.N, math.Sqrt(qss))
	return s.Lo(lo), s.Hi(hi), true
}

// lastWeight is the sample count of the final (possibly short) block; all
// earlier blocks weigh Block samples. The weighted loops below are the
// per-record hot path of the band tier, so they stay closure- and
// allocation-free.
func lastWeight(s *Sketch) float64 {
	return float64(s.N - s.Block*(len(s.Means)-1))
}

func l2BandOf(qm, rm []float64, q *Sketch, qr2, rr2 float64) (lo, hi, qss float64) {
	full := float64(q.Block)
	m2sq := 0.0
	nb := len(qm)
	for j := 0; j < nb-1; j++ {
		d := qm[j] - rm[j]
		m2sq += d * d
		qss += qm[j] * qm[j]
	}
	m2sq *= full
	d := qm[nb-1] - rm[nb-1]
	m2sq += lastWeight(q) * d * d
	qss = full*qss + lastWeight(q)*qm[nb-1]*qm[nb-1] + qr2*qr2
	rd := qr2 - rr2
	lo = math.Sqrt(m2sq + rd*rd)
	sum := qr2 + rr2
	hi = math.Sqrt(m2sq + sum*sum)
	return lo, hi, qss
}

func l2Band(q, r *Sketch) (lo, hi, qss float64) { return l2BandOf(q.Means, r.Means, q, q.R2, r.R2) }
func zl2Band(q, r *Sketch) (lo, hi, qss float64) {
	return l2BandOf(q.ZMeans, r.ZMeans, q, q.ZR2, r.ZR2)
}

func l1Band(q, r *Sketch) (lo, hi, qss float64) {
	full := float64(q.Block)
	m1 := 0.0
	nb := len(q.Means)
	for j := 0; j < nb-1; j++ {
		m1 += math.Abs(q.Means[j] - r.Means[j])
		qss += q.Means[j] * q.Means[j]
	}
	m1 *= full
	last := q.Means[nb-1]
	m1 += lastWeight(q) * math.Abs(last-r.Means[nb-1])
	qss = full*qss + lastWeight(q)*last*last + q.R2*q.R2
	resid := q.R1 + r.R1
	lo = math.Max(m1-resid, math.Abs(q.R1-r.R1)-m1)
	if lo < 0 {
		lo = 0
	}
	return lo, m1 + resid, qss
}

func linfBand(q, r *Sketch) (lo, hi, qss float64) {
	minf := 0.0
	nb := len(q.Means)
	for j := 0; j < nb-1; j++ {
		if d := math.Abs(q.Means[j] - r.Means[j]); d > minf {
			minf = d
		}
		qss += q.Means[j] * q.Means[j]
	}
	last := q.Means[nb-1]
	if d := math.Abs(last - r.Means[nb-1]); d > minf {
		minf = d
	}
	qss = float64(q.Block)*qss + lastWeight(q)*last*last + q.R2*q.R2
	resid := q.Rinf + r.Rinf
	lo = math.Max(minf-resid, math.Abs(q.Rinf-r.Rinf)-minf)
	if lo < 0 {
		lo = 0
	}
	return lo, minf + resid, qss
}
