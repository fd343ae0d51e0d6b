package dist

import "math"

// Slack is the one rounding contract of every sample-free bound in
// seqrep: the DFT feature bound and the vantage-point-tree walk over it,
// the sketch band, and the band's lower edge lifted by the feature bound.
// Each bound is exact in real arithmetic. Computed in floating point, it
// carries an absolute error set by the magnitude of the values it was
// computed from, not by the distance it bounds: a DC coefficient or a
// block mean of values at level L is off by about u·L (u = 2⁻⁵³) however
// close two sequences are. A near-duplicate far from zero therefore needs
// an absolute term that grows with the level, which a whisker relative to
// the bound alone does not give.
//
// Slack widens a bound x over n values by a relative term and an
// absolute term proportional to the query's L2 norm ‖q‖:
//
//	Lo(x) = x·(1 − rel) − abs    Hi(x) = x·(1 + rel) + abs
//	rel = max(10⁻⁹, c)           abs = 10⁻¹² + c·‖q‖,  c = 32·n·u
//
// The query's norm alone is enough. Only a record within the query's
// radius can have its decision flipped by rounding: any other is outside
// it by more than the error of its own bound. A record within radius r of
// the query has, through featureScale's chain (L2 ≤ d/scale), ‖x‖ ≤ ‖q‖ +
// r/scale, so the error of its bound is of order c·(2‖q‖ + r/scale). The
// absolute term covers the first summand, and the relative term, applied
// to a bound near r, covers the second, because rel ≥ c. Nothing about
// the record is needed, so the contract costs no per-record field.
type Slack struct {
	rel, abs float64
}

// QuerySlack is the contract for a query of n values whose L2 norm is
// qnorm. An infinite or NaN norm (a query whose squares overflow, or one
// holding a NaN) floors every lower edge to 0 and leaves every upper edge
// +Inf or NaN, which the callers read as unbounded: sound, and prunes
// nothing.
func QuerySlack(n int, qnorm float64) Slack {
	c := 32 * float64(n) * 0x1p-53
	return Slack{rel: max(1e-9, c), abs: 1e-12 + c*qnorm}
}

// Lo widens a lower bound x downwards. It never returns less than 0, and
// a NaN bound floors to 0.
func (s Slack) Lo(x float64) float64 {
	x = x*(1-s.rel) - s.abs
	if !(x > 0) {
		return 0
	}
	return x
}

// Hi widens an upper bound, or a radius a lower bound is compared
// against, upwards.
func (s Slack) Hi(x float64) float64 { return x*(1+s.rel) + s.abs }

// Norm returns the L2 norm √Σvᵢ² of vals, the query magnitude QuerySlack
// takes.
func Norm(vals []float64) float64 {
	ss := 0.0
	for _, v := range vals {
		ss += v * v
	}
	return math.Sqrt(ss)
}
