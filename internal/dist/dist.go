// Package dist provides the distance kernels shared by every similarity
// path in seqrep: the ±ε band check of value-based queries (the prior-art
// semantics of the paper's Figure 1), the Euclidean verification step of
// the DFT feature index, and the benchmark comparisons in cmd/seqbench.
//
// The kernels come in two layers. The Sequence functions (L1, L2, LInf,
// WithinBand, ...) operate on seq.Sequence values, compare samples
// pairwise by position, and return ErrLengthMismatch when the operands
// disagree in length. The Values functions (L1Values, L2Values, ...) are
// the same kernels over bare []float64 sample vectors, for hot paths that
// already hold raw values (e.g. sliding-window matching) and must not
// re-wrap them per window.
//
// WithinBand and BandDistance early-abandon: they stop at the first
// sample pair whose difference exceeds the tolerance, so a scan over a
// database of mostly non-matching sequences inspects only a prefix of
// each. This is the standard trick of data-series similarity search (cf.
// the early-abandoning Euclidean distance in the Lernaean Hydra study).
//
// The Metric interface names a kernel so engines can be parameterized by
// distance at run time (core.DB.DistanceQuery, CLI flags). ByName resolves
// the textual names used on command lines.
package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"seqrep/internal/seq"
)

// ErrLengthMismatch is returned (wrapped, with both lengths) whenever two
// operands of a pairwise distance disagree in length.
var ErrLengthMismatch = errors.New("dist: sequence length mismatch")

// checkLen validates that two operand lengths agree.
func checkLen(na, nb int) error {
	if na != nb {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, na, nb)
	}
	return nil
}

// ---- kernels over sequences ----

// L1 returns the Manhattan distance Σ|aᵢ-bᵢ| between two equal-length
// sequences, comparing values pairwise by position.
func L1(a, b seq.Sequence) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i].V - b[i].V)
	}
	return sum, nil
}

// L2 returns the Euclidean distance sqrt(Σ(aᵢ-bᵢ)²) between two
// equal-length sequences.
func L2(a, b seq.Sequence) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range a {
		d := a[i].V - b[i].V
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// LInf returns the Chebyshev distance max|aᵢ-bᵢ| between two equal-length
// sequences. A stored sequence lies within the ±ε band of an exemplar
// exactly when LInf(exemplar, stored) ≤ ε.
func LInf(a, b seq.Sequence) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i].V - b[i].V); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// WithinBand reports whether every sample of s lies within ±eps of the
// corresponding sample of q — the prior-art query semantics the paper
// generalizes away from. It abandons at the first violating sample, so
// rejecting a far-away sequence costs O(1) rather than O(n).
func WithinBand(q, s seq.Sequence, eps float64) (bool, error) {
	if eps < 0 {
		return false, fmt.Errorf("dist: negative tolerance %g", eps)
	}
	if err := checkLen(len(q), len(s)); err != nil {
		return false, err
	}
	for i := range q {
		if math.Abs(q[i].V-s[i].V) > eps {
			return false, nil
		}
	}
	return true, nil
}

// BandDistance combines WithinBand and LInf in one early-abandoning pass:
// it returns (LInf(q,s), true) when s lies within the ±eps band of q, and
// (partial, false) as soon as a sample violates the band (partial is then
// only a lower bound on the true distance). This is the kernel behind
// core.DB.ValueQuery, which needs both the accept/reject decision and the
// deviation of accepted matches.
func BandDistance(q, s seq.Sequence, eps float64) (float64, bool, error) {
	if eps < 0 {
		return 0, false, fmt.Errorf("dist: negative tolerance %g", eps)
	}
	if err := checkLen(len(q), len(s)); err != nil {
		return 0, false, err
	}
	worst := 0.0
	for i := range q {
		d := math.Abs(q[i].V - s[i].V)
		if d > eps {
			return d, false, nil
		}
		if d > worst {
			worst = d
		}
	}
	return worst, true, nil
}

// ---- normalized variants ----

// NormalizedL1 returns the mean absolute deviation L1(a,b)/n: the L1
// distance normalized by length, comparable across sequence lengths.
func NormalizedL1(a, b seq.Sequence) (float64, error) {
	d, err := L1(a, b)
	if err != nil {
		return 0, err
	}
	if len(a) == 0 {
		return 0, nil
	}
	return d / float64(len(a)), nil
}

// NormalizedL2 returns the root-mean-square deviation L2(a,b)/sqrt(n):
// the Euclidean distance normalized by length.
func NormalizedL2(a, b seq.Sequence) (float64, error) {
	d, err := L2(a, b)
	if err != nil {
		return 0, err
	}
	if len(a) == 0 {
		return 0, nil
	}
	return d / math.Sqrt(float64(len(a))), nil
}

// ZNormalizedL2 z-normalizes both value vectors (subtract mean, divide by
// standard deviation) and returns their Euclidean distance. This is the
// standard amplitude- and offset-invariant measure of data-series
// similarity search. A constant sequence z-normalizes to all zeros.
func ZNormalizedL2(a, b seq.Sequence) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	if len(a) == 0 {
		return 0, nil
	}
	ma, sa := meanStd(a)
	mb, sb := meanStd(b)
	sum := 0.0
	for i := range a {
		d := znorm(a[i].V, ma, sa) - znorm(b[i].V, mb, sb)
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// meanStd computes the population mean and standard deviation over the
// sequence's values directly, without materializing a value slice. The
// accumulation order is identical to meanStdValues, so the two agree
// bit-for-bit — the feature-index transform and verification must use the
// same arithmetic or the lower bound breaks.
func meanStd(s seq.Sequence) (mean, std float64) {
	for _, p := range s {
		mean += p.V
	}
	mean /= float64(len(s))
	ss := 0.0
	for _, p := range s {
		d := p.V - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(s)))
}

// meanStdValues is the one population mean/std computation every
// z-normalization path shares (ZNormalizedL2 verification and the
// feature-index transform must agree exactly, or the lower bound breaks).
func meanStdValues(vals []float64) (mean, std float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)))
}

// ZNormalizeValues returns the z-normalized copy of vals using the same
// population mean/std and zero-variance convention as ZNormalizedL2, so
// L2Values over two ZNormalizeValues outputs equals ZNormalizedL2 over
// the original sequences. This is the transform behind the z-normalized
// lower bound of the core feature index.
func ZNormalizeValues(vals []float64) []float64 {
	return ZNormalizeInto(make([]float64, len(vals)), vals)
}

// ZNormalizeInto is ZNormalizeValues into dst, grown only when it holds
// fewer than len(vals) values: it returns dst[:len(vals)].
func ZNormalizeInto(dst, vals []float64) []float64 {
	dst = slices.Grow(dst[:0], len(vals))[:len(vals)]
	mean, std := meanStdValues(vals)
	for i, v := range vals {
		dst[i] = znorm(v, mean, std)
	}
	return dst
}

func znorm(v, mean, std float64) float64 {
	if std == 0 {
		return 0
	}
	return (v - mean) / std
}

// ---- kernels over bare value vectors ----

// L1Values is L1 over raw sample vectors.
func L1Values(a, b []float64) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum, nil
}

// L2Values is L2 over raw sample vectors — the verification kernel of
// sliding-window subsequence matching, where re-wrapping every window
// into a Sequence would dominate the cost.
func L2Values(a, b []float64) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// LInfValues is LInf over raw sample vectors.
func LInfValues(a, b []float64) (float64, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, err
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// L2ValuesWithin is the early-abandoning threshold form of L2Values: it
// reports whether the Euclidean distance between a and b is at most eps,
// accumulating squared differences and bailing as soon as the partial sum
// already exceeds eps² — no sqrt is taken on the reject path. When within
// is true, d equals L2Values(a, b) bit-for-bit; when false, d is only a
// lower bound on the true distance.
func L2ValuesWithin(a, b []float64, eps float64) (d float64, within bool, err error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	bail := abandonSq(eps)
	sum := 0.0
	for i := range a {
		dd := a[i] - b[i]
		sum += dd * dd
		if sum > bail {
			return math.Sqrt(sum), false, nil
		}
	}
	d = math.Sqrt(sum)
	return d, d <= eps, nil
}

// ---- early-abandoning threshold kernels ----
//
// The *Within kernels answer "is the distance at most eps?" cheaper than
// computing the distance in full: they accumulate in squared (or summed)
// space, compare against a pre-scaled threshold, and abandon mid-loop the
// moment the partial accumulation already decides the answer. Abandoning
// uses a threshold widened by a whisker of floating-point headroom
// (abandonSlack), while a loop that runs to completion decides with the
// exact `d <= eps` comparison — so every kernel returns exactly the same
// accept/reject decision and, on acceptance, bit-identical distances to
// its full counterpart. Query plans that share these kernels therefore
// stay byte-equivalent with plans that never abandon.

// abandonSlack widens an abandon threshold so accumulated rounding can
// never cause a kernel to bail on a pair its full counterpart accepts.
func abandonSlack(t float64) float64 { return t * (1 + 1e-9) }

// abandonSq is the abandon threshold for squared-space accumulation
// against tolerance eps.
func abandonSq(eps float64) float64 { return abandonSlack(eps * eps) }

func l1Within(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	bail := abandonSlack(eps)
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i].V - b[i].V)
		if sum > bail {
			return sum, false, nil
		}
	}
	return sum, sum <= eps, nil
}

func l2Within(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	bail := abandonSq(eps)
	sum := 0.0
	for i := range a {
		d := a[i].V - b[i].V
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum), false, nil
		}
	}
	d := math.Sqrt(sum)
	return d, d <= eps, nil
}

func linfWithin(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i].V - b[i].V); d > worst {
			if d > eps {
				return d, false, nil
			}
			worst = d
		}
	}
	// The final exact comparison (not a bare `true`) keeps the contract
	// for degenerate tolerances: worst can be 0 while eps is negative.
	return worst, worst <= eps, nil
}

func norml1Within(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	if len(a) == 0 {
		return 0, 0 <= eps, nil
	}
	n := float64(len(a))
	bail := abandonSlack(eps * n)
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i].V - b[i].V)
		if sum > bail {
			return sum / n, false, nil
		}
	}
	d := sum / n
	return d, d <= eps, nil
}

func norml2Within(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	if len(a) == 0 {
		return 0, 0 <= eps, nil
	}
	n := float64(len(a))
	bail := abandonSlack(eps * eps * n)
	sum := 0.0
	for i := range a {
		d := a[i].V - b[i].V
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum) / math.Sqrt(n), false, nil
		}
	}
	d := math.Sqrt(sum) / math.Sqrt(n)
	return d, d <= eps, nil
}

// zl2Within is the threshold form of ZNormalizedL2: mean/std of each
// operand are computed in one pass over the Sequence (no value slices are
// materialized), then the z-normalized squared differences accumulate with
// early abandoning against eps².
func zl2Within(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	if len(a) == 0 {
		return 0, 0 <= eps, nil
	}
	ma, sa := meanStd(a)
	mb, sb := meanStd(b)
	bail := abandonSq(eps)
	sum := 0.0
	for i := range a {
		d := znorm(a[i].V, ma, sa) - znorm(b[i].V, mb, sb)
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum), false, nil
		}
	}
	d := math.Sqrt(sum)
	return d, d <= eps, nil
}

// ---- named metrics ----

// Metric is a named distance kernel over sequences, the unit of run-time
// parameterization: core.DB.DistanceQuery scans the database under any
// Metric, and command-line tools resolve user-supplied names via ByName.
// An implementation must not retain its arguments past the call: query
// verification passes a reused buffer that the next candidate overwrites.
// The built-in metrics comply.
type Metric interface {
	// Name returns the metric's canonical textual name (e.g. "l2").
	Name() string
	// Distance returns the distance between two equal-length sequences.
	Distance(a, b seq.Sequence) (float64, error)
}

// Thresholded is implemented by metrics that can decide "distance within
// eps?" cheaper than computing the distance in full (early abandoning,
// squared-space comparison). DistanceWithin must return exactly the same
// decision as `Distance(a,b) <= eps` and, when within is true, the exact
// distance; when within is false, d is only a lower bound. Like a
// Metric, an implementation must not retain its arguments past the call.
type Thresholded interface {
	DistanceWithin(a, b seq.Sequence, eps float64) (d float64, within bool, err error)
}

// DistanceWithin reports whether m's distance between a and b is at most
// eps, routing through the metric's early-abandoning kernel when it has
// one and falling back to a full Distance otherwise. This is the one
// verification entry point of the query planner's hot path.
func DistanceWithin(m Metric, a, b seq.Sequence, eps float64) (d float64, within bool, err error) {
	if tm, ok := m.(Thresholded); ok {
		return tm.DistanceWithin(a, b, eps)
	}
	d, err = m.Distance(a, b)
	if err != nil {
		return 0, false, err
	}
	return d, d <= eps, nil
}

type metricFunc struct {
	name string
	fn   func(a, b seq.Sequence) (float64, error)
	// within is the metric's early-abandoning threshold kernel; nil falls
	// back to a full fn evaluation.
	within func(a, b seq.Sequence, eps float64) (float64, bool, error)
}

func (m metricFunc) Name() string                                { return m.name }
func (m metricFunc) Distance(a, b seq.Sequence) (float64, error) { return m.fn(a, b) }

// DistanceWithin implements Thresholded.
func (m metricFunc) DistanceWithin(a, b seq.Sequence, eps float64) (float64, bool, error) {
	if m.within != nil {
		return m.within(a, b, eps)
	}
	d, err := m.fn(a, b)
	if err != nil {
		return 0, false, err
	}
	return d, d <= eps, nil
}

// The built-in metrics.
var (
	// Manhattan is L1, named "l1".
	Manhattan Metric = metricFunc{"l1", L1, l1Within}
	// Euclidean is L2, named "l2".
	Euclidean Metric = metricFunc{"l2", L2, l2Within}
	// Chebyshev is LInf, named "linf" — the ±ε band semantics.
	Chebyshev Metric = metricFunc{"linf", LInf, linfWithin}
	// MeanAbs is length-normalized L1, named "norml1".
	MeanAbs Metric = metricFunc{"norml1", NormalizedL1, norml1Within}
	// RMS is length-normalized L2, named "norml2".
	RMS Metric = metricFunc{"norml2", NormalizedL2, norml2Within}
	// ZEuclidean is z-normalized L2, named "zl2".
	ZEuclidean Metric = metricFunc{"zl2", ZNormalizedL2, zl2Within}
)

// Metrics returns every built-in metric, in a stable order.
func Metrics() []Metric {
	return []Metric{Manhattan, Euclidean, Chebyshev, MeanAbs, RMS, ZEuclidean}
}

// ByName resolves a metric from its textual name (canonical names plus
// the aliases "manhattan", "euclidean", "chebyshev", "max", "rms", and
// "zeuclidean"; matching is case-sensitive, names are lower-case).
func ByName(name string) (Metric, error) {
	switch name {
	case "l1", "manhattan":
		return Manhattan, nil
	case "l2", "euclidean":
		return Euclidean, nil
	case "linf", "chebyshev", "max":
		return Chebyshev, nil
	case "norml1":
		return MeanAbs, nil
	case "norml2", "rms":
		return RMS, nil
	case "zl2", "zeuclidean":
		return ZEuclidean, nil
	}
	return nil, fmt.Errorf("dist: unknown metric %q (have l1, l2, linf, norml1, norml2, zl2)", name)
}
