// Package dist provides the distance kernels shared by every similarity
// path in seqrep: the ±ε band check of value-based queries (the prior-art
// semantics of the paper's Figure 1), the exact verification step of
// every distance query, the sliding-window match, and the benchmark
// comparisons in cmd/seqbench.
//
// There is one kernel layer, over bare []float64 value vectors: the
// comparison form a stored representation reconstructs into
// (rep.FunctionSeries.AppendValuesUnchecked). The kernels compare values
// pairwise by position and return ErrLengthMismatch when the operands
// disagree in length.
//
// Every kernel early-abandons: given a tolerance it stops as soon as the
// partial sum (or, for the ±ε band, a single sample pair) already exceeds
// it, so a scan over a database of mostly non-matching sequences inspects
// only a prefix of each. This is the standard trick of data-series
// similarity search (cf. the early-abandoning Euclidean distance in the
// Lernaean Hydra study). Within is the one entry point.
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

// ---- kernels ----
//
// Every kernel is a threshold kernel: it answers "is the distance at most
// eps?" cheaper than computing the distance in full. It accumulates in
// squared (or summed) space, compares against a pre-scaled threshold, and
// abandons mid-loop the moment the partial accumulation already decides
// the answer. Abandoning uses a threshold widened by a whisker of
// floating-point headroom (abandonSlack), while a loop that runs to
// completion decides with the exact `d <= eps` comparison. At eps = +Inf
// nothing abandons, so the full distance (L1, L2, ...) is the same kernel
// run to the end: every kernel returns exactly the same accept/reject
// decision as `full <= eps` and, on acceptance, the bit-identical
// distance. Query plans that share these kernels therefore stay
// byte-equivalent with plans that never abandon.

// L1 returns the Manhattan distance Σ|aᵢ-bᵢ| between two equal-length
// value vectors.
func L1(a, b []float64) (float64, error) { return full(l1Within, a, b) }

// L2 returns the Euclidean distance sqrt(Σ(aᵢ-bᵢ)²).
func L2(a, b []float64) (float64, error) { return full(l2Within, a, b) }

// LInf returns the Chebyshev distance max|aᵢ-bᵢ|. A stored sequence lies
// within the ±ε band of an exemplar exactly when LInf(exemplar, stored)
// ≤ ε.
func LInf(a, b []float64) (float64, error) { return full(linfWithin, a, b) }

// NormalizedL1 returns the mean absolute deviation L1(a,b)/n: the L1
// distance normalized by length, comparable across sequence lengths.
func NormalizedL1(a, b []float64) (float64, error) { return full(norml1Within, a, b) }

// NormalizedL2 returns the root-mean-square deviation L2(a,b)/sqrt(n):
// the Euclidean distance normalized by length.
func NormalizedL2(a, b []float64) (float64, error) { return full(norml2Within, a, b) }

// ZNormalizedL2 z-normalizes both value vectors (subtract mean, divide by
// standard deviation) and returns their Euclidean distance. This is the
// standard amplitude- and offset-invariant measure of data-series
// similarity search. A constant sequence z-normalizes to all zeros.
func ZNormalizedL2(a, b []float64) (float64, error) { return full(zl2Within, a, b) }

// withinFunc is a threshold kernel: the distance and whether it is at
// most eps, or a lower bound on it and false once the kernel abandons.
type withinFunc func(a, b []float64, eps float64) (float64, bool, error)

// full runs a threshold kernel to the end.
func full(within withinFunc, a, b []float64) (float64, error) {
	d, _, err := within(a, b, math.Inf(1))
	return d, err
}

// abandonSlack widens an abandon threshold so accumulated rounding can
// never cause a kernel to bail on a pair its full counterpart accepts.
func abandonSlack(t float64) float64 { return t * (1 + 1e-9) }

// abandonSq is the abandon threshold for squared-space accumulation
// against tolerance eps.
func abandonSq(eps float64) float64 { return abandonSlack(eps * eps) }

func l1Within(a, b []float64, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	bail := abandonSlack(eps)
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
		if sum > bail {
			return sum, false, nil
		}
	}
	return sum, sum <= eps, nil
}

func l2Within(a, b []float64, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	bail := abandonSq(eps)
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum), false, nil
		}
	}
	d := math.Sqrt(sum)
	return d, d <= eps, nil
}

// linfWithin is also the ±ε band check of value queries: it rejects at the
// first sample outside the band, returning that sample's deviation, and
// on acceptance returns the largest deviation.
func linfWithin(a, b []float64, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
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

func norml1Within(a, b []float64, eps float64) (float64, bool, error) {
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
		sum += math.Abs(a[i] - b[i])
		if sum > bail {
			return sum / n, false, nil
		}
	}
	d := sum / n
	return d, d <= eps, nil
}

func norml2Within(a, b []float64, eps float64) (float64, bool, error) {
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
		d := a[i] - b[i]
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum) / math.Sqrt(n), false, nil
		}
	}
	d := math.Sqrt(sum) / math.Sqrt(n)
	return d, d <= eps, nil
}

// zl2Within is the threshold form of ZNormalizedL2: the mean and std of
// each operand first, then the z-normalized squared differences
// accumulate with early abandoning against eps².
func zl2Within(a, b []float64, eps float64) (float64, bool, error) {
	if err := checkLen(len(a), len(b)); err != nil {
		return 0, false, err
	}
	if len(a) == 0 {
		return 0, 0 <= eps, nil
	}
	ma, sa := meanStdValues(a)
	mb, sb := meanStdValues(b)
	bail := abandonSq(eps)
	sum := 0.0
	for i := range a {
		d := znorm(a[i], ma, sa) - znorm(b[i], mb, sb)
		sum += d * d
		if sum > bail {
			return math.Sqrt(sum), false, nil
		}
	}
	d := math.Sqrt(sum)
	return d, d <= eps, nil
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
// L2 over two ZNormalizeValues outputs equals ZNormalizedL2 over the
// originals. This is the transform behind the z-normalized lower bound of
// the core feature index.
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

// ---- named metrics ----

// Metric is a named distance kernel over value vectors, the unit of
// run-time parameterization: core.DB.DistanceQuery scans the database
// under any Metric, and command-line tools resolve user-supplied names via
// ByName. An implementation must not retain its arguments past the call:
// query verification passes a reused buffer that the next candidate
// overwrites. The built-in metrics comply.
type Metric interface {
	// Name returns the metric's canonical textual name (e.g. "l2").
	Name() string
	// Distance returns the distance between two equal-length value vectors.
	Distance(a, b []float64) (float64, error)
}

// Thresholded is implemented by metrics that can decide "distance within
// eps?" cheaper than computing the distance in full (early abandoning,
// squared-space comparison). DistanceWithin must return exactly the same
// decision as `Distance(a,b) <= eps` and, when within is true, the exact
// distance; when within is false, d is only a lower bound. Like a
// Metric, an implementation must not retain its arguments past the call.
type Thresholded interface {
	DistanceWithin(a, b []float64, eps float64) (d float64, within bool, err error)
}

// Within reports whether m's distance between a and b is at most eps,
// routing through the metric's early-abandoning kernel when it has one
// and falling back to a full Distance otherwise. This is the one
// verification entry point: every exact query and the sliding-window
// match verify through it.
func Within(m Metric, a, b []float64, eps float64) (d float64, within bool, err error) {
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
	name   string
	within withinFunc
}

func (m metricFunc) Name() string                             { return m.name }
func (m metricFunc) Distance(a, b []float64) (float64, error) { return full(m.within, a, b) }

// DistanceWithin implements Thresholded.
func (m metricFunc) DistanceWithin(a, b []float64, eps float64) (float64, bool, error) {
	return m.within(a, b, eps)
}

// The built-in metrics.
var (
	// Manhattan is L1, named "l1".
	Manhattan Metric = metricFunc{"l1", l1Within}
	// Euclidean is L2, named "l2".
	Euclidean Metric = metricFunc{"l2", l2Within}
	// Chebyshev is LInf, named "linf" — the ±ε band semantics.
	Chebyshev Metric = metricFunc{"linf", linfWithin}
	// MeanAbs is length-normalized L1, named "norml1".
	MeanAbs Metric = metricFunc{"norml1", norml1Within}
	// RMS is length-normalized L2, named "norml2".
	RMS Metric = metricFunc{"norml2", norml2Within}
	// ZEuclidean is z-normalized L2, named "zl2".
	ZEuclidean Metric = metricFunc{"zl2", zl2Within}
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
