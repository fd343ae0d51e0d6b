package fit

import (
	"fmt"
	"math"

	"seqrep/internal/seq"
)

// Line is v = Slope*t + Intercept, the function family used throughout the
// paper's experiments (their Figures 6, 7 and 9 annotate each subsequence
// with exactly such a line).
type Line struct {
	Slope     float64
	Intercept float64
}

// Eval returns Slope*t + Intercept.
func (l Line) Eval(t float64) float64 { return l.Slope*t + l.Intercept }

// Kind returns KindLine.
func (l Line) Kind() Kind { return KindLine }

// AppendParams appends [slope, intercept] to dst.
func (l Line) AppendParams(dst []float64) []float64 { return append(dst, l.Slope, l.Intercept) }

// String renders like the paper's annotations: ".94x+97.66".
func (l Line) String() string {
	sign := "+"
	b := l.Intercept
	if b < 0 {
		sign, b = "-", -b
	}
	return fmt.Sprintf("%sx%s%s", fmtCoef(l.Slope), sign, fmtCoef(b))
}

// LineThrough returns the line interpolating two points. It returns an
// error if the points share a time (vertical line).
func LineThrough(a, b seq.Point) (Line, error) {
	if a.T == b.T {
		return Line{}, fmt.Errorf("fit: cannot interpolate through two points at time %g", a.T)
	}
	slope := (b.V - a.V) / (b.T - a.T)
	return Line{Slope: slope, Intercept: a.V - slope*a.T}, nil
}

// RegressLine returns the least-squares regression line through pts.
// A single point yields a horizontal line through it. It returns an error
// for empty input or when all times coincide.
func RegressLine(pts []seq.Point) (Line, error) {
	switch len(pts) {
	case 0:
		return Line{}, fmt.Errorf("fit: regression on empty point set")
	case 1:
		return Line{Slope: 0, Intercept: pts[0].V}, nil
	}
	var r RunningRegression
	for _, p := range pts {
		r.Add(p.T, p.V)
	}
	return r.Line()
}

// InterpolationFitter fits the line through the first and last point of the
// subsequence — the paper's preferred breaking instantiation ("simpler and
// produces better results", §5.1). A single point yields a horizontal line.
type InterpolationFitter struct{}

// Name implements Fitter.
func (InterpolationFitter) Name() string { return "interpolation" }

// Fit implements Fitter.
func (InterpolationFitter) Fit(pts []seq.Point) (Curve, error) {
	switch len(pts) {
	case 0:
		return nil, fmt.Errorf("fit: interpolation on empty point set")
	case 1:
		return Line{Slope: 0, Intercept: pts[0].V}, nil
	}
	return LineThrough(pts[0], pts[len(pts)-1])
}

// RegressionFitter fits the least-squares regression line, the family the
// paper uses to *represent* subsequences once broken (their Figure 6).
type RegressionFitter struct{}

// Name implements Fitter.
func (RegressionFitter) Name() string { return "regression" }

// Fit implements Fitter.
func (RegressionFitter) Fit(pts []seq.Point) (Curve, error) {
	return RegressLine(pts)
}

// RunningRegression accumulates least-squares sums incrementally so the
// online breaking algorithm can extend a window by one point in O(1).
// The zero value is an empty accumulator.
type RunningRegression struct {
	n                        int
	sumT, sumV, sumTT, sumTV float64
}

// Add includes the sample (t, v).
func (r *RunningRegression) Add(t, v float64) {
	r.n++
	r.sumT += t
	r.sumV += v
	r.sumTT += t * t
	r.sumTV += t * v
}

// Remove excludes a previously added sample (t, v).
func (r *RunningRegression) Remove(t, v float64) {
	r.n--
	r.sumT -= t
	r.sumV -= v
	r.sumTT -= t * t
	r.sumTV -= t * v
}

// N reports the number of accumulated samples.
func (r *RunningRegression) N() int { return r.n }

// Line returns the current least-squares line. It returns an error when
// no samples are present or all times coincide (zero variance in t).
func (r *RunningRegression) Line() (Line, error) {
	if r.n == 0 {
		return Line{}, fmt.Errorf("fit: regression on empty accumulator")
	}
	if r.n == 1 {
		return Line{Slope: 0, Intercept: r.sumV}, nil
	}
	n := float64(r.n)
	den := n*r.sumTT - r.sumT*r.sumT
	if math.Abs(den) < 1e-12*(1+math.Abs(r.sumTT)*n) {
		return Line{}, fmt.Errorf("fit: regression times have zero variance")
	}
	slope := (n*r.sumTV - r.sumT*r.sumV) / den
	return Line{Slope: slope, Intercept: (r.sumV - slope*r.sumT) / n}, nil
}
