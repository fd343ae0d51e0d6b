package fit

import (
	"fmt"
	"math"

	"seqrep/internal/seq"
)

// This file implements single-segment cubic Bézier fitting after
// P. J. Schneider, "An Algorithm for Automatically Fitting Digitized
// Curves" (Graphics Gems, 1990) — the algorithm the paper's Figure 8
// template generalizes. The recursive splitting lives in package breaking;
// here we fit one cubic to one run of points: chord-length
// parameterization, least-squares placement of the two inner control
// points along end tangents, and Newton–Raphson reparameterization.

// vec2 is a 2-D point/vector in (time, value) space.
type vec2 struct{ X, Y float64 }

func (a vec2) add(b vec2) vec2      { return vec2{a.X + b.X, a.Y + b.Y} }
func (a vec2) sub(b vec2) vec2      { return vec2{a.X - b.X, a.Y - b.Y} }
func (a vec2) scale(f float64) vec2 { return vec2{a.X * f, a.Y * f} }
func (a vec2) dot(b vec2) float64   { return a.X*b.X + a.Y*b.Y }
func (a vec2) norm() float64        { return math.Hypot(a.X, a.Y) }

func (a vec2) unit() (vec2, bool) {
	n := a.norm()
	if n == 0 {
		return vec2{}, false
	}
	return a.scale(1 / n), true
}

// Bezier is a cubic Bézier curve with control points P[0..3] in
// (time, value) space. P[0] and P[3] interpolate the subsequence
// endpoints.
type Bezier struct {
	P [4]vec2
}

// bernstein weights for a cubic at parameter u.
func b0(u float64) float64 { v := 1 - u; return v * v * v }
func b1(u float64) float64 { v := 1 - u; return 3 * u * v * v }
func b2(u float64) float64 { v := 1 - u; return 3 * u * u * v }
func b3(u float64) float64 { return u * u * u }

// at evaluates the curve position at parameter u by de Casteljau.
func (bz Bezier) at(u float64) vec2 {
	p := bz.P
	for k := 1; k < 4; k++ {
		for i := 0; i < 4-k; i++ {
			p[i] = p[i].scale(1 - u).add(p[i+1].scale(u))
		}
	}
	return p[0]
}

// d1 evaluates the first derivative (a quadratic Bézier) at u.
func (bz Bezier) d1(u float64) vec2 {
	q := [3]vec2{
		bz.P[1].sub(bz.P[0]).scale(3),
		bz.P[2].sub(bz.P[1]).scale(3),
		bz.P[3].sub(bz.P[2]).scale(3),
	}
	for k := 1; k < 3; k++ {
		for i := 0; i < 3-k; i++ {
			q[i] = q[i].scale(1 - u).add(q[i+1].scale(u))
		}
	}
	return q[0]
}

// d2 evaluates the second derivative (a linear Bézier) at u.
func (bz Bezier) d2(u float64) vec2 {
	a := bz.P[2].sub(bz.P[1].scale(2)).add(bz.P[0]).scale(6)
	b := bz.P[3].sub(bz.P[2].scale(2)).add(bz.P[1]).scale(6)
	return a.scale(1 - u).add(b.scale(u))
}

// Eval returns the curve's value at time t. The parametric curve is
// inverted for u such that x(u) = t; with chord-length fitting over
// time-ordered points x(u) is monotone in practice, so bisection suffices.
// Times outside [P0.X, P3.X] clamp to the endpoint values.
func (bz Bezier) Eval(t float64) float64 {
	if t <= bz.P[0].X {
		return bz.P[0].Y
	}
	if t >= bz.P[3].X {
		return bz.P[3].Y
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if bz.at(mid).X < t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return bz.at((lo + hi) / 2).Y
}

// Kind returns KindBezier.
func (bz Bezier) Kind() Kind { return KindBezier }

// AppendParams appends the 8 control-point coordinates
// [x0,y0,...,x3,y3] to dst.
func (bz Bezier) AppendParams(dst []float64) []float64 {
	for _, p := range bz.P {
		dst = append(dst, p.X, p.Y)
	}
	return dst
}

// String renders the control polygon compactly.
func (bz Bezier) String() string {
	return fmt.Sprintf("bezier[(%s,%s)(%s,%s)(%s,%s)(%s,%s)]",
		fmtCoef(bz.P[0].X), fmtCoef(bz.P[0].Y),
		fmtCoef(bz.P[1].X), fmtCoef(bz.P[1].Y),
		fmtCoef(bz.P[2].X), fmtCoef(bz.P[2].Y),
		fmtCoef(bz.P[3].X), fmtCoef(bz.P[3].Y))
}

// MaxDeviation implements Deviator using geometric (Euclidean) distance
// between each point and its closest approach on the curve, which is how
// Schneider's algorithm measures error. Closest parameters are found by a
// dense scan of the curve followed by Newton refinement, so the measure is
// meaningful for a standalone curve independent of how it was fitted.
func (bz Bezier) MaxDeviation(pts []seq.Point) (int, float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	samples := 4 * len(pts)
	if samples < 32 {
		samples = 32
	}
	curve := make([]vec2, samples+1)
	for j := 0; j <= samples; j++ {
		curve[j] = bz.at(float64(j) / float64(samples))
	}
	idx, dev := 0, 0.0
	for i, p := range pts {
		target := vec2{p.T, p.V}
		bestU, bestD := 0.0, math.Inf(1)
		for j := 0; j <= samples; j++ {
			if d := curve[j].sub(target).norm(); d < bestD {
				bestU, bestD = float64(j)/float64(samples), d
			}
		}
		for k := 0; k < 3; k++ {
			bestU = bz.newtonStep(target, bestU)
		}
		if d := bz.at(bestU).sub(target).norm(); d < bestD {
			bestD = d
		}
		if bestD > dev {
			idx, dev = i, bestD
		}
	}
	return idx, dev
}

// chordLengthParams assigns each point a parameter proportional to the
// accumulated polyline length, normalized to [0, 1].
func chordLengthParams(pts []seq.Point) []float64 {
	u := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		d := vec2{pts[i].T, pts[i].V}.sub(vec2{pts[i-1].T, pts[i-1].V}).norm()
		u[i] = u[i-1] + d
	}
	total := u[len(u)-1]
	if total == 0 {
		// Degenerate (coincident points); spread uniformly.
		for i := range u {
			u[i] = float64(i) / float64(max(len(u)-1, 1))
		}
		return u
	}
	for i := range u {
		u[i] /= total
	}
	return u
}

// reparameterize applies one Newton–Raphson step per point to move each
// parameter toward the curve's closest approach of that point.
func (bz Bezier) reparameterize(pts []seq.Point, u []float64) []float64 {
	out := make([]float64, len(u))
	for i, p := range pts {
		out[i] = bz.newtonStep(vec2{p.T, p.V}, u[i])
	}
	return out
}

func (bz Bezier) newtonStep(p vec2, u float64) float64 {
	q := bz.at(u).sub(p)
	q1 := bz.d1(u)
	q2 := bz.d2(u)
	num := q.dot(q1)
	den := q1.dot(q1) + q.dot(q2)
	if math.Abs(den) < 1e-12 {
		return u
	}
	next := u - num/den
	if next < 0 {
		return 0
	}
	if next > 1 {
		return 1
	}
	return next
}

// FitBezier fits a single cubic Bézier to pts using Schneider's method
// with nIterations Newton reparameterization passes (Schneider uses 4).
// It returns an error for fewer than two points.
func FitBezier(pts []seq.Point, nIterations int) (Bezier, error) {
	if len(pts) < 2 {
		return Bezier{}, fmt.Errorf("fit: bezier needs >= 2 points, got %d", len(pts))
	}
	if nIterations < 0 {
		nIterations = 0
	}
	v := make([]vec2, len(pts))
	for i, p := range pts {
		v[i] = vec2{p.T, p.V}
	}
	tHat1 := leftTangent(v)
	tHat2 := rightTangent(v)
	u := chordLengthParams(pts)
	bz := generateBezier(v, u, tHat1, tHat2)
	for iter := 0; iter < nIterations; iter++ {
		u = bz.reparameterize(pts, u)
		bz = generateBezier(v, u, tHat1, tHat2)
	}
	return bz, nil
}

// leftTangent estimates the unit tangent at the first point.
func leftTangent(v []vec2) vec2 {
	for i := 1; i < len(v); i++ {
		if t, ok := v[i].sub(v[0]).unit(); ok {
			return t
		}
	}
	return vec2{1, 0}
}

// rightTangent estimates the unit tangent at the last point (pointing
// backward into the curve, per Schneider's convention).
func rightTangent(v []vec2) vec2 {
	last := len(v) - 1
	for i := last - 1; i >= 0; i-- {
		if t, ok := v[i].sub(v[last]).unit(); ok {
			return t
		}
	}
	return vec2{-1, 0}
}

// generateBezier solves the 2x2 least-squares system for the distances of
// the two inner control points along the end tangents (Schneider's
// GenerateBezier), with the Wu–Barsky fallback when the system is
// degenerate.
func generateBezier(v []vec2, u []float64, tHat1, tHat2 vec2) Bezier {
	first, last := v[0], v[len(v)-1]
	var c00, c01, c11, x0, x1 float64
	for i := range v {
		a0 := tHat1.scale(b1(u[i]))
		a1 := tHat2.scale(b2(u[i]))
		c00 += a0.dot(a0)
		c01 += a0.dot(a1)
		c11 += a1.dot(a1)
		base := first.scale(b0(u[i]) + b1(u[i])).add(last.scale(b2(u[i]) + b3(u[i])))
		diff := v[i].sub(base)
		x0 += a0.dot(diff)
		x1 += a1.dot(diff)
	}
	detC := c00*c11 - c01*c01
	var alpha1, alpha2 float64
	if math.Abs(detC) > 1e-12 {
		alpha1 = (x0*c11 - x1*c01) / detC
		alpha2 = (c00*x1 - c01*x0) / detC
	}
	segLen := last.sub(first).norm()
	eps := 1e-6 * segLen
	if alpha1 < eps || alpha2 < eps {
		// Wu–Barsky heuristic: place control points at 1/3 of the chord.
		alpha1 = segLen / 3
		alpha2 = segLen / 3
	}
	return Bezier{P: [4]vec2{
		first,
		first.add(tHat1.scale(alpha1)),
		last.add(tHat2.scale(alpha2)),
		last,
	}}
}

// BezierFitter fits single cubic Bézier segments (Schneider's algorithm)
// for use with the breaking template.
type BezierFitter struct {
	// Iterations is the number of Newton reparameterization passes
	// (default 4 when zero, Schneider's choice).
	Iterations int
}

// Name implements Fitter.
func (f BezierFitter) Name() string { return "bezier" }

// Fit implements Fitter.
func (f BezierFitter) Fit(pts []seq.Point) (Curve, error) {
	iters := f.Iterations
	if iters == 0 {
		iters = 4
	}
	if len(pts) == 1 {
		p := vec2{pts[0].T, pts[0].V}
		return Bezier{P: [4]vec2{p, p, p, p}}, nil
	}
	return FitBezier(pts, iters)
}
