package fit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"seqrep/internal/seq"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// p2 builds a point with an explicit time.
func p2(t, v float64) seq.Point { return seq.Point{T: t, V: v} }

func pts(vals ...float64) []seq.Point {
	out := make([]seq.Point, len(vals))
	for i, v := range vals {
		out[i] = seq.Point{T: float64(i), V: v}
	}
	return out
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindLine: "line", KindPoly: "poly", KindBezier: "bezier", Kind(42): "Kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestLineBasics(t *testing.T) {
	l := Line{Slope: 2, Intercept: -3}
	if l.Eval(5) != 7 {
		t.Errorf("Eval(5) = %g", l.Eval(5))
	}
	if l.Kind() != KindLine {
		t.Error("Kind")
	}
	p := l.AppendParams(nil)
	if len(p) != 2 || p[0] != 2 || p[1] != -3 {
		t.Errorf("AppendParams(nil) = %v", p)
	}
	if got := l.String(); got != "2x-3" {
		t.Errorf("String = %q", got)
	}
	// Paper style: leading zero dropped.
	if got := (Line{Slope: 0.94, Intercept: 97.66}).String(); got != ".94x+97.7" {
		t.Errorf("String = %q", got)
	}
	if got := (Line{Slope: -0.5, Intercept: 0.25}).String(); got != "-.5x+.25" {
		t.Errorf("String = %q", got)
	}
}

func TestLineThrough(t *testing.T) {
	l, err := LineThrough(seq.Point{T: 1, V: 1}, seq.Point{T: 3, V: 5})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 2 || l.Intercept != -1 {
		t.Errorf("line = %+v", l)
	}
	if _, err := LineThrough(seq.Point{T: 1, V: 1}, seq.Point{T: 1, V: 5}); err == nil {
		t.Error("vertical line accepted")
	}
}

func TestRegressLineExact(t *testing.T) {
	// Points exactly on a line regress to that line.
	points := []seq.Point{p2(0, 1), p2(1, 3), p2(2, 5), p2(3, 7)}
	l, err := RegressLine(points)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.Slope, 2, 1e-12) || !almostEq(l.Intercept, 1, 1e-12) {
		t.Errorf("regression = %+v", l)
	}
}

func TestRegressLineKnown(t *testing.T) {
	// Hand-computed: (0,0),(1,2),(2,1) → slope .5, intercept .5.
	l, err := RegressLine([]seq.Point{p2(0, 0), p2(1, 2), p2(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.Slope, 0.5, 1e-12) || !almostEq(l.Intercept, 0.5, 1e-12) {
		t.Errorf("regression = %+v", l)
	}
}

func TestRegressLineDegenerate(t *testing.T) {
	if _, err := RegressLine(nil); err == nil {
		t.Error("empty accepted")
	}
	l, err := RegressLine([]seq.Point{p2(5, 9)})
	if err != nil || l.Slope != 0 || l.Intercept != 9 {
		t.Errorf("single point: %+v %v", l, err)
	}
	if _, err := RegressLine([]seq.Point{p2(1, 0), p2(1, 5)}); err == nil {
		t.Error("zero time-variance accepted")
	}
}

func TestRunningRegressionAddRemove(t *testing.T) {
	var r RunningRegression
	if _, err := r.Line(); err == nil {
		t.Error("empty accumulator accepted")
	}
	samples := []seq.Point{p2(0, 1), p2(1, 2), p2(2, 2), p2(3, 5)}
	for _, p := range samples {
		r.Add(p.T, p.V)
	}
	if r.N() != 4 {
		t.Errorf("N = %d", r.N())
	}
	direct, _ := RegressLine(samples)
	got, err := r.Line()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got.Slope, direct.Slope, 1e-12) || !almostEq(got.Intercept, direct.Intercept, 1e-12) {
		t.Errorf("running %+v vs direct %+v", got, direct)
	}
	// Remove the last sample; must equal regression over the prefix.
	r.Remove(3, 5)
	direct3, _ := RegressLine(samples[:3])
	got3, _ := r.Line()
	if !almostEq(got3.Slope, direct3.Slope, 1e-12) || !almostEq(got3.Intercept, direct3.Intercept, 1e-12) {
		t.Errorf("after remove: %+v vs %+v", got3, direct3)
	}
}

func TestFitters(t *testing.T) {
	points := pts(1, 5, 2, 8)
	interp, err := InterpolationFitter{}.Fit(points)
	if err != nil {
		t.Fatal(err)
	}
	// Interpolation passes through endpoints exactly.
	if !almostEq(interp.Eval(0), 1, 1e-12) || !almostEq(interp.Eval(3), 8, 1e-12) {
		t.Errorf("interpolation endpoints: %g %g", interp.Eval(0), interp.Eval(3))
	}
	reg, err := RegressionFitter{}.Fit(points)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Kind() != KindLine {
		t.Error("regression kind")
	}
	if (InterpolationFitter{}).Name() != "interpolation" || (RegressionFitter{}).Name() != "regression" {
		t.Error("fitter names")
	}
	if _, err := (InterpolationFitter{}).Fit(nil); err == nil {
		t.Error("empty accepted")
	}
	single, err := InterpolationFitter{}.Fit(pts(7))
	if err != nil || single.Eval(0) != 7 {
		t.Errorf("singleton fit: %v %v", single, err)
	}
}

func TestMaxDeviation(t *testing.T) {
	l := Line{Slope: 0, Intercept: 0}
	points := []seq.Point{p2(0, 0.1), p2(1, -2), p2(2, 0.5)}
	idx, dev := MaxDeviation(l, points)
	if idx != 1 || dev != 2 {
		t.Errorf("MaxDeviation = (%d, %g)", idx, dev)
	}
	if idx, dev := MaxDeviation(l, nil); idx != 0 || dev != 0 {
		t.Error("empty deviation")
	}
}

func TestRMSE(t *testing.T) {
	l := Line{Slope: 0, Intercept: 0}
	if got := RMSE(l, []seq.Point{p2(0, 3), p2(1, -4)}); !almostEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %g", got)
	}
	if RMSE(l, nil) != 0 {
		t.Error("empty RMSE")
	}
}

func TestPolynomialEvalString(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, -2, 3}} // 3x^2 - 2x + 1
	if got := p.Eval(2); got != 9 {
		t.Errorf("Eval(2) = %g", got)
	}
	if got := p.String(); got != "3x^2-2x+1" {
		t.Errorf("String = %q", got)
	}
	shifted := Polynomial{Origin: 4, Coeffs: []float64{5}}
	if !strings.Contains(shifted.String(), "@4") {
		t.Errorf("origin not rendered: %q", shifted.String())
	}
	if (Polynomial{}).String() != "0" {
		t.Error("empty polynomial String")
	}
	if (Polynomial{Coeffs: []float64{0, 0}}).String() != "0" {
		t.Error("zero polynomial String")
	}
}

func TestFitPolynomialRecoversExact(t *testing.T) {
	// v = 2t^2 - 3t + 1 sampled at 6 points.
	points := make([]seq.Point, 6)
	for i := range points {
		x := float64(i)
		points[i] = seq.Point{T: x, V: 2*x*x - 3*x + 1}
	}
	p, err := FitPolynomial(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range points {
		if !almostEq(p.Eval(q.T), q.V, 1e-9) {
			t.Errorf("Eval(%g) = %g, want %g", q.T, p.Eval(q.T), q.V)
		}
	}
	if p.Degree() != 2 {
		t.Errorf("degree = %d", p.Degree())
	}
}

func TestFitPolynomialDegreeClamp(t *testing.T) {
	p, err := FitPolynomial(pts(1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() > 1 {
		t.Errorf("degree %d not clamped for 2 points", p.Degree())
	}
	if _, err := FitPolynomial(nil, 2); err == nil {
		t.Error("empty accepted")
	}
	if _, err := FitPolynomial(pts(1), -1); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestPolynomialFitter(t *testing.T) {
	f := PolynomialFitter{Degree: 3}
	if f.Name() != "poly3" {
		t.Errorf("Name = %q", f.Name())
	}
	c, err := f.Fit(pts(0, 1, 8, 27, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.Eval(3), 27, 1e-6) {
		t.Errorf("cubic fit Eval(3) = %g", c.Eval(3))
	}
}

func TestPolynomialCompare(t *testing.T) {
	p1 := Polynomial{Coeffs: []float64{1, 2}}    // 2x+1
	p2 := Polynomial{Coeffs: []float64{9, 2}}    // 2x+9
	p3 := Polynomial{Coeffs: []float64{0, 0, 1}} // x^2
	if p1.Compare(p2) != -1 || p2.Compare(p1) != 1 {
		t.Error("coefficient ordering")
	}
	if p1.Compare(p1) != 0 {
		t.Error("self comparison")
	}
	// Degrees dominate coefficients.
	if p2.Compare(p3) != -1 || p3.Compare(p2) != 1 {
		t.Error("degree ordering")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	curves := []Curve{
		Line{Slope: 1.5, Intercept: -2},
		Polynomial{Origin: 3, Coeffs: []float64{1, 0, -4}},
		Bezier{P: [4]vec2{{0, 0}, {1, 2}, {2, -1}, {3, 0}}},
	}
	for _, c := range curves {
		back, err := Decode(c.Kind(), c.AppendParams(nil))
		if err != nil {
			t.Fatalf("%v: %v", c.Kind(), err)
		}
		for _, x := range []float64{0, 0.7, 1.5, 2.9} {
			if !almostEq(back.Eval(x), c.Eval(x), 1e-9) {
				t.Errorf("%v: decoded curve differs at %g: %g vs %g", c.Kind(), x, back.Eval(x), c.Eval(x))
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		k Kind
		p []float64
	}{
		{KindLine, []float64{1}},
		{KindLine, []float64{1, 2, 3}},
		{KindPoly, []float64{1}},
		{KindBezier, make([]float64, 7)},
		{Kind(99), []float64{1, 2}},
	}
	for _, c := range cases {
		if _, err := Decode(c.k, c.p); err == nil {
			t.Errorf("Decode(%v, %d params) accepted", c.k, len(c.p))
		}
	}
}

// Property: regression line minimizes squared error — any perturbed line
// does no better.
func TestRegressionOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(raw []float64, ds, di float64) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw)
		if n > 40 {
			n = 40
		}
		points := make([]seq.Point, n)
		for i := 0; i < n; i++ {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			points[i] = seq.Point{T: float64(i), V: math.Mod(v, 1e4)}
		}
		l, err := RegressLine(points)
		if err != nil {
			return true
		}
		ds = math.Mod(ds, 1)
		di = math.Mod(di, 1)
		if math.IsNaN(ds) || math.IsNaN(di) || (ds == 0 && di == 0) {
			ds, di = 0.01, 0.01
		}
		perturbed := Line{Slope: l.Slope + ds, Intercept: l.Intercept + di}
		sse := func(c Curve) float64 {
			s := 0.0
			for _, p := range points {
				d := p.V - c.Eval(p.T)
				s += d * d
			}
			return s
		}
		return sse(l) <= sse(perturbed)+1e-6*(1+sse(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}
