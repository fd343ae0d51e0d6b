package fit

import (
	"math"
	"testing"

	"seqrep/internal/seq"
)

func TestBezierEndpointInterpolation(t *testing.T) {
	points := pts(0, 3, 1, 4, 1, 5, 9, 2)
	bz, err := FitBezier(points, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0], points[len(points)-1]
	if !almostEq(bz.P[0].X, first.T, 1e-12) || !almostEq(bz.P[0].Y, first.V, 1e-12) {
		t.Errorf("P0 = %v, want endpoint %v", bz.P[0], first)
	}
	if !almostEq(bz.P[3].X, last.T, 1e-12) || !almostEq(bz.P[3].Y, last.V, 1e-12) {
		t.Errorf("P3 = %v, want endpoint %v", bz.P[3], last)
	}
}

func TestBezierFitsLineExactly(t *testing.T) {
	// Points on a straight line must fit with ~zero deviation.
	points := make([]seq.Point, 12)
	for i := range points {
		points[i] = seq.Point{T: float64(i), V: 2*float64(i) + 1}
	}
	bz, err := FitBezier(points, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, dev := bz.MaxDeviation(points)
	if dev > 1e-6 {
		t.Errorf("deviation on straight line = %g", dev)
	}
	// Eval at intermediate times agrees with the line.
	for _, x := range []float64{0.5, 3.3, 10.9} {
		if !almostEq(bz.Eval(x), 2*x+1, 1e-3) {
			t.Errorf("Eval(%g) = %g, want %g", x, bz.Eval(x), 2*x+1)
		}
	}
}

func TestBezierFitsSmoothArc(t *testing.T) {
	// A single smooth hump is well approximated by one cubic.
	points := make([]seq.Point, 21)
	for i := range points {
		x := float64(i) / 20
		points[i] = seq.Point{T: x * 10, V: 50 * math.Sin(math.Pi*x)}
	}
	bz, err := FitBezier(points, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, dev := bz.MaxDeviation(points)
	if dev > 2.0 {
		t.Errorf("deviation on smooth arc = %g (amplitude 50)", dev)
	}
}

func TestBezierEvalClamping(t *testing.T) {
	bz, err := FitBezier(pts(1, 2, 3, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if bz.Eval(-5) != 1 {
		t.Errorf("Eval before start = %g, want first value", bz.Eval(-5))
	}
	if bz.Eval(99) != 4 {
		t.Errorf("Eval after end = %g, want last value", bz.Eval(99))
	}
}

func TestBezierErrors(t *testing.T) {
	if _, err := FitBezier(pts(1), 4); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitBezier(nil, 4); err == nil {
		t.Error("empty accepted")
	}
	// Negative iterations clamp to zero rather than failing.
	if _, err := FitBezier(pts(1, 2, 3), -3); err != nil {
		t.Errorf("negative iterations: %v", err)
	}
}

func TestBezierFitterInterface(t *testing.T) {
	f := BezierFitter{}
	if f.Name() != "bezier" {
		t.Error("Name")
	}
	c, err := f.Fit(pts(0, 1, 4, 9, 16))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != KindBezier {
		t.Error("Kind")
	}
	if len(c.AppendParams(nil)) != 8 {
		t.Errorf("Params len = %d", len(c.AppendParams(nil)))
	}
	// Singleton degenerates to a constant curve.
	single, err := f.Fit(pts(7))
	if err != nil {
		t.Fatal(err)
	}
	if single.Eval(0) != 7 {
		t.Errorf("singleton Eval = %g", single.Eval(0))
	}
}

func TestBezierMaxDeviationViaInterface(t *testing.T) {
	// MaxDeviation dispatches to the Deviator implementation.
	points := pts(0, 5, 0, -5, 0)
	bz, err := FitBezier(points, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx1, dev1 := MaxDeviation(bz, points)
	idx2, dev2 := bz.MaxDeviation(points)
	if idx1 != idx2 || dev1 != dev2 {
		t.Errorf("interface dispatch mismatch: (%d,%g) vs (%d,%g)", idx1, dev1, idx2, dev2)
	}
}

func TestBezierString(t *testing.T) {
	bz := Bezier{P: [4]vec2{{0, 0}, {1, 1}, {2, 2}, {3, 3}}}
	if got := bz.String(); got == "" || got[:6] != "bezier" {
		t.Errorf("String = %q", got)
	}
}

func TestChordLengthParamsDegenerate(t *testing.T) {
	// All points coincident: parameters spread uniformly, no NaN.
	points := []seq.Point{p2(0, 5), p2(0, 5), p2(0, 5)}
	u := chordLengthParams(points)
	for i, v := range u {
		if math.IsNaN(v) {
			t.Fatalf("u[%d] is NaN", i)
		}
	}
	if u[0] != 0 || u[2] != 1 {
		t.Errorf("u = %v", u)
	}
}
