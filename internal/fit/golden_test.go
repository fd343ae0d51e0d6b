package fit

// Golden fits over a rendered melody: the exact curve families and their
// rendered forms each fitter produces for a known note-plus-glide window
// are pinned, so representation drift is caught at the fitter rather
// than downstream. Degenerate inputs (constant, sub-3-point, NaN) pin
// the corner-case contract.

import (
	"math"
	"testing"

	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

func TestGoldenMelodyFits(t *testing.T) {
	melody, err := synth.Melody([]int{2, 2, -4}, synth.MelodyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pts := []seq.Point(melody)[0:11] // the first note and its glide up

	cases := []struct {
		f          Fitter
		wantKind   Kind
		wantString string
	}{
		{InterpolationFitter{}, KindLine, ".2x+60"},
		{RegressionFitter{}, KindLine, ".158x+59.6"},
		{PolynomialFitter{Degree: 2}, KindPoly, ".0435x^2+.158x+59.9 @5"},
		{BezierFitter{}, KindBezier, "bezier[(0,60)(4.82,60)(5.81,59.2)(10,62)]"},
	}
	for _, tc := range cases {
		t.Run(tc.f.Name(), func(t *testing.T) {
			c, err := tc.f.Fit(pts)
			if err != nil {
				t.Fatal(err)
			}
			if c.Kind() != tc.wantKind {
				t.Errorf("kind = %v, want %v", c.Kind(), tc.wantKind)
			}
			if got := c.String(); got != tc.wantString {
				t.Errorf("fit drifted: %q, want %q", got, tc.wantString)
			}
			// Whatever the family, the fit must stay within the window's
			// own 2-semitone span.
			if _, dev := MaxDeviation(c, pts); dev > 2.0 {
				t.Errorf("max deviation %v over a 2-semitone window", dev)
			}
		})
	}
}

// TestFittersDegenerateInputs pins fitter behaviour at the edges:
// constant and sub-3-point windows fit exactly, empty input errors.
func TestFittersDegenerateInputs(t *testing.T) {
	fitters := []Fitter{InterpolationFitter{}, RegressionFitter{}, PolynomialFitter{Degree: 2}, BezierFitter{}}
	for _, f := range fitters {
		if _, err := f.Fit(nil); err == nil {
			t.Errorf("%s: empty input accepted", f.Name())
		}
		one := []seq.Point{{T: 3, V: 7}}
		if c, err := f.Fit(one); err != nil {
			t.Errorf("%s / one point: %v", f.Name(), err)
		} else if got := c.Eval(3); math.Abs(got-7) > 1e-9 {
			t.Errorf("%s / one point: Eval(3) = %v, want 7", f.Name(), got)
		}
		two := []seq.Point{{T: 0, V: 1}, {T: 2, V: 5}}
		if c, err := f.Fit(two); err != nil {
			t.Errorf("%s / two points: %v", f.Name(), err)
		} else {
			for _, p := range two {
				if got := c.Eval(p.T); math.Abs(got-p.V) > 1e-9 {
					t.Errorf("%s / two points: Eval(%v) = %v, want %v", f.Name(), p.T, got, p.V)
				}
			}
		}
		flat := []seq.Point(synth.Const(9, 4.5))
		if c, err := f.Fit(flat); err != nil {
			t.Errorf("%s / constant: %v", f.Name(), err)
		} else if _, dev := MaxDeviation(c, flat); dev > 1e-9 {
			t.Errorf("%s / constant: deviation %v, want 0", f.Name(), dev)
		}
	}
}

// TestFittersNaNContainment documents where non-finite inputs are
// handled: the breaking layer rejects them before any fitter runs (see
// breaking.TestBreakersRejectNonFinite), so fitters themselves must
// merely not panic — endpoint-only families may even produce a finite
// curve, while least-squares families propagate the NaN into their
// parameters instead of silently inventing data.
func TestFittersNaNContainment(t *testing.T) {
	bad := []seq.Point{{T: 0, V: 1}, {T: 1, V: math.NaN()}, {T: 2, V: 3}}
	for _, f := range []Fitter{InterpolationFitter{}, RegressionFitter{}, PolynomialFitter{Degree: 2}, BezierFitter{}} {
		c, err := f.Fit(bad) // must not panic
		if err != nil || c == nil {
			continue
		}
		finite := true
		for _, p := range c.AppendParams(nil) {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				finite = false
			}
		}
		if finite {
			// Only endpoint interpolation can legitimately ignore the
			// interior NaN; its curve must then honor the endpoints.
			if math.Abs(c.Eval(0)-1) > 1e-9 || math.Abs(c.Eval(2)-3) > 1e-9 {
				t.Errorf("%s: finite curve %v ignores its endpoints", f.Name(), c)
			}
		}
	}
}
