// Package fit provides the real-valued function families the paper uses to
// represent subsequences (§4.2): interpolation lines, least-squares
// regression lines, fixed-degree polynomials, and cubic Bézier curves
// fitted with Schneider's algorithm (the paper's §5.1 instantiations).
//
// A fitted Curve approximates one subsequence; its behaviour (slope,
// extrema) stands in for the behaviour of the raw points, which is what
// makes generalized approximate queries answerable from the representation
// alone.
package fit

import (
	"fmt"
	"math"
	"slices"

	"seqrep/internal/seq"
)

// Kind identifies a curve family. It is persisted in the binary codec, so
// values must remain stable.
type Kind uint8

// The supported curve families.
const (
	KindInvalid Kind = iota
	KindLine
	KindPoly
	KindBezier
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindLine:
		return "line"
	case KindPoly:
		return "poly"
	case KindBezier:
		return "bezier"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Curve is a fitted real-valued function of time, the representation unit
// of the paper's divide-and-conquer approach.
type Curve interface {
	// Eval returns the curve's value at time t.
	Eval(t float64) float64
	// Kind identifies the curve family for persistence and indexing.
	Kind() Kind
	// Params returns the family-specific parameter vector; together with
	// Kind it fully determines the curve (see Decode).
	Params() []float64
	// String renders the curve the way the paper annotates its figures,
	// e.g. ".94x+97.66".
	String() string
}

// Fitter fits one curve of a fixed family to a run of points.
type Fitter interface {
	// Fit returns the best curve of the fitter's family for pts.
	// pts must be non-empty and time-ordered.
	Fit(pts []seq.Point) (Curve, error)
	// Name identifies the fitter in experiment output.
	Name() string
}

// Deviator is implemented by curves that measure their own deviation
// profile (Bézier curves measure geometric rather than vertical distance).
type Deviator interface {
	MaxDeviation(pts []seq.Point) (idx int, dev float64)
}

// MaxDeviation returns the index and size of the largest deviation between
// pts and the curve. For plain function curves the deviation is vertical
// (|v - c(t)|, the measure the paper's ε is expressed in); curves
// implementing Deviator use their own measure.
func MaxDeviation(c Curve, pts []seq.Point) (idx int, dev float64) {
	if d, ok := c.(Deviator); ok {
		return d.MaxDeviation(pts)
	}
	for i, p := range pts {
		if d := math.Abs(p.V - c.Eval(p.T)); d > dev {
			idx, dev = i, d
		}
	}
	return idx, dev
}

// RMSE returns the root-mean-square vertical error of the curve on pts.
// It returns 0 for empty input.
func RMSE(c Curve, pts []seq.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		d := p.V - c.Eval(p.T)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pts)))
}

// CheckParams reports whether params is a valid parameter vector for a
// curve of kind k: exactly the check Decode makes, without building the
// curve, so it allocates nothing unless it fails. After it succeeds the
// kind's ...FromParams constructor cannot fail.
func CheckParams(k Kind, params []float64) error {
	switch k {
	case KindLine:
		if len(params) != 2 {
			return fmt.Errorf("fit: line wants 2 params, got %d", len(params))
		}
	case KindPoly:
		if len(params) < 2 {
			return fmt.Errorf("fit: poly wants >= 2 params, got %d", len(params))
		}
	case KindBezier:
		if len(params) != 8 {
			return fmt.Errorf("fit: bezier wants 8 params, got %d", len(params))
		}
	default:
		return fmt.Errorf("fit: unknown curve kind %d", k)
	}
	return nil
}

// LineFromParams builds the line whose Params are params, which must have
// passed CheckParams(KindLine, params).
func LineFromParams(params []float64) Line {
	return Line{Slope: params[0], Intercept: params[1]}
}

// PolynomialFromParams builds the polynomial whose Params are params,
// which must have passed CheckParams(KindPoly, params). Its Coeffs alias
// params[1:] rather than copying them, so the curve is only valid while
// params is left unchanged.
func PolynomialFromParams(params []float64) Polynomial {
	return Polynomial{Origin: params[0], Coeffs: params[1:]}
}

// BezierFromParams builds the Bézier curve whose Params are params, which
// must have passed CheckParams(KindBezier, params).
func BezierFromParams(params []float64) Bezier {
	var b Bezier
	for i := 0; i < 4; i++ {
		b.P[i] = vec2{params[2*i], params[2*i+1]}
	}
	return b
}

// Decode reconstructs a curve from its persisted Kind and parameter
// vector. It is the inverse of (Kind, Params) and is used by the
// representation codec. The returned curve owns its parameters.
func Decode(k Kind, params []float64) (Curve, error) {
	if err := CheckParams(k, params); err != nil {
		return nil, err
	}
	switch k {
	case KindLine:
		return LineFromParams(params), nil
	case KindPoly:
		p := PolynomialFromParams(params)
		p.Coeffs = slices.Clone(p.Coeffs)
		return p, nil
	default: // KindBezier: CheckParams refused every other kind
		return BezierFromParams(params), nil
	}
}

// fmtCoef renders a coefficient in the compact style of the paper's figure
// annotations (".94" rather than "0.94").
func fmtCoef(v float64) string {
	s := fmt.Sprintf("%.3g", v)
	if len(s) > 1 && s[0] == '0' && s[1] == '.' {
		return s[1:]
	}
	if len(s) > 2 && s[0] == '-' && s[1] == '0' && s[2] == '.' {
		return "-" + s[2:]
	}
	return s
}
