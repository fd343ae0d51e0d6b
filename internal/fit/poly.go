package fit

import (
	"fmt"
	"math"
	"strings"

	"seqrep/internal/seq"
)

// Polynomial is v = Σ Coeffs[k]·(t-Origin)^k. Times are centred on Origin
// (the mean sample time of the fitted window) for numerical stability; the
// paper orders polynomial families lexicographically "by degrees and
// coefficients where degrees are more significant" (§4.2), which Compare
// implements.
type Polynomial struct {
	Origin float64
	Coeffs []float64 // ascending powers; len = degree+1
}

// Eval evaluates the polynomial at time t by Horner's rule.
func (p Polynomial) Eval(t float64) float64 {
	x := t - p.Origin
	v := 0.0
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		v = v*x + p.Coeffs[k]
	}
	return v
}

// Kind returns KindPoly.
func (p Polynomial) Kind() Kind { return KindPoly }

// AppendParams appends [origin, c0, c1, ...] to dst.
func (p Polynomial) AppendParams(dst []float64) []float64 {
	return append(append(dst, p.Origin), p.Coeffs...)
}

// Degree returns the polynomial degree (len(Coeffs)-1), or 0 when empty.
func (p Polynomial) Degree() int {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return len(p.Coeffs) - 1
}

// String renders e.g. "1.2x^2-3x+.5 @4" (the @ suffix is the origin when
// non-zero).
func (p Polynomial) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		c := p.Coeffs[k]
		if c == 0 && !(first && k == 0) {
			continue
		}
		if !first && c >= 0 {
			b.WriteByte('+')
		}
		switch k {
		case 0:
			b.WriteString(fmtCoef(c))
		case 1:
			b.WriteString(fmtCoef(c) + "x")
		default:
			fmt.Fprintf(&b, "%sx^%d", fmtCoef(c), k)
		}
		first = false
	}
	if first {
		b.WriteString("0")
	}
	if p.Origin != 0 {
		fmt.Fprintf(&b, " @%s", fmtCoef(p.Origin))
	}
	return b.String()
}

// Compare orders polynomials lexicographically by degree, then by
// coefficients from the highest power down — the paper's §4.2 ordering for
// indexing within a function family. It returns -1, 0 or +1.
func (p Polynomial) Compare(q Polynomial) int {
	if d1, d2 := p.Degree(), q.Degree(); d1 != d2 {
		if d1 < d2 {
			return -1
		}
		return 1
	}
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		var a, b float64
		if k < len(p.Coeffs) {
			a = p.Coeffs[k]
		}
		if k < len(q.Coeffs) {
			b = q.Coeffs[k]
		}
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
	}
	return 0
}

// FitPolynomial fits a least-squares polynomial of the given degree to pts.
// The effective degree is reduced when there are too few points to
// determine it (n points determine degree ≤ n-1). Times are centred on
// their mean before solving the normal equations.
func FitPolynomial(pts []seq.Point, degree int) (Polynomial, error) {
	if len(pts) == 0 {
		return Polynomial{}, fmt.Errorf("fit: polynomial on empty point set")
	}
	if degree < 0 {
		return Polynomial{}, fmt.Errorf("fit: negative degree %d", degree)
	}
	if degree > len(pts)-1 {
		degree = len(pts) - 1
	}
	origin := 0.0
	for _, p := range pts {
		origin += p.T
	}
	origin /= float64(len(pts))

	m := degree + 1
	// Normal equations: A c = b with A[j][k] = Σ x^(j+k), b[j] = Σ v·x^j.
	pow := make([]float64, 2*degree+1)
	b := make([]float64, m)
	for _, p := range pts {
		x := p.T - origin
		xp := 1.0
		for j := 0; j <= 2*degree; j++ {
			pow[j] += xp
			if j <= degree {
				b[j] += p.V * xp
			}
			xp *= x
		}
	}
	a := make([][]float64, m)
	for j := 0; j < m; j++ {
		a[j] = make([]float64, m)
		for k := 0; k < m; k++ {
			a[j][k] = pow[j+k]
		}
	}
	coeffs, err := solveLinear(a, b)
	if err != nil {
		return Polynomial{}, fmt.Errorf("fit: degree-%d polynomial: %w", degree, err)
	}
	return Polynomial{Origin: origin, Coeffs: coeffs}, nil
}

// PolynomialFitter fits fixed-degree least-squares polynomials; Degree 1
// behaves like RegressionFitter but returns a Polynomial curve.
type PolynomialFitter struct {
	Degree int
}

// Name implements Fitter.
func (f PolynomialFitter) Name() string { return fmt.Sprintf("poly%d", f.Degree) }

// Fit implements Fitter.
func (f PolynomialFitter) Fit(pts []seq.Point) (Curve, error) {
	return FitPolynomial(pts, f.Degree)
}

// solveLinear solves the square system a·x = b by Gaussian elimination with
// partial pivoting, destroying a and b. It returns an error when the system
// is singular to working precision.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("singular system (pivot %g at column %d)", best, col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
