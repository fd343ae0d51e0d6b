package dft

import (
	"fmt"
	"math"
	"math/cmplx"

	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// WindowMatch is one subsequence-matching hit: the window of the stored
// sequence starting at Offset matches the query within the tolerance.
type WindowMatch struct {
	ID       string
	Offset   int
	Distance float64
}

// slidingDFT maintains the first kEff orthonormal DFT coefficients of a
// length-w window sliding over a value vector, updating in O(kEff) per
// one-sample shift via the classic recurrence
//
//	X_k(o+1) = e^{+2πik/w} · (X_k(o) + (x[o+w] - x[o])/√w)
//
// instead of recomputing an O(w·k) transform per window. Rotation error
// accumulates at a few ulps per shift, so the tracker reseeds itself with
// an exact partial transform every w shifts — amortized O(kEff) per shift
// — keeping the drift orders of magnitude below the filtering slack the
// caller applies.
type slidingDFT struct {
	vals      []float64
	w         int
	kEff      int
	scale     float64      // 1/√w
	rot       []complex128 // rot[k] = e^{+2πik/w}
	c         []complex128 // current window's first kEff coefficients
	off       int          // current window start
	sinceSeed int
}

// newSlidingDFT starts a tracker over vals with window w, maintaining
// kEff coefficients, positioned at offset 0.
func newSlidingDFT(vals []float64, w, kEff int) *slidingDFT {
	s := &slidingDFT{
		vals:  vals,
		w:     w,
		kEff:  kEff,
		scale: 1 / math.Sqrt(float64(w)),
		rot:   make([]complex128, kEff),
		c:     make([]complex128, kEff),
	}
	for k := range s.rot {
		s.rot[k] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(w)))
	}
	s.seed(0)
	return s
}

// seed recomputes the coefficients of the window at off exactly (a direct
// partial transform of just kEff coefficients), resetting drift.
func (s *slidingDFT) seed(off int) {
	win := s.vals[off : off+s.w]
	for k := 0; k < s.kEff; k++ {
		step := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(s.w)))
		cur := complex(1, 0)
		var sum complex128
		for _, v := range win {
			sum += complex(v, 0) * cur
			cur *= step
		}
		s.c[k] = sum * complex(s.scale, 0)
	}
	s.off, s.sinceSeed = off, 0
}

// shift advances the window by one sample.
func (s *slidingDFT) shift() {
	if s.sinceSeed+1 >= s.w {
		s.seed(s.off + 1)
		return
	}
	diff := complex((s.vals[s.off+s.w]-s.vals[s.off])*s.scale, 0)
	for k, ck := range s.c {
		s.c[k] = (ck + diff) * s.rot[k]
	}
	s.off++
	s.sinceSeed++
}

// featureDistSq returns the squared Euclidean distance between the
// current window's feature vector and qf, a real/imag-interleaved vector
// of (at least) kEff coefficients as produced by Features.
func (s *slidingDFT) featureDistSq(qf []float64) float64 {
	sum := 0.0
	for k, ck := range s.c {
		dr := real(ck) - qf[2*k]
		di := imag(ck) - qf[2*k+1]
		sum += dr*dr + di*di
	}
	return sum
}

// SubsequenceMatch implements the FRM94-style sliding-window search over a
// long stored sequence: every window of len(q) samples is compared to q,
// with the first-k-coefficient feature distance as the no-false-dismissal
// prefilter and true Euclidean distance as the verifier. It returns hits in
// offset order. k is the feature count; eps the Euclidean tolerance.
//
// The window features are maintained incrementally — O(k) per shift via
// slidingDFT rather than a fresh O(w·k) transform per window — and
// surviving windows are verified with the early-abandoning squared-
// distance kernel directly against the stored value vector (no per-window
// copies). The answer is identical to the per-window-recompute baseline:
// the incremental filter is widened by a slack far exceeding its drift,
// and acceptance is decided by the exact verification distance either way.
func SubsequenceMatch(id string, stored, q seq.Sequence, k int, eps float64) ([]WindowMatch, error) {
	w := len(q)
	if w == 0 {
		return nil, fmt.Errorf("dft: empty query")
	}
	if len(stored) < w {
		return nil, nil
	}
	if eps < 0 {
		return nil, fmt.Errorf("dft: negative tolerance %g", eps)
	}
	qf, err := Features(q.Values(), k)
	if err != nil {
		return nil, err
	}
	kEff := min(k, w)
	sv := stored.AppendValues(make([]float64, 0, len(stored)))
	qv := q.AppendValues(make([]float64, 0, w))

	// The prefilter discards a window only when its (slack-widened)
	// feature distance already exceeds eps — Parseval plus the slack
	// guarantee no true match is dismissed despite incremental drift.
	// Drift between reseeds is bounded by (shifts ≤ w) × a few ulps of
	// the coefficient magnitude, which by Parseval is at most √w·max|x|;
	// the additive term covers that with orders of magnitude to spare
	// (an over-wide slack only admits extra candidates, which exact
	// verification rejects — it can never change the answer).
	maxAbs := 0.0
	for _, v := range sv {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	coeffMag := math.Sqrt(float64(w)) * maxAbs
	slackEps := eps*(1+1e-9) + 1e-12 + 1e-12*float64(w)*(1+coeffMag)
	bailSq := slackEps * slackEps

	sdft := newSlidingDFT(sv, w, kEff)
	var out []WindowMatch
	for off := 0; ; off++ {
		// Inverted comparison: a window is skipped only when its feature
		// distance provably exceeds the slacked bound. A NaN distance
		// (a non-finite sample poisoning the incremental coefficients)
		// compares false here and falls through to exact verification,
		// so poisoned stretches degrade to per-window verification
		// instead of silently dismissing clean windows.
		if !(sdft.featureDistSq(qf) > bailSq) {
			d, within, err := dist.Within(dist.Euclidean, sv[off:off+w], qv, eps)
			if err != nil {
				return nil, err
			}
			if within {
				out = append(out, WindowMatch{ID: id, Offset: off, Distance: d})
			}
		}
		if off+w >= len(sv) {
			break
		}
		sdft.shift()
	}
	return out, nil
}
