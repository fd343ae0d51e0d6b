// Package rep defines the compact approximate representation at the centre
// of the paper (§4): a sequence of real-valued functions, one per
// subsequence, together with the subsequence boundary points. This is what
// the database stores, indexes and queries instead of raw samples; raw
// sequences remain in archival storage for when finer resolution is needed.
//
// A line segment stores four coefficients-and-breakpoints parameters plus
// its endpoints — the accounting behind the paper's ~17× space reduction
// claim for 540-point ECGs (§5.2).
package rep

import (
	"fmt"
	"math"
	"slices"

	"seqrep/internal/breaking"
	"seqrep/internal/fit"
	"seqrep/internal/seq"
)

// Segment is one represented subsequence: its sample range, its boundary
// points (the paper keeps start/end points with any representation — they
// feed the peak table of their Table 1), and the fitted function.
type Segment struct {
	Lo, Hi         int     // inclusive sample index range in the original sequence
	StartT, StartV float64 // first sample of the subsequence
	EndT, EndV     float64 // last sample of the subsequence
	Kind           fit.Kind
	Params         []float64
}

// Curve reconstructs the segment's fitted function.
func (sg *Segment) Curve() (fit.Curve, error) {
	return fit.Decode(sg.Kind, sg.Params)
}

// Len returns the number of samples the segment covers.
func (sg *Segment) Len() int { return sg.Hi - sg.Lo + 1 }

// Slope returns the segment's characteristic slope: the line slope for
// line segments, and the chord slope (ΔV/ΔT between the boundary points)
// for other families. A zero-duration segment has slope 0.
func (sg *Segment) Slope() float64 {
	if sg.Kind == fit.KindLine && len(sg.Params) == 2 {
		return sg.Params[0]
	}
	if sg.EndT == sg.StartT {
		return 0
	}
	return (sg.EndV - sg.StartV) / (sg.EndT - sg.StartT)
}

// FunctionSeries is the compact representation of one sequence: an ordered
// list of represented subsequences covering all N original samples.
type FunctionSeries struct {
	N        int // original sample count
	Segments []Segment
}

// Build constructs the representation from a segmentation. When representer
// is nil each segment keeps the breaking algorithm's byproduct curve; the
// paper instead breaks with interpolation lines and *represents* with
// regression lines (§4.4), which a non-nil representer refits.
func Build(s seq.Sequence, segs []breaking.Segment, representer fit.Fitter) (*FunctionSeries, error) {
	if err := breaking.Validate(segs, len(s)); err != nil {
		return nil, fmt.Errorf("rep: %w", err)
	}
	fs := &FunctionSeries{N: len(s), Segments: make([]Segment, 0, len(segs))}
	for _, g := range segs {
		curve := g.Curve
		if representer != nil {
			refit, err := representer.Fit(s[g.Lo : g.Hi+1])
			if err != nil {
				return nil, fmt.Errorf("rep: refitting [%d,%d]: %w", g.Lo, g.Hi, err)
			}
			curve = refit
		}
		first, last := s[g.Lo], s[g.Hi]
		params := curve.Params()
		cp := make([]float64, len(params))
		copy(cp, params)
		fs.Segments = append(fs.Segments, Segment{
			Lo: g.Lo, Hi: g.Hi,
			StartT: first.T, StartV: first.V,
			EndT: last.T, EndV: last.V,
			Kind: curve.Kind(), Params: cp,
		})
	}
	return fs, nil
}

// NumSegments returns the number of represented subsequences.
func (fs *FunctionSeries) NumSegments() int { return len(fs.Segments) }

// Validate checks structural invariants of the representation.
func (fs *FunctionSeries) Validate() error {
	if fs.N <= 0 {
		return fmt.Errorf("rep: non-positive sample count %d", fs.N)
	}
	if len(fs.Segments) == 0 {
		return fmt.Errorf("rep: no segments")
	}
	prev := -1
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		if sg.Lo != prev+1 {
			return fmt.Errorf("rep: segment %d starts at %d, want %d", i, sg.Lo, prev+1)
		}
		if sg.Lo > sg.Hi {
			return fmt.Errorf("rep: segment %d inverted [%d,%d]", i, sg.Lo, sg.Hi)
		}
		if sg.Lo > 0 && sg.StartT <= fs.Segments[i-1].EndT {
			return fmt.Errorf("rep: segment %d starts at time %g, not after %g", i, sg.StartT, fs.Segments[i-1].EndT)
		}
		if err := fit.CheckParams(sg.Kind, sg.Params); err != nil {
			return fmt.Errorf("rep: segment %d: %w", i, err)
		}
		prev = sg.Hi
	}
	if prev != fs.N-1 {
		return fmt.Errorf("rep: segments end at %d, want %d", prev, fs.N-1)
	}
	return nil
}

// Reconstruct evaluates the represented functions at the original sample
// times (reconstructed by uniform spacing within each segment, exact for
// uniformly sampled data) — the paper's point that continuity of the
// representation "allows interpolation of unsampled points".
func (fs *FunctionSeries) Reconstruct() (seq.Sequence, error) {
	out, err := fs.AppendReconstruction(nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendReconstruction appends the Reconstruct samples to dst and returns
// the extended slice, allocating only when dst lacks room for N more
// points. It validates the representation on every call; on an error dst
// is returned unchanged. The query path reconstructs every candidate
// into reused scratch through it.
func (fs *FunctionSeries) AppendReconstruction(dst seq.Sequence) (seq.Sequence, error) {
	if err := fs.Validate(); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, fs.N)
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		// Concrete curves, not the fit.Curve interface: nothing is boxed,
		// and each Eval is the same arithmetic the interface would run.
		switch sg.Kind {
		case fit.KindLine:
			dst = appendSegment(dst, sg, fit.LineFromParams(sg.Params))
		case fit.KindPoly:
			dst = appendSegment(dst, sg, fit.PolynomialFromParams(sg.Params))
		case fit.KindBezier:
			dst = appendSegment(dst, sg, fit.BezierFromParams(sg.Params))
		}
	}
	return dst, nil
}

// appendSegment appends one segment's samples, evaluated on curve at
// uniformly spaced times between its boundary points.
func appendSegment[C interface{ Eval(float64) float64 }](dst seq.Sequence, sg *Segment, curve C) seq.Sequence {
	n := sg.Len()
	for j := 0; j < n; j++ {
		t := sg.StartT
		if n > 1 {
			t += (sg.EndT - sg.StartT) * float64(j) / float64(n-1)
		}
		dst = append(dst, seq.Point{T: t, V: curve.Eval(t)})
	}
	return dst
}

// ValueAt evaluates the representation at an arbitrary time, choosing the
// segment whose [StartT, EndT] span contains t (predicting unsampled
// points). Times outside the represented span clamp to the span's ends;
// the curves are never extrapolated.
func (fs *FunctionSeries) ValueAt(t float64) (float64, error) {
	if len(fs.Segments) == 0 {
		return 0, fmt.Errorf("rep: empty representation")
	}
	lo, hi := 0, len(fs.Segments)-1
	if first := &fs.Segments[0]; t <= first.EndT {
		if t < first.StartT {
			t = first.StartT
		}
		c, err := first.Curve()
		if err != nil {
			return 0, err
		}
		return c.Eval(t), nil
	}
	if last := &fs.Segments[hi]; t >= last.StartT {
		if t > last.EndT {
			t = last.EndT
		}
		c, err := last.Curve()
		if err != nil {
			return 0, err
		}
		return c.Eval(t), nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if fs.Segments[mid].StartT <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	pick := lo
	if t > fs.Segments[lo].EndT {
		pick = hi
	}
	c, err := fs.Segments[pick].Curve()
	if err != nil {
		return 0, err
	}
	return c.Eval(t), nil
}

// ErrorAgainst returns the RMSE and maximum absolute vertical error of the
// representation against the original sequence it was built from.
func (fs *FunctionSeries) ErrorAgainst(s seq.Sequence) (rmse, linf float64, err error) {
	if len(s) != fs.N {
		return 0, 0, fmt.Errorf("rep: sequence has %d samples, representation built from %d", len(s), fs.N)
	}
	var sse float64
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		curve, err := sg.Curve()
		if err != nil {
			return 0, 0, err
		}
		for _, p := range s[sg.Lo : sg.Hi+1] {
			d := math.Abs(p.V - curve.Eval(p.T))
			if d > linf {
				linf = d
			}
			sse += d * d
		}
	}
	return math.Sqrt(sse / float64(fs.N)), linf, nil
}

// StoredFloats counts every float64 the representation stores: the four
// boundary coordinates plus the function parameters, per segment.
func (fs *FunctionSeries) StoredFloats() int {
	total := 0
	for i := range fs.Segments {
		total += 4 + len(fs.Segments[i].Params)
	}
	return total
}

// ParamFloats counts floats under the paper's accounting — "each
// representation requires 4 parameters (such as function coefficients and
// breakpoints)" — i.e. function coefficients plus the two boundary times.
func (fs *FunctionSeries) ParamFloats() int {
	total := 0
	for i := range fs.Segments {
		total += 2 + len(fs.Segments[i].Params)
	}
	return total
}

// CompressionRatio is original samples per stored float (full accounting).
func (fs *FunctionSeries) CompressionRatio() float64 {
	if sf := fs.StoredFloats(); sf > 0 {
		return float64(fs.N) / float64(sf)
	}
	return 0
}

// PaperCompressionRatio mirrors the paper's §5.2 accounting (4 parameters
// per line segment), the figure behind their "factor of ~17" claim.
func (fs *FunctionSeries) PaperCompressionRatio() float64 {
	if pf := fs.ParamFloats(); pf > 0 {
		return float64(fs.N) / float64(pf)
	}
	return 0
}

// Slopes returns every segment's characteristic slope in order, the raw
// material for the slope-sign indexing of §4.4.
func (fs *FunctionSeries) Slopes() []float64 {
	out := make([]float64, len(fs.Segments))
	for i := range fs.Segments {
		out[i] = fs.Segments[i].Slope()
	}
	return out
}
