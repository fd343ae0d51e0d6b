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
	"sort"
	"sync"

	"seqrep/internal/breaking"
	"seqrep/internal/fit"
	"seqrep/internal/seq"
)

// Segment is one represented subsequence: its sample range, its boundary
// points (the paper keeps start/end points with any representation — they
// feed the peak table of their Table 1), and where its fitted function's
// parameters sit in the series' Params. It holds no pointer for the GC.
type Segment struct {
	Lo, Hi         int     // inclusive sample index range in the original sequence
	StartT, StartV float64 // first sample of the subsequence
	EndT, EndV     float64 // last sample of the subsequence
	Off            uint32  // first parameter's index in FunctionSeries.Params
	NParams        uint16  // parameter count, at most maxParams
	Kind           fit.Kind
}

// Len returns the number of samples the segment covers.
func (sg *Segment) Len() int { return sg.Hi - sg.Lo + 1 }

// FunctionSeries is the compact representation of one sequence: an ordered
// list of represented subsequences covering all N original samples, and
// all their parameters, in segment order, in one array.
type FunctionSeries struct {
	N        int // original sample count
	Segments []Segment
	Params   []float64
}

// SegmentParams returns segment i's parameter vector, a window of Params.
func (fs *FunctionSeries) SegmentParams(i int) []float64 {
	sg := &fs.Segments[i]
	end := int(sg.Off) + int(sg.NParams)
	return fs.Params[sg.Off:end:end]
}

// AppendSegment appends sg with params, setting its Off and NParams.
func (fs *FunctionSeries) AppendSegment(sg Segment, params ...float64) {
	sg.Off, sg.NParams = uint32(len(fs.Params)), uint16(len(params))
	fs.Params = append(fs.Params, params...)
	fs.Segments = append(fs.Segments, sg)
}

// Curve reconstructs segment i's fitted function as a boxed fit.Curve, for
// rendering; the series' own evaluations go through appendValues.
func (fs *FunctionSeries) Curve(i int) (fit.Curve, error) {
	return fit.Decode(fs.Segments[i].Kind, fs.SegmentParams(i))
}

// Slope returns segment i's characteristic slope: the line slope for line
// segments, and the chord slope (ΔV/ΔT between the boundary points) for
// other families. A zero-duration segment has slope 0.
func (fs *FunctionSeries) Slope(i int) float64 {
	sg := &fs.Segments[i]
	if sg.Kind == fit.KindLine && sg.NParams == 2 {
		return fs.Params[sg.Off]
	}
	if sg.EndT == sg.StartT {
		return 0
	}
	return (sg.EndV - sg.StartV) / (sg.EndT - sg.StartT)
}

// buildParams is Build's scratch: the curves append into it and the series
// keeps one exact copy, whatever the segment count.
var buildParams = sync.Pool{New: func() any { return new([]float64) }}

// Build constructs the representation from a segmentation. When representer
// is nil each segment keeps the breaking algorithm's byproduct curve; the
// paper instead breaks with interpolation lines and *represents* with
// regression lines (§4.4), which a non-nil representer refits.
func Build(s seq.Sequence, segs []breaking.Segment, representer fit.Fitter) (*FunctionSeries, error) {
	if err := breaking.Validate(segs, len(s)); err != nil {
		return nil, fmt.Errorf("rep: %w", err)
	}
	sc := buildParams.Get().(*[]float64)
	defer buildParams.Put(sc)
	params := (*sc)[:0]
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
		off := len(params)
		params = curve.AppendParams(params)
		first, last := s[g.Lo], s[g.Hi]
		fs.Segments = append(fs.Segments, Segment{
			Lo: g.Lo, Hi: g.Hi,
			StartT: first.T, StartV: first.V,
			EndT: last.T, EndV: last.V,
			Off: uint32(off), NParams: uint16(len(params) - off), Kind: curve.Kind(),
		})
	}
	fs.Params = slices.Clone(params)
	*sc = params
	return fs, nil
}

// NumSegments returns the number of represented subsequences.
func (fs *FunctionSeries) NumSegments() int { return len(fs.Segments) }

// Validate checks structural invariants of the representation: the
// segments tile [0, N) in time order, and their parameter ranges tile
// Params in segment order, each a valid vector for its kind.
func (fs *FunctionSeries) Validate() error {
	if fs.N <= 0 {
		return fmt.Errorf("rep: non-positive sample count %d", fs.N)
	}
	if len(fs.Segments) == 0 {
		return fmt.Errorf("rep: no segments")
	}
	prev, off := -1, 0
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
		if int(sg.Off) != off || off+int(sg.NParams) > len(fs.Params) {
			return fmt.Errorf("rep: segment %d params [%d,+%d) not at %d within %d", i, sg.Off, sg.NParams, off, len(fs.Params))
		}
		if err := fit.CheckParams(sg.Kind, fs.SegmentParams(i)); err != nil {
			return fmt.Errorf("rep: segment %d: %w", i, err)
		}
		prev, off = sg.Hi, off+int(sg.NParams)
	}
	if prev != fs.N-1 {
		return fmt.Errorf("rep: segments end at %d, want %d", prev, fs.N-1)
	}
	if off != len(fs.Params) {
		return fmt.Errorf("rep: segments use %d of %d params", off, len(fs.Params))
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
// is returned unchanged. It is the entry point for a series of unknown
// provenance.
func (fs *FunctionSeries) AppendReconstruction(dst seq.Sequence) (seq.Sequence, error) {
	if err := fs.Validate(); err != nil {
		return dst, err
	}
	return fs.AppendReconstructionUnchecked(dst), nil
}

// AppendReconstructionUnchecked is AppendReconstruction without the
// validation, for a series already known valid and not modified since:
// one UnmarshalBinary returned, or one its creator checked with Validate
// (or with AppendReconstruction). On a series that would fail Validate it
// may panic. The sample times come first; the values are the series'
// one evaluation, appendValues, at those times.
func (fs *FunctionSeries) AppendReconstructionUnchecked(dst seq.Sequence) seq.Sequence {
	lo := len(dst)
	dst = slices.Grow(dst, fs.N)
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		for j, n := 0, sg.Len(); j < n; j++ {
			dst = append(dst, seq.Point{T: sg.sampleTime(j, n, nil)})
		}
	}
	vals := reconValues.Get().(*[]float64)
	*vals = fs.appendValues((*vals)[:0], 0, len(fs.Segments), dst[lo:])
	for i, v := range *vals {
		dst[lo+i].V = v
	}
	reconValues.Put(vals)
	return dst
}

// reconValues is AppendReconstructionUnchecked's scratch for the values
// it pairs with the sample times.
var reconValues = sync.Pool{New: func() any { return new([]float64) }}

// AppendValuesUnchecked appends the values of the Reconstruct samples to
// dst and returns the extended slice, allocating only when dst lacks room
// for N more values. Each value is bit-identical to the V of the matching
// AppendReconstructionUnchecked point. It is the comparison form: a
// database validates each series once, where it is created, and both
// derives its features and verifies query candidates through this. Like
// AppendReconstructionUnchecked it trusts the series to be valid.
func (fs *FunctionSeries) AppendValuesUnchecked(dst []float64) []float64 {
	return fs.appendValues(slices.Grow(dst, fs.N), 0, len(fs.Segments), nil)
}

// appendValues appends segments [from, to) evaluated at their uniform
// sample times, or at the times of at, each segment taking as many as it
// covers samples (or what remains). It is every evaluation's one dispatch
// on Kind, to concrete curves with a loop per kind: nothing is boxed, and
// each Eval, the arithmetic the fit.Curve interface would run, inlines
// into its loop. fs must be valid.
func (fs *FunctionSeries) appendValues(dst []float64, from, to int, at seq.Sequence) []float64 {
	for i := from; i < to; i++ {
		sg := &fs.Segments[i]
		n := sg.Len()
		var times seq.Sequence
		if at != nil {
			k := min(n, len(at))
			times, at = at[:k], at[k:]
			n = k
		}
		lo := len(dst)
		dst = slices.Grow(dst, n)[:lo+n]
		out := dst[lo:]
		p := fs.Params[sg.Off:][:sg.NParams]
		switch sg.Kind {
		case fit.KindLine:
			line := fit.LineFromParams(p)
			for j := range out {
				out[j] = line.Eval(sg.sampleTime(j, n, times))
			}
		case fit.KindPoly:
			poly := fit.PolynomialFromParams(p)
			for j := range out {
				out[j] = poly.Eval(sg.sampleTime(j, n, times))
			}
		default: // KindBezier: Validate refused every other kind
			bz := fit.BezierFromParams(p)
			for j := range out {
				out[j] = bz.Eval(sg.sampleTime(j, n, times))
			}
		}
	}
	return dst
}

// sampleTime is the time of the j-th of the segment's n samples: at's,
// or when at is nil the uniform one between its boundary times.
func (sg *Segment) sampleTime(j, n int, at seq.Sequence) float64 {
	if at != nil {
		return at[j].T
	}
	t := sg.StartT
	if n > 1 {
		t += (sg.EndT - sg.StartT) * float64(j) / float64(n-1)
	}
	return t
}

// ValueAt evaluates the representation at an arbitrary time, choosing the
// segment whose [StartT, EndT] span contains t (predicting unsampled
// points), or in a gap the segment after it. Times outside the
// represented span clamp to the span's ends; the curves are never
// extrapolated.
func (fs *FunctionSeries) ValueAt(t float64) (float64, error) {
	if err := fs.Validate(); err != nil {
		return 0, err
	}
	segs := fs.Segments
	i := sort.Search(len(segs), func(i int) bool { return segs[i].EndT >= t })
	if i == len(segs) {
		i, t = i-1, segs[i-1].EndT
	}
	if i == 0 {
		t = max(t, segs[0].StartT)
	}
	return fs.appendValues(nil, i, i+1, seq.Sequence{{T: t}})[0], nil
}

// ErrorAgainst returns the RMSE and maximum absolute vertical error of the
// representation against the original sequence it was built from.
func (fs *FunctionSeries) ErrorAgainst(s seq.Sequence) (rmse, linf float64, err error) {
	if len(s) != fs.N {
		return 0, 0, fmt.Errorf("rep: sequence has %d samples, representation built from %d", len(s), fs.N)
	}
	if err := fs.Validate(); err != nil {
		return 0, 0, err
	}
	at := fs.appendValues(make([]float64, 0, fs.N), 0, len(fs.Segments), s)
	var sse float64
	for i, p := range s {
		d := math.Abs(p.V - at[i])
		if d > linf {
			linf = d
		}
		sse += d * d
	}
	return math.Sqrt(sse / float64(fs.N)), linf, nil
}

// StoredFloats counts every float64 the representation stores: the four
// boundary coordinates per segment plus the function parameters.
func (fs *FunctionSeries) StoredFloats() int { return 4*len(fs.Segments) + len(fs.Params) }

// ParamFloats counts floats under the paper's accounting — "each
// representation requires 4 parameters (such as function coefficients and
// breakpoints)" — i.e. function coefficients plus the two boundary times.
func (fs *FunctionSeries) ParamFloats() int { return 2*len(fs.Segments) + len(fs.Params) }

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
