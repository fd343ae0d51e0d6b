package rep

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/fit"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

func buildFever(t *testing.T, representer fit.Fitter) (seq.Sequence, *FunctionSeries) {
	t.Helper()
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := breaking.Interpolation(0.5).Break(fever)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Build(fever, segs, representer)
	if err != nil {
		t.Fatal(err)
	}
	return fever, fs
}

func TestBuildKeepsByproductCurves(t *testing.T) {
	fever, fs := buildFever(t, nil)
	if err := fs.Validate(); err != nil {
		t.Fatal(err)
	}
	if fs.N != len(fever) {
		t.Errorf("N = %d", fs.N)
	}
	if fs.NumSegments() < 4 {
		t.Errorf("segments = %d", fs.NumSegments())
	}
	// Byproduct interpolation lines pass through segment boundary points.
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		c, err := sg.Curve()
		if err != nil {
			t.Fatal(err)
		}
		if sg.Len() >= 2 {
			if math.Abs(c.Eval(sg.StartT)-sg.StartV) > 1e-9 {
				t.Errorf("segment %d: curve misses start point", i)
			}
			if math.Abs(c.Eval(sg.EndT)-sg.EndV) > 1e-9 {
				t.Errorf("segment %d: curve misses end point", i)
			}
		}
	}
}

func TestBuildRefitsWithRepresenter(t *testing.T) {
	// The paper's §4.4 flow: break with interpolation, represent with
	// regression.
	fever, fs := buildFever(t, fit.RegressionFitter{})
	rmse, linf, err := fs.ErrorAgainst(fever)
	if err != nil {
		t.Fatal(err)
	}
	if rmse <= 0 || linf < rmse {
		t.Errorf("rmse=%g linf=%g", rmse, linf)
	}
	// Regression should not be much worse than epsilon overall.
	if linf > 2 {
		t.Errorf("regression representation linf = %g", linf)
	}
	// Regression lines generally do NOT pass through the endpoints —
	// check the representation retained the true sample endpoints anyway.
	first := fs.Segments[0]
	if first.StartT != fever[0].T || first.StartV != fever[0].V {
		t.Error("boundary points lost in refit")
	}
}

func TestBuildRejectsInvalidSegmentation(t *testing.T) {
	fever, err := synth.Fever(synth.FeverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(fever, nil, nil); err == nil {
		t.Error("nil segmentation accepted")
	}
	bad := []breaking.Segment{{Lo: 0, Hi: 10, Curve: fit.Line{}}}
	if _, err := Build(fever, bad, nil); err == nil {
		t.Error("non-covering segmentation accepted")
	}
}

func TestReconstructMatchesEpsilon(t *testing.T) {
	fever, fs := buildFever(t, nil)
	back, err := fs.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(fever) {
		t.Fatalf("reconstructed %d samples, want %d", len(back), len(fever))
	}
	// Interpolation representation: reconstruction within ε of original.
	for i := range fever {
		if d := math.Abs(back[i].V - fever[i].V); d > 0.5+1e-9 {
			t.Errorf("sample %d deviates %g > eps", i, d)
		}
		if math.Abs(back[i].T-fever[i].T) > 1e-9 {
			t.Errorf("sample %d time %g, want %g", i, back[i].T, fever[i].T)
		}
	}
}

func TestValueAt(t *testing.T) {
	fever, fs := buildFever(t, nil)
	// Interior, boundary and clamped times.
	for _, tt := range []float64{-1, 0, 3.17, 12, 23.9, 24, 99} {
		got, err := fs.ValueAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fever.ValueAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.8 {
			t.Errorf("ValueAt(%g) = %g, raw interpolation %g", tt, got, want)
		}
	}
	empty := &FunctionSeries{}
	if _, err := empty.ValueAt(0); err == nil {
		t.Error("empty representation accepted")
	}
}

func TestErrorAgainstLengthMismatch(t *testing.T) {
	fever, fs := buildFever(t, nil)
	if _, _, err := fs.ErrorAgainst(fever[:10]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCompressionAccounting(t *testing.T) {
	_, fs := buildFever(t, nil)
	k := fs.NumSegments()
	if got := fs.StoredFloats(); got != k*(4+2) {
		t.Errorf("StoredFloats = %d, want %d (line segments)", got, k*6)
	}
	if got := fs.ParamFloats(); got != k*(2+2) {
		t.Errorf("ParamFloats = %d, want %d", got, k*4)
	}
	if r := fs.CompressionRatio(); r <= 0 {
		t.Errorf("CompressionRatio = %g", r)
	}
	if r := fs.PaperCompressionRatio(); r <= fs.CompressionRatio() {
		t.Errorf("paper ratio %g should exceed full ratio %g", fs.PaperCompressionRatio(), fs.CompressionRatio())
	}
	empty := &FunctionSeries{N: 5}
	if empty.CompressionRatio() != 0 || empty.PaperCompressionRatio() != 0 {
		t.Error("empty series ratios should be 0")
	}
}

// The paper's headline compression claim (E11): a 540-point ECG compresses
// by an order of magnitude; with their 4-parameter accounting the ratio is
// in the double digits.
func TestECGCompressionShape(t *testing.T) {
	ecg, _, err := synth.ECG(nil, synth.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := breaking.Interpolation(10).Break(ecg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Build(ecg, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := fs.PaperCompressionRatio(); r < 5 {
		t.Errorf("paper-accounting compression ratio %g too low (%d segments)", r, fs.NumSegments())
	}
}

func TestSlopes(t *testing.T) {
	_, fs := buildFever(t, nil)
	slopes := fs.Slopes()
	if len(slopes) != fs.NumSegments() {
		t.Fatalf("slope count %d", len(slopes))
	}
	// The fever curve rises to the first peak: first segment slope > 0.
	if slopes[0] <= 0 {
		t.Errorf("first slope = %g, want rising", slopes[0])
	}
}

func TestSegmentSlopeFallback(t *testing.T) {
	sg := Segment{StartT: 0, StartV: 0, EndT: 2, EndV: 6, Kind: fit.KindBezier, Params: make([]float64, 8)}
	if got := sg.Slope(); got != 3 {
		t.Errorf("chord slope = %g, want 3", got)
	}
	zero := Segment{StartT: 1, EndT: 1, Kind: fit.KindBezier}
	if got := zero.Slope(); got != 0 {
		t.Errorf("zero-span slope = %g", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	_, fs := buildFever(t, fit.RegressionFitter{})
	data, err := fs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back FunctionSeries
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.N != fs.N || back.NumSegments() != fs.NumSegments() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.N, back.NumSegments(), fs.N, fs.NumSegments())
	}
	for i := range fs.Segments {
		a, b := fs.Segments[i], back.Segments[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Kind != b.Kind {
			t.Errorf("segment %d header mismatch", i)
		}
		if a.StartT != b.StartT || a.StartV != b.StartV || a.EndT != b.EndT || a.EndV != b.EndV {
			t.Errorf("segment %d boundary mismatch", i)
		}
		for j := range a.Params {
			if a.Params[j] != b.Params[j] {
				t.Errorf("segment %d param %d mismatch", i, j)
			}
		}
	}
}

// TestUnmarshalBinaryAllocs: decoding costs one allocation for the
// segments and one for every parameter they hold, however many segments
// the series has (a decoder allocating per segment fails the equality).
func TestUnmarshalBinaryAllocs(t *testing.T) {
	lines := func(k int) []byte {
		fs := &FunctionSeries{N: 3 * k}
		for i := 0; i < k; i++ {
			lo := 3 * i
			fs.Segments = append(fs.Segments, Segment{
				Lo: lo, Hi: lo + 2, StartT: float64(lo), EndT: float64(lo + 2),
				Kind: fit.KindLine, Params: []float64{1, float64(i)},
			})
		}
		blob, err := fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	var allocs []float64
	for _, k := range []int{1, 40} {
		blob := lines(k)
		var fs FunctionSeries
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if err := fs.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		}))
		if fs.NumSegments() != k {
			t.Fatalf("decoded %d segments, want %d", fs.NumSegments(), k)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > 3 {
		t.Fatalf("allocations per decode: %v for 1 segment, %v for 40; want equal and at most 3", allocs[0], allocs[1])
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, fs := buildFever(t, nil)
	data, err := fs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func() []byte{
		"empty":       func() []byte { return nil },
		"bad magic":   func() []byte { d := clone(data); d[0] = 'X'; return d },
		"bad version": func() []byte { d := clone(data); d[4] = 99; return d },
		"truncated":   func() []byte { return data[:len(data)/2] },
		"zero segments": func() []byte {
			d := clone(data)
			// segment count lives at offset 4(magic)+1(version)+4(n)
			d[9], d[10], d[11], d[12] = 0, 0, 0, 0
			return d
		},
		"huge segment count": func() []byte {
			d := clone(data)
			d[9], d[10], d[11], d[12] = 0xff, 0xff, 0xff, 0xff
			return d
		},
	}
	for name, mk := range cases {
		var back FunctionSeries
		if err := back.UnmarshalBinary(mk()); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestDecodeRejectsBadKind(t *testing.T) {
	_, fs := buildFever(t, nil)
	mangled := *fs
	mangled.Segments = make([]Segment, len(fs.Segments))
	copy(mangled.Segments, fs.Segments)
	mangled.Segments[0].Kind = fit.Kind(200)
	tooMany := *fs
	tooMany.Segments = []Segment{fs.Segments[0]}
	tooMany.N = fs.Segments[0].Hi + 1
	tooMany.Segments[0].Kind, tooMany.Segments[0].Params = fit.KindPoly, make([]float64, maxParams+1)
	// The encoder refuses invalid series, and series it cannot decode,
	// before it appends a byte.
	for name, bad := range map[string]*FunctionSeries{"invalid kind": &mangled, "params past maxParams": &tooMany} {
		if blob, err := bad.MarshalBinary(); err == nil || blob != nil {
			t.Errorf("%s: marshal accepted (%d bytes, err %v)", name, len(blob), err)
		}
		prefix := []byte("keep")
		if got, err := bad.AppendBinary(prefix); err == nil || !bytes.Equal(got, prefix) {
			t.Errorf("%s: append accepted or wrote (%q, err %v)", name, got, err)
		}
	}
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// referenceReconstruct is Reconstruct through the fit.Curve interface:
// one decoded curve per segment, evaluated at the same times.
func referenceReconstruct(t *testing.T, fs *FunctionSeries) seq.Sequence {
	t.Helper()
	var out seq.Sequence
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		curve, err := sg.Curve()
		if err != nil {
			t.Fatal(err)
		}
		n := sg.Len()
		for j := 0; j < n; j++ {
			t := sg.StartT
			if n > 1 {
				t += (sg.EndT - sg.StartT) * float64(j) / float64(n-1)
			}
			out = append(out, seq.Point{T: t, V: curve.Eval(t)})
		}
	}
	return out
}

// spiky is a smooth wave with isolated spikes, so breakers cut 1-sample
// segments around them.
func spiky(n int) seq.Sequence {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 5*math.Sin(float64(i)/7) + 0.3*math.Cos(float64(i)*1.3)
		if i%13 == 6 {
			vals[i] += 40
		}
	}
	return seq.New(vals)
}

// TestAppendReconstructionBitIdentical pins that the allocation-free
// reconstruction, appended into nil or into a dirty reused buffer, is
// bit-identical to evaluating each segment through the fit.Curve
// interface, and that Reconstruct is too — for every breaker and every
// curve family the representation stores.
func TestAppendReconstructionBitIdentical(t *testing.T) {
	breakers := map[string]func() breaking.Breaker{
		"interpolation": func() breaking.Breaker { return breaking.Interpolation(0.5) },
		"regression":    func() breaking.Breaker { return breaking.Regression(0.5) },
		"bezier":        func() breaking.Breaker { return breaking.Bezier(0.5) },
		"online":        func() breaking.Breaker { return breaking.NewOnline(0.5) },
	}
	representers := map[string]fit.Fitter{
		"byproduct":     nil,
		"interpolation": fit.InterpolationFitter{},
		"regression":    fit.RegressionFitter{},
		"poly1":         fit.PolynomialFitter{Degree: 1},
		"poly2":         fit.PolynomialFitter{Degree: 2},
		"poly3":         fit.PolynomialFitter{Degree: 3},
		"bezier":        fit.BezierFitter{},
	}
	same := func(a, b seq.Sequence) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
				return false
			}
		}
		return true
	}
	dirty := make(seq.Sequence, 0, 64)
	singles := 0
	for bname, mk := range breakers {
		for n := 1; n <= 300; n++ {
			s := spiky(n)
			segs, err := mk().Break(s)
			if err != nil {
				t.Fatalf("%s n=%d: %v", bname, n, err)
			}
			for rname, representer := range representers {
				fs, err := Build(s, segs, representer)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", bname, rname, n, err)
				}
				for i := range fs.Segments {
					if fs.Segments[i].Len() == 1 {
						singles++
					}
				}
				want := referenceReconstruct(t, fs)
				fromNil, err := fs.AppendReconstruction(nil)
				if err != nil {
					t.Fatal(err)
				}
				// Leave stale samples past the length: a reused verification
				// buffer is truncated, not cleared.
				dirty = append(dirty[:0], s...)
				dirty = append(dirty, s...)
				reused, err := fs.AppendReconstruction(dirty[:0])
				if err != nil {
					t.Fatal(err)
				}
				dirty = reused
				whole, err := fs.Reconstruct()
				if err != nil {
					t.Fatal(err)
				}
				if !same(fromNil, want) || !same(reused, want) || !same(whole, want) {
					t.Fatalf("%s/%s n=%d: reconstruction differs from the fit.Curve evaluation", bname, rname, n)
				}
			}
		}
	}
	if singles == 0 {
		t.Fatal("no 1-sample segment was exercised")
	}

	// An invalid series fails validation on every call and leaves dst as
	// it was.
	bad := &FunctionSeries{N: 2, Segments: []Segment{{Lo: 0, Hi: 1, EndT: 1, Kind: fit.KindPoly, Params: []float64{0}}}}
	prefix := seq.Sequence{{T: 7, V: 7}}
	for i := 0; i < 2; i++ {
		got, err := bad.AppendReconstruction(prefix)
		if err == nil || len(got) != 1 || got[0] != prefix[0] {
			t.Fatalf("invalid series: %v, %v", got, err)
		}
	}
}

func TestValidateCatchesTimeOverlap(t *testing.T) {
	fs := &FunctionSeries{N: 4, Segments: []Segment{
		{Lo: 0, Hi: 1, StartT: 0, EndT: 5, Kind: fit.KindLine, Params: []float64{1, 0}},
		{Lo: 2, Hi: 3, StartT: 4, EndT: 9, Kind: fit.KindLine, Params: []float64{1, 0}},
	}}
	if err := fs.Validate(); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Errorf("time overlap not caught: %v", err)
	}
}
