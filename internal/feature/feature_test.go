package feature

import (
	"math"
	"strings"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/fit"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// represent breaks s with the interpolation breaker and keeps byproduct
// curves — the pipeline the paper uses for its feature examples.
func represent(t *testing.T, s seq.Sequence, eps float64) *rep.FunctionSeries {
	t.Helper()
	segs, err := breaking.Interpolation(eps).Break(s)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := rep.Build(s, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestClassify(t *testing.T) {
	cases := []struct {
		slope, delta float64
		want         Symbol
	}{
		{1, 0.25, Up},
		{0.26, 0.25, Up},
		{0.25, 0.25, Flat},
		{0, 0.25, Flat},
		{-0.25, 0.25, Flat},
		{-0.26, 0.25, Down},
		{-3, 0.25, Down},
		{0.1, 0, Up},
		{0, 0, Flat},
		{-0.1, 0, Down},
	}
	for _, c := range cases {
		if got := Classify(c.slope, c.delta); got != c.want {
			t.Errorf("Classify(%g, %g) = %c, want %c", c.slope, c.delta, got, c.want)
		}
	}
}

func TestSymbolPaperString(t *testing.T) {
	if Up.PaperString() != "1" || Flat.PaperString() != "0" || Down.PaperString() != "-1" {
		t.Error("paper notation broken")
	}
	if !strings.Contains(Symbol('x').PaperString(), "Symbol") {
		t.Error("unknown symbol rendering")
	}
	if got := PaperSymbols("UFD"); got != "1 0 -1" {
		t.Errorf("PaperSymbols = %q", got)
	}
}

func TestSymbolizeFever(t *testing.T) {
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	fs := represent(t, fever, 0.5)
	symbols, err := Symbolize(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(symbols) != fs.NumSegments() {
		t.Fatalf("symbol count %d, segments %d", len(symbols), fs.NumSegments())
	}
	// Two-peak shape: must contain exactly two U-runs, each followed by a
	// D after optional Fs.
	peaks, err := Peaks(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 2 {
		t.Fatalf("fever peaks = %d (symbols %q)", len(peaks), symbols)
	}
}

func TestSymbolizeErrors(t *testing.T) {
	fever, _ := synth.Fever(synth.FeverOpts{})
	fs := represent(t, fever, 0.5)
	if _, err := Symbolize(fs, -1); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := Symbolize(nil, 0.5); err == nil {
		t.Error("nil representation accepted")
	}
	if _, err := Symbolize(&rep.FunctionSeries{}, 0.5); err == nil {
		t.Error("empty representation accepted")
	}
}

func TestPeaksOnFeverGroundTruth(t *testing.T) {
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	fs := represent(t, fever, 0.5)
	peaks, err := Peaks(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 2 {
		t.Fatalf("peaks = %d, want 2", len(peaks))
	}
	// Ground truth: peaks at 8h and 16h.
	if math.Abs(peaks[0].Time-8) > 1.5 {
		t.Errorf("peak 1 at %g, want ~8", peaks[0].Time)
	}
	if math.Abs(peaks[1].Time-16) > 1.5 {
		t.Errorf("peak 2 at %g, want ~16", peaks[1].Time)
	}
	// Peak values near the generated maximum (~105).
	for i, p := range peaks {
		if p.Value < 103 || p.Value > 106 {
			t.Errorf("peak %d value %g", i, p.Value)
		}
		if p.RisingSeg >= p.DescendingSeg {
			t.Errorf("peak %d segment order", i)
		}
		// Boundary points are consistent: rising ends before descending starts
		// (possibly with flats between).
		if p.REnd.T > p.DStart.T {
			t.Errorf("peak %d REnd after DStart", i)
		}
	}
}

func TestPeaksThreePeakFever(t *testing.T) {
	s, err := synth.ThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	fs := represent(t, s, 0.5)
	peaks, err := Peaks(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 3 {
		t.Errorf("three-peak fever detected %d peaks", len(peaks))
	}
}

func TestPeaksMonotoneHasNone(t *testing.T) {
	line := synth.Line(50, 1, 0)
	fs := represent(t, line, 0.1)
	peaks, err := Peaks(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 0 {
		t.Errorf("monotone line has %d peaks", len(peaks))
	}
	// Valley (descending then rising) is not a peak either.
	valley := make([]float64, 40)
	for i := range valley {
		valley[i] = math.Abs(float64(i) - 20)
	}
	vfs := represent(t, seq.New(valley), 0.1)
	vp, err := Peaks(vfs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(vp) != 0 {
		t.Errorf("valley detected as %d peaks", len(vp))
	}
}

func TestPeakPositionUsesHigherBoundary(t *testing.T) {
	// Build a representation by hand: rising segment ends at value 10,
	// descending starts at value 12 (a flat in between rose slightly within
	// tolerance) — peak must sit at DStart.
	fs := &rep.FunctionSeries{N: 9}
	fs.AppendSegment(rep.Segment{Lo: 0, Hi: 2, StartT: 0, StartV: 0, EndT: 2, EndV: 10, Kind: fit.KindLine}, 5, 0)
	fs.AppendSegment(rep.Segment{Lo: 3, Hi: 5, StartT: 3, StartV: 11, EndT: 5, EndV: 12, Kind: fit.KindLine}, 0.2, 10.4)
	fs.AppendSegment(rep.Segment{Lo: 6, Hi: 8, StartT: 6, StartV: 12, EndT: 8, EndV: 0, Kind: fit.KindLine}, -6, 48)
	peaks, err := Peaks(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 1 {
		t.Fatalf("peaks = %d", len(peaks))
	}
	if peaks[0].Time != 6 || peaks[0].Value != 12 {
		t.Errorf("peak at (%g, %g), want (6, 12) from DStart", peaks[0].Time, peaks[0].Value)
	}
}

func TestIntervals(t *testing.T) {
	peaks := []Peak{{Time: 10}, {Time: 25}, {Time: 45}}
	got := Intervals(peaks)
	if len(got) != 2 || got[0] != 15 || got[1] != 20 {
		t.Errorf("Intervals = %v", got)
	}
	if Intervals(peaks[:1]) != nil {
		t.Error("single peak should have no intervals")
	}
	if Intervals(nil) != nil {
		t.Error("no peaks should have no intervals")
	}
}

func TestECGRRIntervals(t *testing.T) {
	ecg, rPeaks, err := synth.ECG(nil, synth.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := represent(t, ecg, 10)
	profile, err := Extract(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile.Peaks) != len(rPeaks) {
		t.Fatalf("detected %d peaks, ground truth %d (symbols %q)",
			len(profile.Peaks), len(rPeaks), profile.Symbols)
	}
	for i, p := range profile.Peaks {
		if math.Abs(p.Time-rPeaks[i]) > 5 {
			t.Errorf("peak %d at %g, ground truth %g", i, p.Time, rPeaks[i])
		}
	}
	// RR intervals near the generator's 130 samples.
	for i, rr := range profile.Intervals {
		if math.Abs(rr-130) > 8 {
			t.Errorf("interval %d = %g, want ~130", i, rr)
		}
	}
}

func TestExtractProfileConsistency(t *testing.T) {
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	fs := represent(t, fever, 0.5)
	p, err := Extract(fs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Intervals) != len(p.Peaks)-1 {
		t.Errorf("intervals %d for %d peaks", len(p.Intervals), len(p.Peaks))
	}
	if _, err := Extract(nil, 0.25); err == nil {
		t.Error("nil representation accepted")
	}
}

func TestMeasureSteepness(t *testing.T) {
	fever, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	fs := represent(t, fever, 0.5)
	st := MeasureSteepness(fs)
	if st.MaxRise <= 0 || st.MaxDrop >= 0 {
		t.Errorf("steepness %+v", st)
	}
	if st.MeanAbs <= 0 || st.MeanAbs > st.MaxRise {
		t.Errorf("MeanAbs = %g", st.MeanAbs)
	}
	if got := MeasureSteepness(&rep.FunctionSeries{}); got != (Steepness{}) {
		t.Errorf("empty steepness %+v", got)
	}
}

func TestPeakTable(t *testing.T) {
	ecg, _, err := synth.ECG(nil, synth.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := represent(t, ecg, 10)
	peaks, err := Peaks(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	table, err := PeakTable(fs, peaks)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "Rising Function") || !strings.Contains(table, "DEnd") {
		t.Errorf("table header missing:\n%s", table)
	}
	lines := strings.Count(table, "\n")
	if lines != len(peaks)+1 {
		t.Errorf("table has %d lines for %d peaks", lines, len(peaks))
	}
	// Out-of-range peak reference fails loudly.
	bad := []Peak{{RisingSeg: 999, DescendingSeg: 0}}
	if _, err := PeakTable(fs, bad); err == nil {
		t.Error("bad peak reference accepted")
	}
}
