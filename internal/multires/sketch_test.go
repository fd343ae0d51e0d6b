package multires

// Sketch unit and property tests: construction over known inputs, the
// band-soundness guarantee (lo ≤ d ≤ hi for the exactly computed metric
// distance) across every banded metric on the paper's generator
// workloads, and the degenerate corners — constant, NaN, sub-3-sample
// inputs — progressive queries must survive.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seqrep/internal/dist"
	"seqrep/internal/synth"
)

func TestNumBlocks(t *testing.T) {
	cases := []struct{ n, block, want int }{
		{0, 16, 0}, {10, 0, 0}, {10, -1, 0},
		{1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {97, 16, 7}, {96, 16, 6},
	}
	for _, c := range cases {
		if got := NumBlocks(c.n, c.block); got != c.want {
			t.Errorf("NumBlocks(%d, %d) = %d, want %d", c.n, c.block, got, c.want)
		}
	}
}

func TestBuildSketchKnownInput(t *testing.T) {
	// Two full blocks and a short tail: means and residual norms are
	// computable by hand.
	vals := []float64{1, 3, 5, 7, 10}
	s := BuildSketch(vals, 2)
	if s == nil {
		t.Fatal("nil sketch")
	}
	if s.N != 5 || s.Block != 2 {
		t.Fatalf("layout N=%d Block=%d", s.N, s.Block)
	}
	wantMeans := []float64{2, 6, 10}
	if len(s.Means) != len(wantMeans) {
		t.Fatalf("means %v, want %v", s.Means, wantMeans)
	}
	for i, m := range wantMeans {
		if math.Abs(s.Means[i]-m) > 1e-12 {
			t.Errorf("mean[%d] = %v, want %v", i, s.Means[i], m)
		}
	}
	// Residuals: {−1, 1, −1, 1, 0} → R1 = 4, R2 = 2, Rinf = 1.
	if math.Abs(s.R1-4) > 1e-12 || math.Abs(s.R2-2) > 1e-12 || math.Abs(s.Rinf-1) > 1e-12 {
		t.Errorf("residual norms R1=%v R2=%v Rinf=%v, want 4, 2, 1", s.R1, s.R2, s.Rinf)
	}
	// The z-half must be built from the exact same transform zl2
	// verification uses.
	z := dist.ZNormalizeValues(vals)
	zs := BuildSketch(z, 2)
	for i := range zs.Means {
		if s.ZMeans[i] != zs.Means[i] {
			t.Errorf("z-mean[%d] = %v, want %v (bit-level)", i, s.ZMeans[i], zs.Means[i])
		}
	}
	if s.ZR2 != zs.R2 {
		t.Errorf("ZR2 = %v, want %v (bit-level)", s.ZR2, zs.R2)
	}
}

func TestBuildSketchNilCases(t *testing.T) {
	if BuildSketch(nil, 16) != nil {
		t.Error("empty values produced a sketch")
	}
	if BuildSketch([]float64{1, 2}, 0) != nil || BuildSketch([]float64{1, 2}, -3) != nil {
		t.Error("non-positive block produced a sketch")
	}
}

func TestCompatible(t *testing.T) {
	a := BuildSketch(make([]float64, 32), 16)
	b := BuildSketch(make([]float64, 32), 16)
	if !a.Compatible(b) {
		t.Error("identical layouts incompatible")
	}
	if a.Compatible(BuildSketch(make([]float64, 33), 16)) {
		t.Error("different N compatible")
	}
	if a.Compatible(BuildSketch(make([]float64, 32), 8)) {
		t.Error("different block compatible")
	}
	var nilSketch *Sketch
	if nilSketch.Compatible(a) || a.Compatible(nil) {
		t.Error("nil sketch compatible")
	}
	if lo, hi, ok := DistanceBand(a, BuildSketch(make([]float64, 33), 16), "l2"); ok || lo != 0 || !math.IsInf(hi, 1) {
		t.Errorf("incompatible band = [%v, %v] ok=%v, want uninformative", lo, hi, ok)
	}
}

// bandMetrics pairs every banded metric name with the kernel computing
// the distance the band must contain.
func bandMetrics() map[string]func(a, b []float64) float64 {
	d := func(m dist.Metric) func(a, b []float64) float64 {
		return func(a, b []float64) float64 {
			v, err := m.Distance(a, b)
			if err != nil {
				return math.NaN()
			}
			return v
		}
	}
	return map[string]func(a, b []float64) float64{
		"l1":     d(dist.Manhattan),
		"l2":     d(dist.Euclidean),
		"linf":   d(dist.Chebyshev),
		"band":   d(dist.Chebyshev), // the ±ε value semantics = L∞
		"norml1": d(dist.MeanAbs),
		"norml2": d(dist.RMS),
		"zl2":    d(dist.ZEuclidean),
	}
}

// TestDistanceBandSoundness is the sketch's core property: for generator
// pairs across lengths, block sizes and metrics, the band brackets the
// exactly computed distance — bit-level, thanks to the rounding contract.
// The offset generator pairs a walk on a level from 1e4 to 1e9 with the
// same walk shifted by a near-constant 100–1 000 ulps of the level: the
// distance stays tiny while the rounding of the block means grows with
// the level.
func TestDistanceBandSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	type gen func() []float64
	mkSeqs := func(n int) []gen {
		return []gen{
			func() []float64 {
				f, err := synth.Fever(synth.FeverOpts{Samples: n})
				if err != nil {
					t.Fatal(err)
				}
				return f.Values()
			},
			func() []float64 {
				w, err := synth.RandomWalk(rng, n)
				if err != nil {
					t.Fatal(err)
				}
				return w.Values()
			},
			func() []float64 { return synth.Sine(n, 3, 17, 0.4).Values() },
			func() []float64 { return synth.Const(n, 36.8).Values() },
		}
	}
	// offset returns a near-duplicate pair far from zero.
	offset := func(n int) (a, b []float64) {
		level := math.Pow(10, 4+5*rng.Float64())
		delta := (math.Nextafter(level, math.Inf(1)) - level) * math.Pow(10, 2+rng.Float64())
		w, err := synth.RandomWalk(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		a, b = w.Values(), make([]float64, n)
		for i := range a {
			a[i] += level
			b[i] = a[i] + delta*(1+0.1*rng.Float64())
		}
		return a, b
	}
	metrics := bandMetrics()
	check := func(pair string, block int, a, b []float64) {
		t.Helper()
		qs, rs := BuildSketch(a, block), BuildSketch(b, block)
		for name, kernel := range metrics {
			lo, hi, ok := DistanceBand(qs, rs, name)
			if !ok {
				t.Fatalf("n=%d block=%d %s: band not ok", len(a), block, name)
			}
			d := kernel(a, b)
			if math.IsNaN(d) {
				continue // z-normalizing a constant: kernel refuses
			}
			if lo > d || d > hi {
				t.Errorf("n=%d block=%d %s %s: band [%v, %v] excludes d=%v", len(a), block, pair, name, lo, hi, d)
			}
			if lo < 0 || hi < lo {
				t.Errorf("%s: malformed band [%v, %v]", name, lo, hi)
			}
		}
	}
	for _, n := range []int{5, 49, 97, 128} {
		for _, block := range []int{1, 7, 16, 200} {
			gens := mkSeqs(n)
			for gi, ga := range gens {
				for gj, gb := range gens {
					check(fmt.Sprintf("pair(%d,%d)", gi, gj), block, ga(), gb())
				}
			}
			for i := range 20 {
				a, b := offset(n)
				if i%2 == 1 {
					a, b = b, a
				}
				check(fmt.Sprintf("offset %d", i), block, a, b)
			}
		}
	}
}

// TestDistanceBandIdentical: a sketch banded against an equal sequence
// collapses to (nearly) zero on every metric.
func TestDistanceBandIdentical(t *testing.T) {
	f, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	s := BuildSketch(f.Values(), 16)
	for name := range bandMetrics() {
		lo, hi, ok := DistanceBand(s, s, name)
		if !ok || lo != 0 {
			t.Errorf("%s: self band [%v, %v] ok=%v", name, lo, hi, ok)
		}
	}
}

// TestDistanceBandConstant: constant sequences have zero residuals, so
// their bands are tight (a point, up to slack) in every metric.
func TestDistanceBandConstant(t *testing.T) {
	a := BuildSketch(synth.Const(97, 10).Values(), 16)
	b := BuildSketch(synth.Const(97, 13).Values(), 16)
	want := map[string]float64{
		"l1":     97 * 3,
		"l2":     math.Sqrt(97 * 9),
		"linf":   3,
		"band":   3,
		"norml1": 3,
		"norml2": 3,
	}
	for name, d := range want {
		lo, hi, ok := DistanceBand(a, b, name)
		if !ok {
			t.Fatalf("%s: not ok", name)
		}
		if lo > d || d > hi {
			t.Errorf("%s: band [%v, %v] excludes exact %v", name, lo, hi, d)
		}
		if hi-lo > 1e-6*d+1e-9 {
			t.Errorf("%s: zero-residual band [%v, %v] not tight", name, lo, hi)
		}
	}
}

// TestDistanceBandDegenerateLengths: sub-3-sample sketches band soundly.
func TestDistanceBandDegenerateLengths(t *testing.T) {
	for _, n := range []int{1, 2} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(2*i) - 0.5
		}
		qs, rs := BuildSketch(a, 16), BuildSketch(b, 16)
		for name, kernel := range bandMetrics() {
			lo, hi, ok := DistanceBand(qs, rs, name)
			if !ok {
				t.Fatalf("n=%d %s: not ok", n, name)
			}
			d := kernel(a, b)
			if math.IsNaN(d) {
				continue
			}
			if lo > d || d > hi {
				t.Errorf("n=%d %s: band [%v, %v] excludes %v", n, name, lo, hi, d)
			}
		}
	}
}

// TestDistanceBandNaN: NaN samples never reach a sketch in the engine —
// seq.Validate rejects them at ingest, and the cascade additionally
// drops NaN-edged bands before pruning — so the sketch contract here is
// containment, not detection: no panic, and the summation-based metrics
// propagate the NaN into their band edges. The comparison-based L∞ max
// may skip NaN blocks and band the finite remainder, which is why the
// cascade guard alone would not suffice without ingest validation.
func TestDistanceBandNaN(t *testing.T) {
	a := BuildSketch([]float64{1, 2, math.NaN(), 4}, 2)
	b := BuildSketch([]float64{1, 2, 3, 4}, 2)
	for name := range bandMetrics() {
		lo, hi, ok := DistanceBand(a, b, name) // must not panic
		if !ok {
			t.Fatalf("%s: not ok", name)
		}
		switch name {
		case "linf", "band":
			if math.IsNaN(lo) || lo < 0 {
				t.Errorf("%s: malformed lo %v", name, lo)
			}
		default:
			if !math.IsNaN(lo) && !math.IsNaN(hi) {
				t.Errorf("%s: NaN input produced finite band [%v, %v]", name, lo, hi)
			}
		}
	}
}

func TestDistanceBandUnknownMetric(t *testing.T) {
	s := BuildSketch([]float64{1, 2, 3, 4}, 2)
	if _, _, ok := DistanceBand(s, s, "hamming"); ok {
		t.Error("unknown metric banded")
	}
}
