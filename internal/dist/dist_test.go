package dist

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"seqrep/internal/seq"
)

// almost compares floats to 1e-12 absolute tolerance.
func almost(got, want float64) bool { return math.Abs(got-want) <= 1e-12 }

// Golden values, hand-computed over a = (1,2,3,4), b = (2,2,1,8):
// diffs (1,0,2,4) → L1 = 7, L2 = sqrt(21), LInf = 4.
func TestGoldenValues(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 2, 1, 8}

	if d, err := L1(a, b); err != nil || !almost(d, 7) {
		t.Errorf("L1 = %v, %v; want 7", d, err)
	}
	if d, err := L2(a, b); err != nil || !almost(d, math.Sqrt(21)) {
		t.Errorf("L2 = %v, %v; want sqrt(21)", d, err)
	}
	if d, err := LInf(a, b); err != nil || !almost(d, 4) {
		t.Errorf("LInf = %v, %v; want 4", d, err)
	}
	if d, err := NormalizedL1(a, b); err != nil || !almost(d, 7.0/4) {
		t.Errorf("NormalizedL1 = %v, %v; want 7/4", d, err)
	}
	if d, err := NormalizedL2(a, b); err != nil || !almost(d, math.Sqrt(21)/2) {
		t.Errorf("NormalizedL2 = %v, %v; want sqrt(21)/2", d, err)
	}
}

// TestWithinBandGolden pins the ±ε band decisions of Chebyshev's kernel.
func TestWithinBandGolden(t *testing.T) {
	q := []float64{1, 2, 3, 4}
	s := []float64{1.4, 1.6, 3.5, 4}
	// LInf(q, s) = 0.5 exactly.
	for _, c := range []struct {
		eps  float64
		want bool
	}{{0.5, true}, {0.49, false}, {4, true}, {0, false}} {
		_, got, err := Within(Chebyshev, q, s, c.eps)
		if err != nil {
			t.Fatalf("band(eps=%g): %v", c.eps, err)
		}
		if got != c.want {
			t.Errorf("band(eps=%g) = %v, want %v", c.eps, got, c.want)
		}
	}
	if _, ok, err := Within(Chebyshev, q, q, 0); err != nil || !ok {
		t.Errorf("band(q, q, 0) = %v, %v; want true", ok, err)
	}
}

func TestBandDistance(t *testing.T) {
	q := seq.New([]float64{1, 2, 3, 4})
	s := seq.New([]float64{1.4, 1.6, 3.5, 4})
	d, within, err := BandDistance(q, s, 0.5)
	if err != nil || !within || !almost(d, 0.5) {
		t.Errorf("BandDistance = (%v, %v, %v), want (0.5, true, nil)", d, within, err)
	}
	if _, within, err := BandDistance(q, s, 0.4); err != nil || within {
		t.Errorf("BandDistance(eps=0.4) within = %v, want false", within)
	}
	if _, _, err := BandDistance(q, s, -0.1); err == nil {
		t.Error("BandDistance with negative tolerance: no error")
	}
}

func TestZNormalizedL2(t *testing.T) {
	a := []float64{1, 2, 3, 2, 1}
	// b is a shifted and amplitude-scaled copy of a: z-distance 0.
	b := []float64{10, 30, 50, 30, 10}
	if d, err := ZNormalizedL2(a, b); err != nil || !almost(d, 0) {
		t.Errorf("ZNormalizedL2(scaled copy) = %v, %v; want 0", d, err)
	}
	// Constant sequences z-normalize to zero vectors.
	c := []float64{7, 7, 7, 7, 7}
	if d, err := ZNormalizedL2(c, c); err != nil || !almost(d, 0) {
		t.Errorf("ZNormalizedL2(const, const) = %v, %v; want 0", d, err)
	}
}

func TestLengthMismatch(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2}
	for name, d := range map[string]func(a, b []float64) (float64, error){
		"L1": L1, "L2": L2, "LInf": LInf, "NormalizedL1": NormalizedL1, "NormalizedL2": NormalizedL2, "ZNormalizedL2": ZNormalizedL2,
	} {
		if _, err := d(a, b); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("%s mismatch error = %v", name, err)
		}
	}
	for _, m := range Metrics() {
		if _, err := m.Distance(a, b); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("metric %s mismatch error = %v", m.Name(), err)
		}
		if _, _, err := Within(m, a, b, 1); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("metric %s Within mismatch error = %v", m.Name(), err)
		}
	}
	if _, _, err := BandDistance(seq.New(a), seq.New(b), 1); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("BandDistance mismatch error = %v", err)
	}
}

// Property: the band accepts s around q at ε ⇔ LInf(q, s) ≤ ε, on random
// sequences and tolerances including the exact boundary ε = LInf(q, s),
// and on acceptance it returns LInf.
func TestWithinBandMatchesLInf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(64)
		q := make([]float64, n)
		s := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64() * 10
			s[i] = q[i] + rng.NormFloat64()
		}
		linf, err := LInf(q, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, linf / 2, linf, linf * 1.5, rng.Float64() * 5} {
			d, within, err := Within(Chebyshev, q, s, eps)
			if err != nil {
				t.Fatal(err)
			}
			if within != (linf <= eps) {
				t.Fatalf("trial %d: band(eps=%g) = %v but LInf = %g", trial, eps, within, linf)
			}
			if within && d != linf {
				t.Fatalf("trial %d: band dist = %g, LInf = %g", trial, d, linf)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, m := range Metrics() {
		got, err := ByName(m.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", m.Name(), err)
			continue
		}
		if got.Name() != m.Name() {
			t.Errorf("ByName(%q).Name() = %q", m.Name(), got.Name())
		}
	}
	for alias, want := range map[string]Metric{
		"euclidean": Euclidean, "manhattan": Manhattan, "chebyshev": Chebyshev,
		"max": Chebyshev, "rms": RMS, "zeuclidean": ZEuclidean,
	} {
		got, err := ByName(alias)
		if err != nil || got.Name() != want.Name() {
			t.Errorf("ByName(%q) = %v, %v; want %s", alias, got, err, want.Name())
		}
	}
	if _, err := ByName("dtw"); err == nil {
		t.Error("ByName(dtw): expected error")
	}
}

// benchSequences builds a query and a store sequence that violates the
// band at position k, to measure the early-abandoning path.
func benchSequences(n, k int) (q, s []float64) {
	q = make([]float64, n)
	s = make([]float64, n)
	for i := range q {
		q[i] = math.Sin(float64(i) / 10)
		s[i] = q[i]
		if i >= k {
			s[i] = q[i] + 10 // far outside any small band
		}
	}
	return q, s
}

// BenchmarkWithinBandAbandonEarly measures the early-abandoning fast
// path: the first sample already violates the band, so cost is O(1)
// regardless of n.
func BenchmarkWithinBandAbandonEarly(b *testing.B) {
	q, s := benchSequences(4096, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := Within(Chebyshev, q, s, 0.5); ok || err != nil {
			b.Fatal("unexpected match")
		}
	}
}

// BenchmarkWithinBandFullScan measures the worst case: the sequence stays
// inside the band throughout, so every sample is inspected.
func BenchmarkWithinBandFullScan(b *testing.B) {
	q, s := benchSequences(4096, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := Within(Chebyshev, q, s, 0.5); !ok || err != nil {
			b.Fatal("unexpected mismatch")
		}
	}
}

// BenchmarkLInfFullScan is the no-abandon baseline the band check is
// measured against.
func BenchmarkLInfFullScan(b *testing.B) {
	q, s := benchSequences(4096, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LInf(q, s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistanceWithinMatchesDistance is the threshold-kernel contract: for
// every built-in metric, Within must return exactly the decision
// `Distance(a,b) <= eps` and, on acceptance, the bit-identical distance —
// and so must the sequence wrappers the benchmark harness calls, the ±ε
// band among them (against LInf). eps values are drawn around the true
// distance so the boundary (where an unsafe early abandon would flip a
// decision) is exercised heavily.
func TestDistanceWithinMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randVals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 20 * (rng.Float64() - 0.5)
		}
		return v
	}
	type row struct {
		name   string
		full   func(a, b []float64) (float64, error)
		within func(a, b []float64, eps float64) (float64, bool, error)
	}
	var rows []row
	for _, m := range Metrics() {
		rows = append(rows,
			row{m.Name(), m.Distance, func(a, b []float64, eps float64) (float64, bool, error) { return Within(m, a, b, eps) }},
			row{m.Name() + " over sequences", m.Distance, func(a, b []float64, eps float64) (float64, bool, error) {
				return DistanceWithin(m, seq.New(a), seq.New(b), eps)
			}})
	}
	rows = append(rows, row{"band", LInf, func(a, b []float64, eps float64) (float64, bool, error) {
		return BandDistance(seq.New(a), seq.New(b), eps)
	}})
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a, b := randVals(n), randVals(n)
		if trial%5 == 0 {
			b = slices.Clone(a) // exact pairs hit the d == eps == 0 boundary
		}
		for _, r := range rows {
			want, err := r.full(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0, want * 0.5, want, want * (1 + 1e-15), want * 2, math.Nextafter(want, 0), math.Nextafter(want, math.Inf(1))} {
				d, within, err := r.within(a, b, eps)
				if err != nil {
					t.Fatal(err)
				}
				if within != (want <= eps) {
					t.Fatalf("%s n=%d eps=%v: within=%v, want %v (d=%v)", r.name, n, eps, within, want <= eps, want)
				}
				if within && d != want {
					t.Fatalf("%s n=%d eps=%v: accepted d=%v differs from Distance=%v", r.name, n, eps, d, want)
				}
			}
		}
	}
}

// TestL2ValuesWithin checks the l2 threshold kernel against its full
// counterpart on a boundary-heavy workload over bare value vectors.
func TestL2ValuesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		want, err := L2(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, want, math.Nextafter(want, 0), want * 2} {
			d, within, err := Within(Euclidean, a, b, eps)
			if err != nil {
				t.Fatal(err)
			}
			if within != (want <= eps) {
				t.Fatalf("n=%d eps=%v: within=%v, want %v", n, eps, within, want <= eps)
			}
			if within && d != want {
				t.Fatalf("n=%d eps=%v: d=%v != %v", n, eps, d, want)
			}
		}
	}
	if _, _, err := Within(Euclidean, []float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops items at random, so a pooled buffer allocates anew.
var raceEnabled bool

// TestDistanceWithinAllocs guards the hot verification kernels against
// allocation creep: a threshold check must not allocate at all, over
// values, nor through the sequence wrappers and their pooled scratch.
func TestDistanceWithinAllocs(t *testing.T) {
	a := make([]float64, 256)
	b := slices.Clone(a)
	for i := range b {
		b[i] += 0.001 * float64(i%7)
	}
	as, bs := seq.New(a), seq.New(b)
	check := func(what string, within func(eps float64) (float64, bool, error)) {
		t.Helper()
		allocs := testing.AllocsPerRun(100, func() {
			for _, eps := range []float64{1e9, 1e-12} {
				if _, _, err := within(eps); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 0 {
			t.Errorf("%s allocates %.1f per run", what, allocs)
		}
	}
	for _, m := range Metrics() {
		check(m.Name()+": Within", func(eps float64) (float64, bool, error) { return Within(m, a, b, eps) })
		if !raceEnabled {
			check(m.Name()+": DistanceWithin", func(eps float64) (float64, bool, error) { return DistanceWithin(m, as, bs, eps) })
		}
	}
	if !raceEnabled {
		check("BandDistance", func(eps float64) (float64, bool, error) { return BandDistance(as, bs, eps) })
	}
}

// TestDistanceWithinNegativeEps: the Thresholded contract holds even for
// degenerate tolerances — identical sequences are not "within" eps < 0.
func TestDistanceWithinNegativeEps(t *testing.T) {
	a := []float64{1, 2, 3}
	for _, m := range Metrics() {
		if _, within, err := Within(m, a, slices.Clone(a), -1); err != nil || within {
			t.Errorf("%s: within=%v err=%v for eps=-1 on identical sequences", m.Name(), within, err)
		}
	}
}
