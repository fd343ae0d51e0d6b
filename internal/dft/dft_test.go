package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDFTKnownValues(t *testing.T) {
	// Constant signal: all energy in the DC bin.
	c := DFT([]float64{2, 2, 2, 2})
	if !almostEq(real(c[0]), 4, 1e-12) || !almostEq(imag(c[0]), 0, 1e-12) {
		t.Errorf("DC = %v, want 4 (2*sqrt(4))", c[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(c[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, c[k])
		}
	}
	// Empty input.
	if out := DFT(nil); len(out) != 0 {
		t.Errorf("DFT(nil) = %v", out)
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		slow := DFT(vals)
		fast, err := FFT(vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := range slow {
			if cmplx.Abs(slow[k]-fast[k]) > 1e-9 {
				t.Fatalf("n=%d bin %d: DFT %v vs FFT %v", n, k, slow[k], fast[k])
			}
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if _, err := FFT(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := FFT(make([]float64, 3)); err == nil {
		t.Error("non power-of-two accepted")
	}
	if _, err := InverseFFT(nil); err == nil {
		t.Error("inverse empty accepted")
	}
	if _, err := InverseFFT(make([]complex128, 5)); err == nil {
		t.Error("inverse non power-of-two accepted")
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	coeffs, err := FFT(vals)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InverseFFT(coeffs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !almostEq(back[i], vals[i], 1e-9) {
			t.Fatalf("round trip[%d] = %g, want %g", i, back[i], vals[i])
		}
	}
}

// Parseval: orthonormal transform preserves energy.
func TestParsevalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		if n > 64 {
			n = 64
		}
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e5)
		}
		coeffs := DFT(vals)
		var e1, e2 float64
		for i := range vals {
			e1 += vals[i] * vals[i]
			e2 += real(coeffs[i])*real(coeffs[i]) + imag(coeffs[i])*imag(coeffs[i])
		}
		return almostEq(e1, e2, 1e-6*(1+e1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTransformDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{7, 8} { // odd takes DFT path, power of two takes FFT
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		got := Transform(vals)
		want := DFT(vals)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d bin %d mismatch", n, k)
			}
		}
	}
}

func TestFeatures(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	f, err := Features(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 6 {
		t.Fatalf("feature length %d, want 6", len(f))
	}
	coeffs := Transform(vals)
	for i := 0; i < 3; i++ {
		if !almostEq(f[2*i], real(coeffs[i]), 1e-12) || !almostEq(f[2*i+1], imag(coeffs[i]), 1e-12) {
			t.Errorf("feature %d mismatch", i)
		}
	}
	if _, err := Features(vals, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k beyond length pads with zeros.
	long, err := Features([]float64{1, 2}, 5)
	if err != nil || len(long) != 10 {
		t.Fatalf("padded features: %v %v", long, err)
	}
	for i := 4; i < 10; i++ {
		if long[i] != 0 {
			t.Errorf("pad feature[%d] = %g", i, long[i])
		}
	}
}

// TestFeaturesPrefixBitIdentical: Features computes only the
// coefficients it keeps, and each must equal Transform's bit for bit on
// every length, power of two (the FFT) or not (the direct transform) —
// stored feature vectors must not notice the shortcut, nor which build
// wrote them. The last length's rows exceed twiddleCap at k = 8, so it
// runs without a table and caches nothing, and must agree all the same.
func TestFeaturesPrefixBitIdentical(t *testing.T) {
	big := twiddleCap/(16*8) + 1
	for _, n := range []int{1, 7, 8, 64, 97, 100, 128, 256, big} {
		vals := randVals(n, 15)
		ks := []int{1, 8, n, n + 3}
		var full []complex128
		if n == big {
			ks = []int{8, 1}
			full = dftPrefix(nil, vals, 8, nil) // the prefix DFT runs; the whole O(n²) transform would take minutes
		} else {
			full = Transform(vals)
		}
		for _, k := range ks {
			want := make([]float64, 2*k) // k > n pads with zeros
			for i := 0; i < min(k, n); i++ {
				want[2*i], want[2*i+1] = real(full[i]), imag(full[i])
			}
			got, err := Features(vals, k)
			if err != nil || len(got) != len(want) {
				t.Fatalf("n=%d k=%d: len %d err %v", n, k, len(got), err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d k=%d entry %d: %v != %v", n, k, i, got[i], want[i])
				}
			}
			if n == big && k == 8 {
				twiddles.mu.RLock()
				cached := len(twiddles.rows[n])
				twiddles.mu.RUnlock()
				if cached >= 8*n {
					t.Fatalf("n=%d: %d twiddles cached past the %d-byte cap", n, cached, twiddleCap)
				}
			}
		}
		checkTwiddleBytes(t)
	}
}

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops items at random and so pooled scratch can allocate.
var raceEnabled bool

// TestFeaturesPastCapAllocates: a length whose twiddle rows the cache
// cannot hold allocates no table — only the vector and the coefficients
// dftPrefix returns — so a long series costs no more memory than before
// the cache existed. The bound is not checked under -race.
func TestFeaturesPastCapAllocates(t *testing.T) {
	vals := randVals(twiddleCap/(16*8)+1, 3)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Features(vals, 8); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && allocs > 2 {
		t.Errorf("Features past the cap allocates %v times per call, want at most 2", allocs)
	}
}

// checkTwiddleBytes asserts the cache's byte count is what its tables
// hold and never passes twiddleCap.
func checkTwiddleBytes(t *testing.T) {
	t.Helper()
	twiddles.mu.RLock()
	defer twiddles.mu.RUnlock()
	held := 0
	for _, rows := range twiddles.rows {
		held += 16 * len(rows)
	}
	if held != twiddles.bytes || held > twiddleCap {
		t.Fatalf("twiddle cache holds %d bytes, counts %d, cap %d", held, twiddles.bytes, twiddleCap)
	}
}

// TestFeaturesConcurrent: goroutines filling and growing the twiddle
// cache for several lengths at once all get the serial answers (run under
// -race), and the cache stays within its cap.
func TestFeaturesConcurrent(t *testing.T) {
	lengths := []int{5, 97, 100, 128, 256, 300}
	ks := []int{1, 8, 40}
	want := make(map[[2]int][]float64)
	for _, n := range lengths {
		for _, k := range ks {
			want[[2]int{n, k}], _ = Features(randVals(n, int64(n)), k)
		}
	}
	twiddles.mu.Lock()
	twiddles.rows, twiddles.bytes = make(map[int][]complex128), 0
	twiddles.mu.Unlock()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(lengths) * len(ks) {
				n, k := lengths[(i+g)%len(lengths)], ks[(i/len(lengths)+g)%len(ks)]
				got, err := Features(randVals(n, int64(n)), k)
				if err != nil {
					t.Error(err)
					return
				}
				for j, v := range want[[2]int{n, k}] {
					if math.Float64bits(got[j]) != math.Float64bits(v) {
						t.Errorf("n=%d k=%d entry %d: %v != %v", n, k, j, got[j], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkTwiddleBytes(t)
}

func TestFeatureDistanceLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		n := 64
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64() * 5
			b[i] = rng.NormFloat64() * 5
		}
		var trueD float64
		for i := range a {
			d := a[i] - b[i]
			trueD += d * d
		}
		trueD = math.Sqrt(trueD)
		for _, k := range []int{1, 2, 4, 8} {
			fa, _ := Features(a, k)
			fb, _ := Features(b, k)
			fd, err := FeatureDistance(fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			if fd > trueD+1e-9 {
				t.Fatalf("k=%d: feature distance %g exceeds true distance %g (false dismissal possible)", k, fd, trueD)
			}
		}
	}
	if _, err := FeatureDistance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestFeatureDistancePastSquareOverflow: differences whose squares
// overflow (past ~1e154) still give the finite distance, scaled the way
// BLAS dnrm2 does; only a difference that itself overflows gives +Inf.
// Below the overflow the kernel is the plain sum of squares, bit for bit.
func TestFeatureDistancePastSquareOverflow(t *testing.T) {
	for _, c := range []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1e155, 0}, []float64{-1e155, 0}, 2e155},
		{[]float64{3e200, 4e200}, []float64{0, 0}, 5e200},
		{[]float64{1e300, 1e300, 1e300, 1e300}, []float64{0, 0, 0, 0}, 2e300},
		{[]float64{math.MaxFloat64, 0}, []float64{-math.MaxFloat64, 0}, math.Inf(1)},
	} {
		fd, err := FeatureDistance(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := FeatureDist(c.a, c.b); got != fd {
			t.Errorf("FeatureDist %g != FeatureDistance %g", got, fd)
		}
		if math.IsInf(c.want, 1) != math.IsInf(fd, 1) || math.Abs(fd-c.want) > 1e-15*c.want {
			t.Errorf("FeatureDistance(%v, %v) = %g, want %g", c.a, c.b, fd, c.want)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for range 100 {
		a, b := make([]float64, 8), make([]float64, 8)
		sum := 0.0
		for i := range a {
			a[i], b[i] = 1e150*rng.NormFloat64(), 1e150*rng.NormFloat64()
			d := a[i] - b[i]
			sum += d * d
		}
		if fd, _ := FeatureDistance(a, b); fd != math.Sqrt(sum) {
			t.Fatalf("finite sum changed: %g, want %g", fd, math.Sqrt(sum))
		}
	}
}

func TestMainFrequency(t *testing.T) {
	// Pure sine of period 16 over 128 samples lands in bin 128/16 = 8.
	s := synth.Sine(128, 3, 16, 0)
	bin, mag := MainFrequency(s.Values())
	if bin != 8 {
		t.Errorf("main frequency bin = %d, want 8", bin)
	}
	if mag <= 0 {
		t.Errorf("magnitude = %g", mag)
	}
	// Dilating the sine (doubling the period) halves the bin — the §3
	// argument that frequency comparison misses dilation similarity.
	s2 := synth.Sine(128, 3, 32, 0)
	bin2, _ := MainFrequency(s2.Values())
	if bin2 != 4 {
		t.Errorf("dilated main frequency bin = %d, want 4", bin2)
	}
}

func TestSubsequenceMatch(t *testing.T) {
	// Plant the query inside a longer sequence at a known offset.
	q := synth.Sine(32, 5, 8, 0)
	long := make(seq.Sequence, 0, 200)
	flat := synth.Const(80, 0)
	long = append(long, flat...)
	for _, p := range q {
		long = append(long, seq.Point{T: float64(len(long)), V: p.V})
	}
	tail := synth.Const(88, 0)
	for _, p := range tail {
		long = append(long, seq.Point{T: float64(len(long)), V: p.V})
	}

	hits, err := SubsequenceMatch("ecg1", long, q, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.Offset == 80 {
			found = true
			if h.Distance > 1e-9 {
				t.Errorf("planted window distance %g", h.Distance)
			}
		}
	}
	if !found {
		t.Fatalf("planted occurrence at offset 80 not found; hits = %v", hits)
	}

	if _, err := SubsequenceMatch("x", long, nil, 4, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := SubsequenceMatch("x", long, q, 4, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if hits, err := SubsequenceMatch("x", q[:10], q, 4, 1); err != nil || hits != nil {
		t.Errorf("stored shorter than query: %v %v", hits, err)
	}
}
