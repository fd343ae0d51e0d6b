// Package dft implements the DFT-feature similarity search of the prior
// art the paper compares against (Agrawal, Faloutsos & Swami 1993 "F-index";
// Faloutsos, Ranganathan & Manolopoulos 1994 subsequence matching). It is
// the baseline for the experiments showing that proximity in the frequency
// domain cannot detect similarity under dilation or contraction (§3), which
// is what motivates the paper's feature-based representation.
//
// The transform is orthonormal (1/√n scaling), so by Parseval's theorem the
// Euclidean distance between two sequences equals the Euclidean distance
// between their full DFTs, and distance over the first k coefficients lower
// bounds it — guaranteeing no false dismissals when filtering by features.
package dft

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
)

// DFT returns the orthonormal discrete Fourier transform of vals,
// X[k] = (1/√n) Σ_j x[j]·e^(-2πi·jk/n), computed directly in O(n²).
// Kept as the reference implementation; FFT is the fast path.
func DFT(vals []float64) []complex128 { return dftPrefix(nil, vals, len(vals), nil) }

// dftPrefix returns the first m <= len(vals) coefficients of DFT(vals) in
// dst, grown only when it holds fewer than m, each computed exactly as
// the full transform computes it, in O(n·m). tw, when not nil, holds at
// least m rows of those twiddles (twiddleRows), read instead of computed.
func dftPrefix(dst []complex128, vals []float64, m int, tw []complex128) []complex128 {
	n := len(vals)
	out := slices.Grow(dst[:0], m)[:m]
	if n == 0 {
		return out
	}
	scale := 1 / math.Sqrt(float64(n))
	for k := 0; k < m; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			if tw != nil {
				sum += complex(vals[j], 0) * tw[k*n+j]
				continue
			}
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += complex(vals[j], 0) * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum * complex(scale, 0)
	}
	return out
}

// FFT returns the orthonormal DFT of vals via the radix-2 Cooley–Tukey
// algorithm. len(vals) must be a power of two.
func FFT(vals []float64) ([]complex128, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dft: empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("dft: FFT length %d is not a power of two", n)
	}
	return fftInto(nil, vals, n), nil
}

// fftInto is FFT into dst, grown only when it holds fewer than len(vals)
// values, of which only the first keep are computed.
func fftInto(dst []complex128, vals []float64, keep int) []complex128 {
	buf := slices.Grow(dst[:0], len(vals))[:len(vals)]
	for i, v := range vals {
		buf[i] = complex(v, 0)
	}
	fftInPlace(buf, false, keep)
	scale := complex(1/math.Sqrt(float64(len(vals))), 0)
	for i := range buf[:keep] {
		buf[i] *= scale
	}
	return buf[:keep]
}

// InverseFFT inverts an orthonormal transform produced by FFT.
func InverseFFT(coeffs []complex128) ([]float64, error) {
	n := len(coeffs)
	if n == 0 {
		return nil, fmt.Errorf("dft: empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("dft: inverse FFT length %d is not a power of two", n)
	}
	buf := make([]complex128, n)
	copy(buf, coeffs)
	fftInPlace(buf, true, n)
	scale := 1 / math.Sqrt(float64(n))
	out := make([]float64, n)
	for i := range buf {
		out[i] = real(buf[i]) * scale
	}
	return out, nil
}

// fftInPlace is an iterative radix-2 FFT (bit-reversal permutation then
// butterfly passes). inverse selects the conjugate transform. Only the
// first keep outputs are computed: a pass of block length L needs only
// the first min(L, keep) outputs of each block, so it runs only the
// butterflies that yield them, each exactly as the full transform does.
func fftInPlace(buf []complex128, inverse bool, keep int) {
	n := len(buf)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if !inverse {
			angle = -angle
		}
		wl := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for i := 0; i < min(half, keep); i++ {
				a := buf[start+i]
				b := buf[start+i+half] * w
				buf[start+i] = a + b
				buf[start+i+half] = a - b
				w *= wl
			}
		}
	}
}

// Transform computes the orthonormal DFT choosing FFT when the length is a
// power of two and the direct transform otherwise.
func Transform(vals []float64) []complex128 {
	if n := len(vals); n > 0 && n&(n-1) == 0 {
		out, err := FFT(vals)
		if err == nil {
			return out
		}
	}
	return DFT(vals)
}

// Features returns the 2k-dimensional feature vector of the first k DFT
// coefficients (real and imaginary parts interleaved), the mapping the
// F-index uses. Sequences shorter than required pad conceptually with the
// available coefficients; k must be >= 1. Only the coefficients kept are
// computed, in pooled scratch: by the FFT's butterflies for a power-of-two
// length, else by the direct sum over cached twiddle rows. Each must stay
// bit-identical to Transform's, as stored vectors are compared with query
// vectors under a fixed rounding whisker.
func Features(vals []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("dft: feature count %d must be >= 1", k)
	}
	sc := coeffScratch.Get().(*[]complex128)
	defer coeffScratch.Put(sc)
	if n := len(vals); n > 0 && n&(n-1) == 0 {
		*sc = fftInto(*sc, vals, min(k, n))
	} else {
		m := min(k, n)
		*sc = dftPrefix(*sc, vals, m, twiddleRows(n, m))
	}
	coeffs := *sc
	out := make([]float64, 0, 2*k)
	for i := 0; i < k; i++ {
		var c complex128
		if i < len(coeffs) {
			c = coeffs[i]
		}
		out = append(out, real(c), imag(c))
	}
	return out, nil
}

var coeffScratch = sync.Pool{New: func() any { return new([]complex128) }}

// twiddleCap bounds the bytes the twiddle cache holds. The lengths a
// corpus stores are few, so the cap only binds on long series and on an
// adversarial spread of lengths.
const twiddleCap = 1 << 20

// twiddles caches, per length n, row-major twiddle rows: row k holds
// e^(-2πi·jk/n) for j < n, computed exactly as dftPrefix computes each
// term. A cached table only grows (more rows replace fewer) and is never
// written after it is published.
var twiddles = struct {
	mu    sync.RWMutex
	rows  map[int][]complex128
	bytes int
}{rows: make(map[int][]complex128)}

// twiddleRows returns at least m twiddle rows for length n, built and
// cached on first use, or nil when they would take the cache past
// twiddleCap: dftPrefix then computes each twiddle and allocates no table.
func twiddleRows(n, m int) []complex128 {
	twiddles.mu.RLock()
	rows := twiddles.rows[n]
	twiddles.mu.RUnlock()
	if len(rows) >= m*n {
		return rows
	}
	twiddles.mu.Lock()
	defer twiddles.mu.Unlock()
	old := len(twiddles.rows[n])
	if old >= m*n {
		return twiddles.rows[n]
	}
	if twiddles.bytes+16*(m*n-old) > twiddleCap {
		return nil
	}
	rows = make([]complex128, m*n)
	for k := 0; k < m; k++ {
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			rows[k*n+j] = cmplx.Exp(complex(0, angle))
		}
	}
	twiddles.rows[n] = rows
	twiddles.bytes += 16 * (m*n - old)
	return rows
}

// FeatureDistance returns the Euclidean distance between two feature
// vectors. By Parseval this lower-bounds the true Euclidean distance
// between the underlying sequences (no false dismissals).
func FeatureDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dft: feature vectors differ in length: %d vs %d", len(a), len(b))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// FeatureDist returns the Euclidean distance between two feature vectors
// of pre-validated equal width — the hot-loop form of FeatureDistance for
// columnar stores whose row stride is fixed by construction, so the
// per-comparison length check is hoisted out of the scan entirely. It
// shares FeatureDistance's accumulation order exactly (pruning decisions
// agree bit-for-bit).
func FeatureDist(a, b []float64) float64 { return pointDist(a, b) }

// MainFrequency returns the dominant non-DC frequency bin of vals and its
// magnitude. The paper's §3 argument: under dilation (frequency reduction)
// or contraction the dominant frequency moves, so frequency-domain
// comparison misses sequences that are feature-identical. Only bins up to
// n/2 (the Nyquist limit) are considered.
func MainFrequency(vals []float64) (bin int, magnitude float64) {
	coeffs := Transform(vals)
	n := len(coeffs)
	for k := 1; k <= n/2; k++ {
		if m := cmplx.Abs(coeffs[k]); m > magnitude {
			bin, magnitude = k, m
		}
	}
	return bin, magnitude
}
