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
)

// DFT returns the orthonormal discrete Fourier transform of vals,
// X[k] = (1/√n) Σ_j x[j]·e^(-2πi·jk/n), computed directly in O(n²).
// Kept as the reference implementation; FFT is the fast path.
func DFT(vals []float64) []complex128 { return dftPrefix(vals, len(vals)) }

// dftPrefix returns the first m <= len(vals) coefficients of DFT(vals),
// each computed exactly as the full transform computes it, in O(n·m).
func dftPrefix(vals []float64, m int) []complex128 {
	n := len(vals)
	out := make([]complex128, m)
	if n == 0 {
		return out
	}
	scale := 1 / math.Sqrt(float64(n))
	for k := 0; k < m; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
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
	buf := make([]complex128, n)
	for i, v := range vals {
		buf[i] = complex(v, 0)
	}
	fftInPlace(buf, false)
	scale := complex(1/math.Sqrt(float64(n)), 0)
	for i := range buf {
		buf[i] *= scale
	}
	return buf, nil
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
	fftInPlace(buf, true)
	scale := 1 / math.Sqrt(float64(n))
	out := make([]float64, n)
	for i := range buf {
		out[i] = real(buf[i]) * scale
	}
	return out, nil
}

// fftInPlace is an iterative radix-2 FFT (bit-reversal permutation then
// butterfly passes). inverse selects the conjugate transform.
func fftInPlace(buf []complex128, inverse bool) {
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
			for i := 0; i < half; i++ {
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
// available coefficients; k must be >= 1. A power-of-two length goes
// through the FFT, which yields every coefficient anyway; any other
// length computes only the coefficients kept, not the O(n²) transform.
func Features(vals []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("dft: feature count %d must be >= 1", k)
	}
	var coeffs []complex128
	if n := len(vals); n&(n-1) == 0 {
		coeffs = Transform(vals)
	} else {
		coeffs = dftPrefix(vals, min(k, n))
	}
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
