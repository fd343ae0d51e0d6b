package dft

import (
	"fmt"
	"math/rand"
	"testing"

	"seqrep/internal/seq"
)

func randVals(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	return vals
}

func BenchmarkDFT512(b *testing.B) {
	vals := randVals(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DFT(vals)
	}
}

func BenchmarkFFT512(b *testing.B) {
	vals := randVals(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsequenceMatch(b *testing.B) {
	stored := seq.New(randVals(2048, 5))
	q := stored.Slice(700, 828).Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := SubsequenceMatch("s", stored, q, 4, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 {
			b.Fatal("planted window not found")
		}
	}
}

// BenchmarkSubsequenceIncrementalVsRecompute measures the O(k)-per-shift
// sliding-window DFT against the per-window-recompute baseline it
// replaced (both return identical hits; see sliding_test.go).
func BenchmarkSubsequenceIncrementalVsRecompute(b *testing.B) {
	stored := seq.New(randVals(8192, 5))
	q := stored.Slice(3000, 3128).Clone()
	run := func(b *testing.B, match func(string, seq.Sequence, seq.Sequence, int, float64) ([]WindowMatch, error)) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits, err := match("s", stored, q, 4, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) == 0 {
				b.Fatal("planted window not found")
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, SubsequenceMatch) })
	b.Run("recompute", func(b *testing.B) { run(b, subsequenceMatchRecompute) })
}

// BenchmarkFeatures times the feature vector of the bench/ corpus's three
// lengths with the twiddle cache warm.
func BenchmarkFeatures(b *testing.B) {
	for _, n := range []int{97, 128, 256} {
		vals := randVals(n, 2)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Features(vals, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
