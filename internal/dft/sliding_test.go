package dft

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// subsequenceMatchRecompute is the pre-incremental baseline, a fresh
// O(w·k) transform per window: the oracle the equivalence tests compare
// SubsequenceMatch against and the yardstick of its benchmark.
func subsequenceMatchRecompute(id string, stored, q seq.Sequence, k int, eps float64) ([]WindowMatch, error) {
	w := len(q)
	qv := q.Values()
	qf, err := Features(qv, k)
	if err != nil {
		return nil, err
	}
	var out []WindowMatch
	buf := make([]float64, 0, w)
	for off := 0; off+w <= len(stored); off++ {
		buf = stored.Slice(off, off+w).AppendValues(buf[:0])
		wf, err := Features(buf, k)
		if err != nil {
			return nil, err
		}
		if FeatureDist(qf, wf) > eps {
			continue
		}
		d, err := dist.L2(buf, qv)
		if err != nil {
			return nil, err
		}
		if d <= eps {
			out = append(out, WindowMatch{ID: id, Offset: off, Distance: d})
		}
	}
	return out, nil
}

// TestSubsequenceMatchEquivalence is the incremental path's contract:
// across window lengths (power-of-two and not), coefficient counts
// (including k > w), tolerances and plants, SubsequenceMatch returns
// byte-identical hits to the per-window-recompute baseline.
func TestSubsequenceMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 14; trial++ {
		n := 64 + rng.Intn(500)
		vals := make([]float64, n)
		level := 0.0
		for i := range vals {
			level += rng.NormFloat64()
			vals[i] = level
		}
		stored := seq.New(vals)
		w := 2 + rng.Intn(min(n, 130))
		off := rng.Intn(n - w + 1)
		q := stored.Slice(off, off+w).Clone()
		if trial%3 == 0 { // jitter so near-misses straddle the tolerance
			for i := range q {
				q[i].V += 0.05 * rng.NormFloat64()
			}
		}
		for _, k := range []int{1, 3, 4, w + 5} {
			for _, eps := range []float64{0, 0.3, 2, 25} {
				name := fmt.Sprintf("trial=%d n=%d w=%d k=%d eps=%g", trial, n, w, k, eps)
				got, err := SubsequenceMatch("s", stored, q, k, eps)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := subsequenceMatchRecompute("s", stored, q, k, eps)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental %+v != recompute %+v", name, got, want)
				}
			}
		}
	}
}

// TestSubsequenceMatchValidation pins the error/edge behaviour shared by
// both implementations.
func TestSubsequenceMatchValidation(t *testing.T) {
	s := seq.New([]float64{1, 2, 3, 4})
	if _, err := SubsequenceMatch("s", s, nil, 2, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := SubsequenceMatch("s", s, s, 2, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := SubsequenceMatch("s", s, s, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if hits, err := SubsequenceMatch("s", s.Slice(0, 2), s, 2, 1); err != nil || hits != nil {
		t.Errorf("query longer than stored: hits=%v err=%v", hits, err)
	}
	// Exact self-match at every eps, including 0.
	hits, err := SubsequenceMatch("s", s, s.Slice(1, 3).Clone(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.Offset == 1 && h.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted window not found at eps=0: %+v", hits)
	}
}

// TestSlidingDFTDrift: after thousands of shifts the maintained
// coefficients must stay within the filter slack of an exact transform.
func TestSlidingDFTDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 100 * rng.NormFloat64()
	}
	const w, k = 100, 6
	sdft := newSlidingDFT(vals, w, k)
	worst := 0.0
	for off := 0; off+w < len(vals); off++ {
		sdft.shift()
		exact := newSlidingDFT(vals[off+1:], w, k) // seeds exactly at its offset 0
		for ki := 0; ki < k; ki++ {
			if d := cmplxAbs(sdft.c[ki] - exact.c[ki]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		t.Errorf("coefficient drift %g exceeds the filter slack", worst)
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestSubsequenceMatchAllocs guards the incremental hot loop: total
// allocations for a long search must stay at a small fixed setup cost
// (buffers + tracker) plus the hits themselves — nothing per window.
func TestSubsequenceMatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	stored := seq.New(vals)
	q := stored.Slice(1000, 1128).Clone()
	allocs := testing.AllocsPerRun(10, func() {
		hits, err := SubsequenceMatch("s", stored, q, 4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatal("planted window not found")
		}
	})
	// Setup: qf features, two value buffers, the tracker's three slices,
	// the hit slice. ~4000 windows must add nothing.
	const budget = 24
	if allocs > budget {
		t.Errorf("SubsequenceMatch allocates %.0f per op, budget %d", allocs, budget)
	}
}

// TestSubsequenceMatchNaNSamples: a non-finite sample must not poison the
// incremental coefficients into dismissing clean windows — the answer
// stays identical to the per-window-recompute baseline.
func TestSubsequenceMatchNaNSamples(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 5)
	}
	vals[10] = math.NaN()
	stored := seq.New(vals)
	q := stored.Slice(20, 52).Clone() // NaN-free window
	for _, k := range []int{1, 4} {
		got, err := SubsequenceMatch("s", stored, q, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := subsequenceMatchRecompute("s", stored, q, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: incremental %+v != recompute %+v", k, got, want)
		}
		found := false
		for _, h := range got {
			if h.Offset == 20 && h.Distance == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("k=%d: clean planted window dismissed: %+v", k, got)
		}
	}
}
