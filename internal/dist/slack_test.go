package dist

import (
	"math"
	"testing"
)

// TestQuerySlack pins the rounding contract's shape: edges bracket the
// bound, lower edges never go below 0 and floor NaN to 0, the absolute
// term grows with the query's norm and length, and a norm past the float
// range prunes nothing.
func TestQuerySlack(t *testing.T) {
	small, large := QuerySlack(64, 1), QuerySlack(64, 8e9)
	for _, x := range []float64{0, 1e-12, 1e-6, 1, 1e9} {
		for _, s := range []Slack{small, large} {
			if lo, hi := s.Lo(x), s.Hi(x); lo > x || hi < x || lo < 0 {
				t.Errorf("%+v: edges [%v, %v] around %v", s, lo, hi, x)
			}
		}
	}
	if w, l := small.Hi(0), large.Hi(0); !(l > w) || w < 1e-12 {
		t.Errorf("absolute term %v at norm 1, %v at norm 8e9: want it to grow from 1e-12", w, l)
	}
	if a, b := QuerySlack(64, 1e6).Hi(0), QuerySlack(128, 1e6).Hi(0); !(b > a) {
		t.Errorf("absolute term %v at n=64, %v at n=128: want it to grow with n", a, b)
	}
	// A bound of 1e-6 at level 1e9 sits below the rounding error of its
	// own inputs, so the lower edge must give it up.
	if lo := large.Lo(1e-6); lo != 0 {
		t.Errorf("lower edge %v for a bound under the rounding error", lo)
	}
	for _, x := range []float64{math.NaN(), -1, math.Inf(-1)} {
		if lo := small.Lo(x); lo != 0 {
			t.Errorf("Lo(%v) = %v, want 0", x, lo)
		}
	}
	inf := QuerySlack(64, math.Inf(1))
	if lo, hi := inf.Lo(5), inf.Hi(5); lo != 0 || !math.IsInf(hi, 1) {
		t.Errorf("infinite norm: edges [%v, %v], want [0, +Inf]", lo, hi)
	}
	if n := Norm([]float64{3, 4}); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
}
