package dist

import (
	"fmt"
	"sync"

	"seqrep/internal/seq"
)

// This file keeps two entry points over seq.Sequence for the benchmark
// harness under bench/, which calls them by these names. They copy the
// operands' values into pooled scratch and run the one kernel layer, so a
// call allocates nothing in steady state. A [benchmark] change that ports
// those calls to Within deletes this file.

// seqValues is the pooled scratch the two wrappers copy values into.
var seqValues = sync.Pool{New: func() any { return new([]float64) }}

// DistanceWithin is Within over the values of two sequences. Only bench/
// calls it; a [benchmark] change that ports that call deletes it.
func DistanceWithin(m Metric, a, b seq.Sequence, eps float64) (float64, bool, error) {
	buf := seqValues.Get().(*[]float64)
	defer seqValues.Put(buf)
	*buf = b.AppendValues(a.AppendValues((*buf)[:0]))
	return Within(m, (*buf)[:len(a)], (*buf)[len(a):], eps)
}

// BandDistance is the ±eps band check over the values of two sequences:
// (LInf(q,s), true) when s lies within the band around q, and the first
// violating sample's deviation and false otherwise. A negative eps is an
// error. Only bench/ calls it; a [benchmark] change that ports that call
// deletes it.
func BandDistance(q, s seq.Sequence, eps float64) (float64, bool, error) {
	if eps < 0 {
		return 0, false, fmt.Errorf("dist: negative tolerance %g", eps)
	}
	return DistanceWithin(Chebyshev, q, s, eps)
}
