// Package inverted implements the inverted-file index of the paper's
// Figure 10: bucketed feature values (R-R interval lengths for the
// cardiology application) pointing to postings — the sets of sequence
// representations containing those values. A query of the form
// "interval = n ± ε" becomes a range of buckets followed by a walk of
// their postings.
//
// The paper puts a B-tree over the buckets because its postings file lives
// on disk pages. Here the file is in memory and rebuilt at every boot, so
// the buckets are one slice sorted by key: a lookup is one binary search
// and a range query a contiguous walk. That suffices for the paper's own
// reason the index is reasonable at all: the indexed quantity is physically
// bounded ("the interval can not exceed a certain integer and can not go
// below some threshold for any living patient"), so there are few bucket
// values.
//
// The trade is that a posting in a new bucket shifts the buckets above it,
// O(buckets) — the same trade the database's sorted id list makes for each
// record. At width 1, where about 145 buckets hold 11 600 intervals, those
// adds take about 3 ms, as they did under the B-tree this slice replaced.
// At width 1e-6, where every interval gets a bucket of its own, they take
// about 33 ms against the B-tree's 7 ms (2-core Xeon, Go 1.24).
package inverted

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Ref is one posting: the sequence that contains the feature value and the
// position (e.g. which inter-peak gap) where it occurs.
type Ref struct {
	ID  string
	Pos int32
}

// bucket is one entry of the postings file: all references filed under
// one bucket key, kept sorted by (ID, Pos).
type bucket struct {
	key  int64
	refs []Ref
}

// Index is the inverted file: bucketed float keys → postings. Its buckets
// are sorted by key, and none is empty.
type Index struct {
	width   float64
	buckets []bucket
	count   int
}

// New creates an index whose keys are bucketed to the given width: values
// v and w share a bucket when floor(v/width) == floor(w/width). Width 1
// with integer-valued features reproduces the paper's integer buckets.
func New(bucketWidth float64) (*Index, error) {
	if bucketWidth <= 0 || math.IsNaN(bucketWidth) || math.IsInf(bucketWidth, 0) {
		return nil, fmt.Errorf("inverted: bucket width must be positive and finite, got %g", bucketWidth)
	}
	return &Index{width: bucketWidth}, nil
}

// key maps a value to its bucket key, saturating at the int64 range: a
// converted out-of-range float is undefined in Go (MinInt64 on amd64),
// which would collapse or invert the ends of a wide range.
func (ix *Index) key(v float64) int64 {
	switch f := math.Floor(v / ix.width); {
	case f >= math.MaxInt64: // float64(MaxInt64) rounds up to 2^63
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}

// find returns the index of the first bucket whose key is at least key,
// and whether its key is key.
func (ix *Index) find(key int64) (int, bool) {
	return slices.BinarySearchFunc(ix.buckets, key, func(b bucket, k int64) int { return cmp.Compare(b.key, k) })
}

func compareRefs(a, b Ref) int {
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// Len returns the total number of postings stored.
func (ix *Index) Len() int { return ix.count }

// Buckets returns the number of distinct occupied buckets.
func (ix *Index) Buckets() int { return len(ix.buckets) }

// Add files ref under the bucket of value. Duplicate (value-bucket, ref)
// pairs are ignored. It returns an error for non-finite values.
func (ix *Index) Add(value float64, ref Ref) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("inverted: non-finite value")
	}
	key := ix.key(value)
	i, ok := ix.find(key)
	if !ok {
		ix.buckets = slices.Insert(ix.buckets, i, bucket{key: key})
	}
	b := &ix.buckets[i]
	j, dup := slices.BinarySearchFunc(b.refs, ref, compareRefs)
	if dup {
		return nil
	}
	b.refs = slices.Insert(b.refs, j, ref)
	ix.count++
	return nil
}

// Query returns all postings whose bucketed value falls within [lo, hi]
// (the paper's "n ± ε" range query: pass lo = n-ε, hi = n+ε). Results are
// deduplicated by reference and ordered by (ID, Pos). The slice is the
// caller's own: a later Add never writes into it.
func (ix *Index) Query(lo, hi float64) ([]Ref, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("inverted: NaN query bound")
	}
	if hi < lo {
		return nil, fmt.Errorf("inverted: inverted range [%g,%g]", lo, hi)
	}
	i, _ := ix.find(ix.key(lo))
	j, found := ix.find(ix.key(hi))
	if found {
		j++
	}
	n := 0
	for _, b := range ix.buckets[i:j] {
		n += len(b.refs)
	}
	out := make([]Ref, 0, n)
	for _, b := range ix.buckets[i:j] {
		out = append(out, b.refs...)
	}
	slices.SortFunc(out, compareRefs)
	return slices.Compact(out), nil
}

// Covers reports whether Query(lo, hi) reads the bucket value falls in:
// whether a posting of value would answer that query. It reads only the
// bucket width, which never changes, so it needs no lock the index's
// writers take.
func (ix *Index) Covers(lo, hi, value float64) bool {
	k := ix.key(value)
	return ix.key(lo) <= k && k <= ix.key(hi)
}

// RemoveID drops the sequence's postings filed under values — the values
// it was added with — and every bucket that leaves empty. It visits only
// the buckets those values key to, each found by binary search, where the
// sequence's postings are one run of the (ID, Pos) order; values Add
// refuses (non-finite) are skipped. It returns the number of postings
// removed.
func (ix *Index) RemoveID(id string, values []float64) int {
	removed := 0
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		i, ok := ix.find(ix.key(v))
		if !ok {
			continue
		}
		b := &ix.buckets[i]
		lo, _ := slices.BinarySearchFunc(b.refs, id, func(r Ref, id string) int { return cmp.Compare(r.ID, id) })
		hi := lo
		for hi < len(b.refs) && b.refs[hi].ID == id {
			hi++
		}
		b.refs = slices.Delete(b.refs, lo, hi)
		removed += hi - lo
		if len(b.refs) == 0 {
			ix.buckets = slices.Delete(ix.buckets, i, i+1)
		}
	}
	ix.count -= removed
	return removed
}
