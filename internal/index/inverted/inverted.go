// Package inverted implements the inverted-file index of the paper's
// Figure 10: a B-tree over bucketed feature values (R-R interval lengths
// for the cardiology application) pointing to postings — the sets of
// sequence representations containing those values. A query of the form
// "interval = n ± ε" becomes a range scan of the B-tree followed by a walk
// of the matching postings.
//
// The paper notes such an index is reasonable because the indexed quantity
// is physically bounded ("the interval can not exceed a certain integer and
// can not go below some threshold for any living patient"), so there is a
// limited number of bucket values.
package inverted

import (
	"fmt"
	"math"
	"sort"

	"seqrep/internal/index/btree"
)

// Ref is one posting: the sequence that contains the feature value and the
// position (e.g. which inter-peak gap) where it occurs.
type Ref struct {
	ID  string
	Pos int32
}

// postings is a bucket of the postings file: all references filed under
// one bucket key, kept sorted by (ID, Pos).
type postings struct {
	refs []Ref
}

// Index is the inverted file: bucketed float keys → postings.
type Index struct {
	bucketWidth float64
	tree        *btree.Tree[int64, *postings]
	count       int
}

// New creates an index whose keys are bucketed to the given width: values
// v and w share a bucket when floor(v/width) == floor(w/width). Width 1
// with integer-valued features reproduces the paper's integer buckets.
func New(bucketWidth float64) (*Index, error) {
	if bucketWidth <= 0 || math.IsNaN(bucketWidth) || math.IsInf(bucketWidth, 0) {
		return nil, fmt.Errorf("inverted: bucket width must be positive and finite, got %g", bucketWidth)
	}
	tr, err := btree.New[int64, *postings](btree.DefaultOrder)
	if err != nil {
		return nil, err
	}
	return &Index{bucketWidth: bucketWidth, tree: tr}, nil
}

// bucket maps a value to its bucket key, saturating at the int64 range:
// a converted out-of-range float is undefined in Go (MinInt64 on amd64),
// which would collapse or invert the ends of a wide range.
func (ix *Index) bucket(v float64) int64 {
	switch f := math.Floor(v / ix.bucketWidth); {
	case f >= math.MaxInt64: // float64(MaxInt64) rounds up to 2^63
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}

// BucketWidth returns the configured bucket width.
func (ix *Index) BucketWidth() float64 { return ix.bucketWidth }

// Len returns the total number of postings stored.
func (ix *Index) Len() int { return ix.count }

// Buckets returns the number of distinct occupied buckets.
func (ix *Index) Buckets() int { return ix.tree.Len() }

// Add files ref under the bucket of value. Duplicate (value-bucket, ref)
// pairs are ignored. It returns an error for non-finite values.
func (ix *Index) Add(value float64, ref Ref) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("inverted: non-finite value")
	}
	key := ix.bucket(value)
	p, ok := ix.tree.Get(key)
	if !ok {
		p = &postings{}
		ix.tree.Put(key, p)
	}
	i := sort.Search(len(p.refs), func(i int) bool {
		if p.refs[i].ID != ref.ID {
			return p.refs[i].ID > ref.ID
		}
		return p.refs[i].Pos >= ref.Pos
	})
	if i < len(p.refs) && p.refs[i] == ref {
		return nil // duplicate
	}
	p.refs = append(p.refs, Ref{})
	copy(p.refs[i+1:], p.refs[i:])
	p.refs[i] = ref
	ix.count++
	return nil
}

// Query returns all postings whose bucketed value falls within [lo, hi]
// (the paper's "n ± ε" range query: pass lo = n-ε, hi = n+ε). Results are
// deduplicated by reference and ordered by (ID, Pos).
func (ix *Index) Query(lo, hi float64) ([]Ref, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("inverted: NaN query bound")
	}
	if hi < lo {
		return nil, fmt.Errorf("inverted: inverted range [%g,%g]", lo, hi)
	}
	var out []Ref
	ix.tree.Range(ix.bucket(lo), ix.bucket(hi), func(_ int64, p *postings) bool {
		out = append(out, p.refs...)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Pos < out[j].Pos
	})
	return dedupe(out), nil
}

// Covers reports whether Query(lo, hi) reads the bucket value falls in:
// whether a posting of value would answer that query. It reads only the
// bucket width, which never changes, so it needs no lock the index's
// writers take.
func (ix *Index) Covers(lo, hi, value float64) bool {
	b := ix.bucket(value)
	return ix.bucket(lo) <= b && b <= ix.bucket(hi)
}

// QueryIDs is Query reduced to the distinct sequence IDs, which is what
// the physician-facing interval query of §5.2 returns ("the set of
// pointers to the ECG representations which contain those interval
// lengths").
func (ix *Index) QueryIDs(lo, hi float64) ([]string, error) {
	refs, err := ix.Query(lo, hi)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, r := range refs {
		if len(ids) == 0 || ids[len(ids)-1] != r.ID {
			ids = append(ids, r.ID)
		}
	}
	return ids, nil
}

// RemoveID drops every posting belonging to the sequence. It returns the
// number of postings removed. The scan is linear in the number of buckets,
// acceptable because re-ingestion is rare compared to queries.
func (ix *Index) RemoveID(id string) int {
	removed := 0
	var emptied []int64
	ix.tree.Ascend(func(key int64, p *postings) bool {
		kept := p.refs[:0]
		for _, r := range p.refs {
			if r.ID == id {
				removed++
				continue
			}
			kept = append(kept, r)
		}
		p.refs = kept
		if len(p.refs) == 0 {
			emptied = append(emptied, key)
		}
		return true
	})
	for _, key := range emptied {
		ix.tree.Delete(key)
	}
	ix.count -= removed
	return removed
}

func dedupe(refs []Ref) []Ref {
	if len(refs) < 2 {
		return refs
	}
	out := refs[:1]
	for _, r := range refs[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}
