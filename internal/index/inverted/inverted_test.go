package inverted

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func mustIndex(t *testing.T, width float64) *Index {
	t.Helper()
	ix, err := New(width)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(w); err == nil {
			t.Errorf("width %g accepted", w)
		}
	}
}

func TestAddQueryRoundTrip(t *testing.T) {
	ix := mustIndex(t, 1)
	// The paper's example: RR intervals of the two ECGs.
	for i, rr := range []float64{145, 145, 145} {
		if err := ix.Add(rr, Ref{ID: "ecg1", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, rr := range []float64{136, 133, 137} {
		if err := ix.Add(rr, Ref{ID: "ecg2", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 6 {
		t.Errorf("Len = %d", ix.Len())
	}

	// The paper's query: interval 135 ± 2 finds only ecg2.
	ids, err := ix.QueryIDs(133, 137)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "ecg2" {
		t.Errorf("QueryIDs(133,137) = %v, want [ecg2]", ids)
	}

	// Wide range finds both, each once.
	ids, err = ix.QueryIDs(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "ecg1" || ids[1] != "ecg2" {
		t.Errorf("QueryIDs(100,200) = %v", ids)
	}

	// Empty range.
	ids, err = ix.QueryIDs(300, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("empty range returned %v", ids)
	}
}

func TestQueryRefsSortedAndDeduped(t *testing.T) {
	ix := mustIndex(t, 1)
	refs := []Ref{{"b", 2}, {"a", 1}, {"b", 1}, {"a", 0}}
	for _, r := range refs {
		if err := ix.Add(50, r); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate add is a no-op.
	if err := ix.Add(50, Ref{"a", 1}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 4 {
		t.Errorf("Len = %d after duplicate", ix.Len())
	}
	got, err := ix.Query(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{{"a", 0}, {"a", 1}, {"b", 1}, {"b", 2}}
	if len(got) != len(want) {
		t.Fatalf("Query = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Query[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddValidation(t *testing.T) {
	ix := mustIndex(t, 1)
	if err := ix.Add(math.NaN(), Ref{"x", 0}); err == nil {
		t.Error("NaN accepted")
	}
	if err := ix.Add(math.Inf(-1), Ref{"x", 0}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	ix := mustIndex(t, 1)
	if _, err := ix.Query(5, 4); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := ix.Query(math.NaN(), 4); err == nil {
		t.Error("NaN bound accepted")
	}
}

func TestBucketing(t *testing.T) {
	ix := mustIndex(t, 10)
	if err := ix.Add(14, Ref{"a", 0}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(19.9, Ref{"b", 0}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(20, Ref{"c", 0}); err != nil {
		t.Fatal(err)
	}
	if ix.Buckets() != 2 {
		t.Errorf("Buckets = %d, want 2", ix.Buckets())
	}
	// Querying 10..19 hits the first bucket only.
	ids, err := ix.QueryIDs(10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("bucket query = %v", ids)
	}
	if ix.BucketWidth() != 10 {
		t.Error("BucketWidth")
	}
	// Negative values bucket consistently (floor semantics).
	if err := ix.Add(-5, Ref{"neg", 0}); err != nil {
		t.Fatal(err)
	}
	ids, err = ix.QueryIDs(-10, -1)
	if err != nil || len(ids) != 1 || ids[0] != "neg" {
		t.Errorf("negative bucket query = %v, %v", ids, err)
	}
}

func TestRemoveID(t *testing.T) {
	ix := mustIndex(t, 1)
	for i := 0; i < 5; i++ {
		if err := ix.Add(float64(100+i), Ref{ID: "keep", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(float64(100+i), Ref{ID: "drop", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.RemoveID("drop"); got != 5 {
		t.Errorf("RemoveID removed %d", got)
	}
	if got := ix.RemoveID("drop"); got != 0 {
		t.Errorf("second RemoveID removed %d", got)
	}
	if ix.Len() != 5 {
		t.Errorf("Len = %d", ix.Len())
	}
	ids, err := ix.QueryIDs(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "keep" {
		t.Errorf("after removal: %v", ids)
	}
}

func TestRemoveIDDropsEmptyBuckets(t *testing.T) {
	ix := mustIndex(t, 1)
	if err := ix.Add(42, Ref{"only", 0}); err != nil {
		t.Fatal(err)
	}
	ix.RemoveID("only")
	if ix.Buckets() != 0 {
		t.Errorf("empty bucket retained: %d", ix.Buckets())
	}
}

// Differential test against a brute-force reference.
func TestQueryAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix := mustIndex(t, 2.5)
	type entry struct {
		v float64
		r Ref
	}
	var all []entry
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 300
		r := Ref{ID: string(rune('a' + rng.Intn(20))), Pos: int32(rng.Intn(10))}
		if err := ix.Add(v, r); err != nil {
			t.Fatal(err)
		}
		all = append(all, entry{v, r})
	}
	bucket := func(v float64) int64 { return int64(math.Floor(v / 2.5)) }
	for trial := 0; trial < 40; trial++ {
		lo := rng.Float64() * 300
		hi := lo + rng.Float64()*50
		got, err := ix.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Ref]bool{}
		var want []Ref
		for _, e := range all {
			if bucket(e.v) >= bucket(lo) && bucket(e.v) <= bucket(hi) && !seen[e.r] {
				seen[e.r] = true
				want = append(want, e.r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].ID != want[j].ID {
				return want[i].ID < want[j].ID
			}
			return want[i].Pos < want[j].Pos
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d refs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d ref %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// Covers says exactly which postings Query returns: a value's posting
// answers [lo, hi] if and only if Covers(lo, hi, value).
func TestCoversAgreesWithQuery(t *testing.T) {
	ix := mustIndex(t, 2.5)
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 400)
	for i := range values {
		values[i] = rng.Float64()*100 - 50
		if err := ix.Add(values[i], Ref{ID: "s", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64()*100 - 50
		hi := lo + rng.Float64()*10
		refs, err := ix.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int32]bool{}
		for _, r := range refs {
			got[r.Pos] = true
		}
		for i, v := range values {
			if got[int32(i)] != ix.Covers(lo, hi, v) {
				t.Fatalf("[%g, %g]: Query returns %g: %v, Covers says %v", lo, hi, v, got[int32(i)], !got[int32(i)])
			}
		}
	}
}

// Bucket keys saturate at the int64 range: a range whose ends divide past
// it still covers what lies inside, instead of collapsing or inverting.
func TestHugeBoundsSaturate(t *testing.T) {
	ix := mustIndex(t, 1)
	values := []float64{-1e300, -5, 0, 135, 1e19, 1e300}
	for i, v := range values {
		if err := ix.Add(v, Ref{ID: "s", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := ix.Query(-1e300, 1e300)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(values) {
		t.Errorf("Query(-1e300, 1e300) = %v, want all %d postings", refs, len(values))
	}
	for _, r := range [][2]float64{{1e300, 1e300}, {0, 2e300}, {-1e19, 1e19}, {20 - 1e19, 20 + 1e19}} {
		lo, hi := r[0], r[1]
		refs, err := ix.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int32]bool{}
		for _, ref := range refs {
			got[ref.Pos] = true
		}
		for i, v := range values {
			if in := lo <= v && v <= hi; in && !got[int32(i)] {
				t.Errorf("Query(%g, %g) misses %g", lo, hi, v)
			}
			if got[int32(i)] != ix.Covers(lo, hi, v) {
				t.Errorf("Query(%g, %g) returns %g: %v, Covers disagrees", lo, hi, v, got[int32(i)])
			}
		}
	}
}
