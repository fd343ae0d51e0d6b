package inverted

import (
	"math"
	"math/rand"
	"slices"
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

// queryIDs is Query reduced to its distinct ids, in order.
func queryIDs(t *testing.T, ix *Index, lo, hi float64) []string {
	t.Helper()
	refs, err := ix.Query(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range refs {
		if len(ids) == 0 || ids[len(ids)-1] != r.ID {
			ids = append(ids, r.ID)
		}
	}
	return ids
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
	if ids := queryIDs(t, ix, 133, 137); len(ids) != 1 || ids[0] != "ecg2" {
		t.Errorf("Query(133,137) ids = %v, want [ecg2]", ids)
	}

	// Wide range finds both, each once.
	if ids := queryIDs(t, ix, 100, 200); len(ids) != 2 || ids[0] != "ecg1" || ids[1] != "ecg2" {
		t.Errorf("Query(100,200) ids = %v", ids)
	}

	// Empty range.
	if ids := queryIDs(t, ix, 300, 400); len(ids) != 0 {
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
	if ids := queryIDs(t, ix, 10, 19); len(ids) != 2 {
		t.Errorf("bucket query = %v", ids)
	}
	// Negative values bucket consistently (floor semantics).
	if err := ix.Add(-5, Ref{"neg", 0}); err != nil {
		t.Fatal(err)
	}
	if ids := queryIDs(t, ix, -10, -1); len(ids) != 1 || ids[0] != "neg" {
		t.Errorf("negative bucket query = %v", ids)
	}
}

func TestRemoveID(t *testing.T) {
	ix := mustIndex(t, 1)
	var values []float64
	for i := 0; i < 5; i++ {
		v := float64(100 + i)
		values = append(values, v)
		if err := ix.Add(v, Ref{ID: "keep", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(v, Ref{ID: "drop", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.RemoveID("drop", values); got != 5 {
		t.Errorf("RemoveID removed %d", got)
	}
	if got := ix.RemoveID("drop", values); got != 0 {
		t.Errorf("second RemoveID removed %d", got)
	}
	if ix.Len() != 5 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ids := queryIDs(t, ix, 0, 1000); len(ids) != 1 || ids[0] != "keep" {
		t.Errorf("after removal: %v", ids)
	}

	// Re-added under other values, the id's new postings are untouched by
	// a removal keyed on its old ones and dropped by one keyed on its new.
	readded := []float64{200, 201.5, 201.7, math.NaN()}
	for i, v := range readded[:3] {
		if err := ix.Add(v, Ref{ID: "drop", Pos: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ids := queryIDs(t, ix, 200, 210); len(ids) != 1 || ids[0] != "drop" {
		t.Errorf("re-added: %v", ids)
	}
	if got := ix.RemoveID("drop", values); got != 0 || ix.Len() != 8 {
		t.Errorf("RemoveID on the old values removed %d, Len = %d", got, ix.Len())
	}
	if got := ix.RemoveID("drop", readded); got != 3 || ix.Len() != 5 || ix.Buckets() != 5 {
		t.Errorf("RemoveID on the new values removed %d, Len = %d, Buckets = %d", got, ix.Len(), ix.Buckets())
	}
	if ids := queryIDs(t, ix, 0, 1000); len(ids) != 1 || ids[0] != "keep" {
		t.Errorf("after the second removal: %v", ids)
	}
}

func TestRemoveIDDropsEmptyBuckets(t *testing.T) {
	ix := mustIndex(t, 1)
	if err := ix.Add(42, Ref{"only", 0}); err != nil {
		t.Fatal(err)
	}
	ix.RemoveID("only", []float64{42.5})
	if ix.Buckets() != 0 {
		t.Errorf("empty bucket retained: %d", ix.Buckets())
	}
}

// Differential test against a brute-force model under a seeded schedule
// of adds, duplicate adds, removals keyed on some or all of an id's values
// and re-adds: after each step Query,
// Len and Buckets agree with the model, and the buckets stay sorted by
// key with none empty.
func TestQueryAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const width = 2.5
	ix := mustIndex(t, width)
	type entry struct {
		v float64
		r Ref
	}
	var all []entry // the model: one entry per live (bucket, ref) posting
	key := func(v float64) int64 { return int64(math.Floor(v / width)) }
	posted := func(e entry) bool { // whether an earlier entry files the same posting
		for _, f := range all {
			if f.r == e.r && key(f.v) == key(e.v) {
				return true
			}
		}
		return false
	}
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(10); {
		case op < 8 || len(all) == 0: // add, re-add a removed id, or add a live posting again
			e := entry{rng.Float64() * 300, Ref{ID: string(rune('a' + rng.Intn(20))), Pos: int32(rng.Intn(10))}}
			if op >= 6 && len(all) > 0 {
				e = all[rng.Intn(len(all))]
				e.v = math.Nextafter(e.v, math.Floor(e.v/width)*width) // the same bucket
			}
			if err := ix.Add(e.v, e.r); err != nil {
				t.Fatal(err)
			}
			if !posted(e) {
				all = append(all, e)
			}
		default: // remove an id keyed on the values of some or all of its postings
			id := all[rng.Intn(len(all))].r.ID
			var values []float64
			for _, e := range all {
				if e.r.ID == id {
					values = append(values, e.v)
				}
			}
			values = values[:1+rng.Intn(len(values))]
			keyed := map[int64]bool{}
			for _, v := range values {
				keyed[key(v)] = true
			}
			n := len(all)
			all = slices.DeleteFunc(all, func(e entry) bool { return e.r.ID == id && keyed[key(e.v)] })
			if got := ix.RemoveID(id, values); got != n-len(all) {
				t.Fatalf("step %d: RemoveID(%q, %v) = %d, want %d", step, id, values, got, n-len(all))
			}
		}
		keys := map[int64]bool{}
		for _, e := range all {
			keys[key(e.v)] = true
		}
		if ix.Len() != len(all) || ix.Buckets() != len(keys) {
			t.Fatalf("step %d: Len, Buckets = %d, %d, want %d, %d", step, ix.Len(), ix.Buckets(), len(all), len(keys))
		}
		for i, b := range ix.buckets {
			if len(b.refs) == 0 || i > 0 && ix.buckets[i-1].key >= b.key {
				t.Fatalf("step %d: bucket %d (key %d, %d refs) empty or out of order", step, i, b.key, len(b.refs))
			}
		}
		lo := rng.Float64()*320 - 10
		hi := lo + rng.Float64()*50
		got, err := ix.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var want []Ref
		for _, e := range all {
			if key(e.v) >= key(lo) && key(e.v) <= key(hi) {
				want = append(want, e.r)
			}
		}
		slices.SortFunc(want, compareRefs)
		want = slices.Compact(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Query(%g, %g) = %v, want %v", step, lo, hi, got, want)
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
