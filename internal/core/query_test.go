package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seqrep/internal/dist"
	"seqrep/internal/pattern"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// The paper's central claim (Figures 3-5 + §4.4): a value-based ε query
// finds only pointwise-close sequences, while the pattern query finds the
// whole transformed two-peak family.
func TestGoalpostValueVsPattern(t *testing.T) {
	db := feverDB(t)
	exemplar, _ := synth.Fever(synth.FeverOpts{Samples: 97})

	// Value-based query: only the exemplar itself (distance 0) and the
	// bounded-noise variant (small pointwise deviations) should match.
	valueMatches, err := db.ValueQuery(exemplar, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range valueMatches {
		got[m.ID] = true
	}
	if !got["exemplar"] {
		t.Error("value query missed the exemplar itself")
	}
	if !got["bounded-noise"] {
		t.Error("value query missed the bounded-noise variant")
	}
	for _, fails := range []string{"contraction", "dilation", "time-shift", "amplitude-shift", "amplitude-scale"} {
		if got[fails] {
			t.Errorf("value query should NOT match %q (the paper's Figure 5 point)", fails)
		}
	}

	// Pattern query: the whole two-peak family matches; three-peaks and
	// flat do not.
	ids, err := db.MatchPattern(pattern.TwoPeak())
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, id := range ids {
		matched[id] = true
	}
	for _, want := range []string{"exemplar", "contraction", "dilation", "time-shift", "amplitude-shift", "amplitude-scale", "bounded-noise"} {
		if !matched[want] {
			rec, _ := db.Record(want)
			t.Errorf("pattern query missed %q (symbols %q)", want, rec.Profile.Symbols)
		}
	}
	if matched["three-peaks"] {
		t.Error("pattern query matched the three-peak sequence")
	}
	if matched["flat"] {
		t.Error("pattern query matched the flat sequence")
	}
}

func TestValueQueryExactFlag(t *testing.T) {
	db := feverDB(t)
	// A stored record's own comparison form is an exact match of itself.
	exemplar, err := db.Reconstruct("exemplar")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := db.ValueQuery(exemplar, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != "exemplar" || !matches[0].Exact {
		t.Errorf("first match should be the exact exemplar: %+v", matches)
	}
	for _, m := range matches[1:] {
		if m.Exact {
			t.Errorf("%q claimed exact", m.ID)
		}
		if m.Key != "value" || m.Dev <= 0 {
			t.Errorf("%q deviation %s=%g", m.ID, m.Key, m.Dev)
		}
	}
}

func TestValueQueryValidation(t *testing.T) {
	db := feverDB(t)
	if _, err := db.ValueQuery(nil, 1); err == nil {
		t.Error("empty exemplar accepted")
	}
	fever, _ := synth.Fever(synth.FeverOpts{})
	if _, err := db.ValueQuery(fever, -1); err == nil {
		t.Error("negative eps accepted")
	}
	// Length-mismatched sequences are skipped silently.
	short, _ := synth.Fever(synth.FeverOpts{Samples: 49})
	matches, err := db.ValueQuery(short, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("length-mismatched query matched %v", matches)
	}
}

func TestMatchPatternBadPattern(t *testing.T) {
	db := feverDB(t)
	if _, err := db.MatchPattern("("); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := db.SearchPattern("("); err == nil {
		t.Error("bad pattern accepted by search")
	}
}

func TestSearchPattern(t *testing.T) {
	db := feverDB(t)
	hits, err := db.SearchPattern(pattern.PeakUnit)
	if err != nil {
		t.Fatal(err)
	}
	// Every two-peak sequence yields two peak-unit hits; three-peaks
	// yields three.
	counts := map[string]int{}
	for _, h := range hits {
		counts[h.ID]++
		if h.SegHi <= h.SegLo {
			t.Errorf("empty hit %+v", h)
		}
		if h.TimeHi <= h.TimeLo {
			t.Errorf("hit with empty time span %+v", h)
		}
	}
	if counts["exemplar"] != 2 {
		t.Errorf("exemplar peak-unit hits = %d", counts["exemplar"])
	}
	if counts["three-peaks"] != 3 {
		t.Errorf("three-peaks hits = %d", counts["three-peaks"])
	}
	if counts["flat"] != 0 {
		t.Errorf("flat hits = %d", counts["flat"])
	}
	// Hits are ordered by (id, segment), every span distinct.
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.ID > b.ID || a.ID == b.ID && a.SegLo >= b.SegLo {
			t.Fatalf("hits out of (id, segment) order: %+v before %+v", a, b)
		}
	}
	// Hit time spans should bracket the ground-truth peaks at 8h/16h.
	var spans [][2]float64
	for _, h := range hits {
		if h.ID == "exemplar" {
			spans = append(spans, [2]float64{h.TimeLo, h.TimeHi})
		}
	}
	for i, peakT := range []float64{8, 16} {
		if peakT < spans[i][0] || peakT > spans[i][1] {
			t.Errorf("peak at %gh outside hit span %v", peakT, spans[i])
		}
	}
}

func TestPeakCount(t *testing.T) {
	db := feverDB(t)
	exact, err := db.PeakCount(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 7 { // exemplar + 6 variants
		t.Errorf("exact two-peak matches = %d: %+v", len(exact), exact)
	}
	for _, m := range exact {
		if !m.Exact || m.Key != "peaks" || m.Dev != 0 {
			t.Errorf("match %+v not exact", m)
		}
	}
	// Tolerance 1 picks up the three-peak sequence as approximate.
	loose, err := db.PeakCount(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	foundThree := false
	for _, m := range loose {
		if m.ID == "three-peaks" {
			foundThree = true
			if m.Exact || m.Key != "peaks" || m.Dev != 1 {
				t.Errorf("three-peaks match %+v", m)
			}
		}
	}
	if !foundThree {
		t.Error("tolerance 1 missed three-peaks")
	}
	// Exact matches sort before approximate ones.
	for i := 1; i < len(loose); i++ {
		if !loose[i-1].Exact && loose[i].Exact {
			t.Error("approximate sorted before exact")
		}
	}
	if _, err := db.PeakCount(-1, 0); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := db.PeakCount(2, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// shapeOf builds a piecewise-linear sequence whose symbol string is
// symbols (runs of one letter merge into one segment): four samples of
// slope 2.5 per U, 0 per F, -2.5 per D.
func shapeOf(symbols string) seq.Sequence {
	v := []float64{0}
	for _, c := range symbols {
		d := map[rune]float64{'U': 2.5, 'F': 0, 'D': -2.5}[c]
		for j := 0; j < 4; j++ {
			v = append(v, v[len(v)-1]+d)
		}
	}
	return seq.New(v)
}

// The feature queries answer from the symbol catalogue: one group per
// distinct symbol string, holding its stored peak count, and each id's
// group kept beside it in the sorted id column. MatchPattern,
// SearchPattern and PeakCount must return exactly what a brute force over
// every live record's own profile returns — ids, order, deviations and
// spans — while ingests, removals and shorter re-ingests empty groups,
// recycle their ordinals and form groups again; and every catalogue row
// must agree with its members.
func TestPeakCountMatchesProfiles(t *testing.T) {
	shapes := []string{"F", "FUF", "UFD", "FUDF", "UDUD", "UFDFUD", "DUDUD", "UDUDUD", "FUDUDUDF", "UDUDUDUD", "UDUDUDUDUD", "UDUDUDUDUDUD"}
	patterns := []string{pattern.TwoPeak(), pattern.AtLeastPeaks(2), pattern.PeakUnit, "F", "[FD]*", "U.*", "(UD)+", "D"}
	db := mustDB(t, Config{})
	rng := rand.New(rand.NewSource(27))
	live := map[string]bool{}
	seenGroups, emptied, reformed := map[string]bool{}, map[string]bool{}, 0
	freed, recycled := map[int32]bool{}, 0
	for round := 0; round < 12; round++ {
		for i := 0; i < 40; i++ {
			id := fmt.Sprintf("s%03d", rng.Intn(60))
			if !live[id] {
				mustIngest(t, db, id, shapeOf(shapes[rng.Intn(len(shapes))]).ShiftValue(rng.Float64()))
				live[id] = true
				continue
			}
			rec, _ := db.Record(id)
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			// Half the removals re-ingest the id at once with a shorter
			// symbol string.
			var shorter []string
			for _, sh := range shapes {
				if len(sh) < len(rec.Profile.Symbols) {
					shorter = append(shorter, sh)
				}
			}
			if len(shorter) > 0 && rng.Intn(2) == 0 {
				mustIngest(t, db, id, shapeOf(shorter[rng.Intn(len(shorter))]).ShiftValue(rng.Float64()))
				live[id] = true
			}
		}

		c := &db.syms
		for syms := range seenGroups {
			if _, ok := c.ordinal[syms]; !ok {
				emptied[syms] = true
			}
		}
		if !slices.Equal(db.ids, db.IDs()) || len(db.idGroup) != len(db.ids) || len(db.ids) != len(live) {
			t.Fatalf("round %d: %d ids, %d group ordinals, %d live", round, len(db.ids), len(db.idGroup), len(live))
		}
		members := make([]int32, len(c.members))
		for i, id := range db.ids {
			g := db.idGroup[i]
			members[g]++
			rec, ok := db.Record(id)
			if !ok || !live[id] {
				t.Fatalf("round %d: catalogue lists %q, which is not live", round, id)
			}
			if rec.Profile.Symbols != c.symbols[g] || len(rec.Profile.Peaks) != int(c.peaks[g]) {
				t.Fatalf("group %d (%q, %d peaks) holds %q: %q, %d peaks", g, c.symbols[g], c.peaks[g], id, rec.Profile.Symbols, len(rec.Profile.Peaks))
			}
		}
		if !slices.Equal(members, c.members) {
			t.Fatalf("round %d: member counts %v, id column says %v", round, c.members, members)
		}
		for g := range c.members {
			g := int32(g)
			free := slices.Contains(c.free, g)
			if free != (c.members[g] == 0) {
				t.Fatalf("group %d: %d members, on the free list: %v", g, c.members[g], free)
			}
			if free {
				if c.symbols[g] != "" || c.peaks[g] != 0 {
					t.Fatalf("free group %d keeps %q, %d peaks", g, c.symbols[g], c.peaks[g])
				}
				freed[g] = true
				continue
			}
			if freed[g] {
				delete(freed, g)
				recycled++
			}
			if o, ok := c.ordinal[c.symbols[g]]; !ok || o != g {
				t.Fatalf("group %d (%q) is found at ordinal %d, %v", g, c.symbols[g], o, ok)
			}
			if emptied[c.symbols[g]] {
				delete(emptied, c.symbols[g])
				reformed++
			}
			seenGroups[c.symbols[g]] = true
		}
		if c.groups() != len(c.members)-len(c.free) {
			t.Fatalf("round %d: %d groups by string, %d ordinals, %d free", round, c.groups(), len(c.members), len(c.free))
		}

		for k := 0; k <= 6; k++ {
			for _, tol := range []int{0, 1, 2, 3, 1 << 40} {
				got, err := db.PeakCount(k, tol)
				if err != nil {
					t.Fatal(err)
				}
				var want []Match
				for _, id := range db.IDs() {
					rec, _ := db.Record(id)
					if dev := math.Abs(float64(len(rec.Profile.Peaks) - k)); dev <= float64(tol) {
						want = append(want, Match{ID: id, Exact: dev == 0, Key: "peaks", Dev: dev})
					}
				}
				SortMatches(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, PeakCount(%d, %d):\n got %v\nwant %v", round, k, tol, got, want)
				}
			}
		}
		for _, src := range patterns {
			p := pattern.MustCompile(src)
			var wantIDs []string
			var wantHits []PatternHit
			for _, id := range db.IDs() {
				rec, _ := db.Record(id)
				if p.Match(rec.Profile.Symbols) {
					wantIDs = append(wantIDs, id)
				}
				fs, err := db.materialize(rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, span := range p.FindAll(rec.Profile.Symbols) {
					wantHits = append(wantHits, PatternHit{ID: id, SegLo: span[0], SegHi: span[1],
						TimeLo: fs.Segments[span[0]].StartT, TimeHi: fs.Segments[span[1]-1].EndT})
				}
			}
			gotIDs, err := db.MatchPattern(src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("round %d, MatchPattern(%q):\n got %v\nwant %v", round, src, gotIDs, wantIDs)
			}
			gotHits, err := db.SearchPattern(src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotHits, wantHits) {
				t.Fatalf("round %d, SearchPattern(%q):\n got %v\nwant %v", round, src, gotHits, wantHits)
			}
		}
	}
	if reformed == 0 {
		t.Error("no symbol group emptied and formed again")
	}
	if recycled == 0 {
		t.Error("no freed group ordinal was reused")
	}
}

// SearchPattern maps each group's spans onto the records that carried
// the group's symbol string when the walk began. A record removed and
// re-ingested with another shape meanwhile must be skipped: indexing its
// new, 3-segment representation with the spans of the old 64-segment
// string panicked.
func TestSearchPatternReingestRace(t *testing.T) {
	db := mustDB(t, Config{})
	filler := make([]BatchItem, 3000)
	for i := range filler {
		filler[i] = BatchItem{ID: fmt.Sprintf("f%04d", i), Seq: shapeOf("FUDF").ShiftValue(float64(i) * 1e-3)}
	}
	if _, err := db.IngestBatch(filler); err != nil {
		t.Fatal(err)
	}
	shapes := []seq.Sequence{shapeOf(strings.Repeat("UD", 32)), shapeOf("UFD")}
	mustIngest(t, db, "x", shapes[0])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := db.Remove("x"); err != nil {
				t.Error(err)
				return
			}
			if err := db.Ingest("x", shapes[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		hits, err := db.SearchPattern("U+F*D+")
		if err != nil {
			t.Fatal(err)
		}
		fillerHits := 0
		for _, h := range hits {
			if h.ID != "x" {
				fillerHits++
			}
		}
		if fillerHits != len(filler) {
			t.Fatalf("%d filler hits, want %d", fillerHits, len(filler))
		}
	}
}

// IntervalQuery reads each posting's interval from the record that holds
// the id after the index has answered. A record removed and re-ingested
// with another shape meanwhile carries other intervals, and a position
// whose interval now lies outside the queried buckets must be skipped:
// answering with it put an interval of 20 in the answer to 8 ± 0.5.
func TestIntervalQueryReingestRace(t *testing.T) {
	db := mustDB(t, Config{})
	filler := make([]BatchItem, 3000)
	for i := range filler {
		filler[i] = BatchItem{ID: fmt.Sprintf("f%04d", i), Seq: shapeOf("UDUD").ShiftValue(float64(i) * 1e-3)}
	}
	if _, err := db.IngestBatch(filler); err != nil {
		t.Fatal(err)
	}
	// One inter-peak interval each: 8 samples, then 20.
	shapes := []seq.Sequence{shapeOf("UDUD"), shapeOf("UDFFFUD")}
	mustIngest(t, db, "x", shapes[0])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := db.Remove("x"); err != nil {
				t.Error(err)
				return
			}
			if err := db.Ingest("x", shapes[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	const n, eps = 8, 0.5
	w := db.Config().BucketWidth
	lo, hi := math.Floor((n-eps)/w), math.Floor((n+eps)/w)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		matches, err := db.IntervalQuery(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		fillerHits := 0
		for _, m := range matches {
			if m.ID != "x" {
				fillerHits++
			}
			for _, v := range m.Intervals {
				if b := math.Floor(v / w); b < lo || b > hi {
					t.Fatalf("%q answers %g ± %g with interval %g, outside buckets [%g, %g]", m.ID, float64(n), eps, v, lo, hi)
				}
			}
		}
		if fillerHits != len(filler) {
			t.Fatalf("%d filler hits, want %d", fillerHits, len(filler))
		}
	}
}

// IntervalQuery through the inverted file answers exactly what a scan of
// every live record's intervals answers under the bucket rule
// floor(lo/w) ≤ floor(v/w) ≤ floor(hi/w): the same ids in order, each with
// the same positions and intervals. It holds across removals and
// re-ingests under another item's sequence (one pinned to a record whose
// intervals change), at fine, default and coarse widths, and after the
// boot that rebuilds the file.
func TestIntervalQueryEqualsScan(t *testing.T) {
	for _, w := range []float64{1, 0.25, 10} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(w * 100)))
			items := featureCorpus(t, rng, 600)
			cfg := Config{BucketWidth: w}
			dir := t.TempDir()
			db, err := OpenDir(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if db != nil {
					db.Close()
				}
			}()
			if _, err := db.IngestBatch(items); err != nil {
				t.Fatal(err)
			}
			checkAt := func(step string, n, eps float64) {
				t.Helper()
				got, err := db.IntervalQuery(n, eps)
				if err != nil {
					t.Fatal(err)
				}
				if want := scanIntervals(db, w, n-eps, n+eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: IntervalQuery(%g, %g) = %+v, scan = %+v", step, n, eps, got, want)
				}
			}
			check := func(step string) {
				t.Helper()
				// Answers cannot show a stale posting (a query re-checks each
				// against its record), so count the file against the records.
				postings, keys := 0, map[float64]bool{}
				for _, id := range db.IDs() {
					rec, _ := db.Record(id)
					postings += len(rec.Profile.Intervals)
					for _, v := range rec.Profile.Intervals {
						keys[math.Floor(v/w)] = true
					}
				}
				if st := db.Stats(); st.IntervalCount != postings || st.IntervalBucket != len(keys) {
					t.Fatalf("%s: %d postings in %d buckets, records hold %d in %d", step, st.IntervalCount, st.IntervalBucket, postings, len(keys))
				}
				for range 20 {
					checkAt(step, rng.Float64()*200, []float64{0, 0.5, 2, 10}[rng.Intn(4)])
				}
			}
			check("ingest")
			var removed []string
			for step := range 60 {
				if len(removed) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(removed))
					id := removed[k]
					removed = slices.Delete(removed, k, k+1)
					mustIngest(t, db, id, items[rng.Intn(len(items))].Seq)
				} else {
					id := items[rng.Intn(len(items))].ID
					if _, ok := db.Record(id); !ok {
						continue
					}
					if err := db.Remove(id); err != nil {
						t.Fatal(err)
					}
					removed = append(removed, id)
				}
				check(fmt.Sprint("step ", step))
			}

			// A record removed and re-ingested under a sequence with other
			// intervals, then removed again: each removal drops exactly the
			// postings its own record filed, at both records' intervals.
			var live []BatchItem
			for _, it := range items {
				if rec, ok := db.Record(it.ID); ok && len(rec.Profile.Intervals) > 0 {
					live = append(live, it)
				}
			}
			id := live[0].ID
			before, _ := db.Record(id)
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			mustIngest(t, db, id, live[1].Seq)
			after, _ := db.Record(id)
			if reflect.DeepEqual(after.Profile.Intervals, before.Profile.Intervals) {
				t.Fatalf("%s re-ingested with the same intervals %v", id, before.Profile.Intervals)
			}
			checkAll := func(step string) {
				t.Helper()
				for _, v := range append(slices.Clone(before.Profile.Intervals), after.Profile.Intervals...) {
					checkAt(step, v, 0)
				}
				check(step)
			}
			checkAll("re-ingest with other intervals")
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			checkAll("remove the re-ingested record")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = OpenDir(dir, cfg); err != nil {
				t.Fatal(err)
			}
			check("boot")
		})
	}
}

// scanIntervals is IntervalQuery by brute force: every live record's
// intervals whose bucket lies within [lo, hi]'s, in id order.
func scanIntervals(db *DB, w, lo, hi float64) []IntervalMatch {
	blo, bhi := math.Floor(lo/w), math.Floor(hi/w)
	ids := db.IDs()
	slices.Sort(ids)
	var out []IntervalMatch
	for _, id := range ids {
		rec, _ := db.Record(id)
		var m *IntervalMatch
		for pos, v := range rec.Profile.Intervals {
			if b := math.Floor(v / w); blo <= b && b <= bhi {
				if m == nil {
					m = &IntervalMatch{ID: id}
				}
				m.Positions = append(m.Positions, pos)
				m.Intervals = append(m.Intervals, v)
			}
		}
		if m != nil {
			out = append(out, *m)
		}
	}
	return out
}

// The ECG inverted-index query of §5.2 / Figure 10.
func TestIntervalQueryECG(t *testing.T) {
	db := mustDB(t, Config{Epsilon: 10, Delta: 1})
	rng := rand.New(rand.NewSource(7))
	top, bottom, _, _, err := synth.PaperECGPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db, "ecg1", top)
	mustIngest(t, db, "ecg2", bottom)

	rec1, _ := db.Record("ecg1")
	rec2, _ := db.Record("ecg2")
	if len(rec1.Profile.Intervals) < 2 || len(rec2.Profile.Intervals) < 2 {
		t.Fatalf("intervals: %v / %v", rec1.Profile.Intervals, rec2.Profile.Intervals)
	}

	// ecg1 beats at ~145; ecg2 at ~135. Query 135±4 must return only ecg2.
	matches, err := db.IntervalQuery(135, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != "ecg2" {
		t.Fatalf("IntervalQuery(135±4) = %+v", matches)
	}
	for i, iv := range matches[0].Intervals {
		if iv < 130 || iv > 140 {
			t.Errorf("returned interval %d = %g outside range", i, iv)
		}
	}
	// Query 145±2 must return only ecg1.
	matches, err = db.IntervalQuery(145, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != "ecg1" {
		t.Fatalf("IntervalQuery(145±2) = %+v", matches)
	}
	// Far range: nothing.
	matches, err = db.IntervalQuery(500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("far query = %+v", matches)
	}
	if _, err := db.IntervalQuery(100, -1); err == nil {
		t.Error("negative eps accepted")
	}
}

// The generalized approximate query (§2.2): the exemplar denotes the class
// closed under feature-preserving transformations.
func TestShapeQueryFindsTransformedFamily(t *testing.T) {
	db := feverDB(t)
	exemplar, _ := synth.Fever(synth.FeverOpts{Samples: 97})

	matches, err := db.ShapeQuery(exemplar, ShapeTolerance{Peaks: 0, Height: 0.25, Spacing: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Match{}
	for _, m := range matches {
		got[m.ID] = m
	}
	// The whole two-peak family matches within tolerances.
	for _, want := range []string{"exemplar", "time-shift", "amplitude-shift", "amplitude-scale", "bounded-noise", "contraction", "dilation"} {
		if _, ok := got[want]; !ok {
			t.Errorf("shape query missed %q", want)
		}
	}
	// Three peaks: excluded by the peaks dimension.
	if _, ok := got["three-peaks"]; ok {
		t.Error("shape query matched three-peaks")
	}
	if _, ok := got["flat"]; ok {
		t.Error("shape query matched flat")
	}
	// The exemplar itself is an exact match; shift/scale variants are
	// exact too (invariant signature), spacing-changed ones approximate.
	if !got["exemplar"].Exact {
		t.Error("exemplar not exact")
	}
	if !got["amplitude-shift"].Exact {
		t.Errorf("amplitude shift deviations: %+v", got["amplitude-shift"].Shape)
	}
	if got["contraction"].Exact {
		t.Error("contraction should be approximate (different relative spacing)")
	}
	if dev := got["contraction"].Shape.Spacing; dev <= 0 {
		t.Errorf("contraction spacing deviation = %g", dev)
	}
}

func TestShapeQueryTightTolerances(t *testing.T) {
	db := feverDB(t)
	exemplar, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	matches, err := db.ShapeQuery(exemplar, ShapeTolerance{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.ID] = true
	}
	// Zero tolerances: only feature-identical sequences (exemplar and its
	// pure shift/scale images) survive.
	if !got["exemplar"] || !got["amplitude-shift"] || !got["time-shift"] || !got["amplitude-scale"] {
		t.Errorf("zero-tolerance matches: %v", matches)
	}
	if got["contraction"] || got["dilation"] {
		t.Error("spacing-changed variants matched at zero tolerance")
	}
}

func TestShapeQueryValidation(t *testing.T) {
	db := feverDB(t)
	exemplar, _ := synth.Fever(synth.FeverOpts{})
	if _, err := db.ShapeQuery(nil, ShapeTolerance{}); err == nil {
		t.Error("empty exemplar accepted")
	}
	if _, err := db.ShapeQuery(exemplar, ShapeTolerance{Peaks: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	// Every comparison with NaN is false, so a NaN tolerance would accept
	// any deviation.
	for _, tol := range []ShapeTolerance{{Height: math.NaN(), Spacing: math.NaN()}, {Height: math.NaN()}, {Spacing: math.NaN()}} {
		if _, err := db.ShapeQuery(exemplar, tol); err == nil {
			t.Errorf("NaN tolerance %+v accepted", tol)
		}
	}
	// A featureless exemplar (no peaks) cannot anchor a shape query.
	flat := synth.Const(30, 5)
	if _, err := db.ShapeQuery(flat, ShapeTolerance{}); err == nil {
		t.Error("flat exemplar accepted")
	}
}

func TestMatchOrdering(t *testing.T) {
	a := Match{ID: "b", Exact: true, Key: "x", Dev: 0}
	b := Match{ID: "a", Exact: false, Key: "x", Dev: 1}
	if matchCompare(a, b) >= 0 {
		t.Error("exact should sort first")
	}
	c := Match{ID: "c", Key: "x", Dev: 0.5}
	d := Match{ID: "d", Key: "x", Dev: 0.9}
	if matchCompare(c, d) >= 0 || matchCompare(d, c) <= 0 {
		t.Error("deviation ordering")
	}
	e := Match{ID: "e", Key: "x", Dev: 0.5}
	if matchCompare(c, e) >= 0 {
		t.Error("id tiebreak")
	}
	// Two shape matches whose totals, summed peaks + height + spacing,
	// are one ulp apart: 1 + 0.7 + 0.1 = 1.8, while 1 + 0.8 - 1 ulp is
	// the 1.7999999999999998 that 0.1 + 0.7 + 1 also sums to. Their order
	// is the same on every call, against the ids' order.
	shape := func(id string, dev ShapeTolerance) Match {
		return Match{ID: id, Key: "shape", Dev: float64(dev.Peaks) + dev.Height + dev.Spacing, Shape: &dev}
	}
	far := shape("a", ShapeTolerance{Peaks: 1, Height: 0.7, Spacing: 0.1})
	near := shape("b", ShapeTolerance{Peaks: 1, Height: math.Nextafter(0.8, 0)})
	if math.Nextafter(near.Dev, 2) != far.Dev {
		t.Fatalf("totals %v and %v are not one ulp apart", near.Dev, far.Dev)
	}
	for range 2000 {
		if matchCompare(near, far) >= 0 || matchCompare(far, near) <= 0 {
			t.Fatal("near-tied shape matches change order between calls")
		}
	}
	ms := []Match{far, near}
	SortMatches(ms)
	if ms[0].ID != "b" {
		t.Errorf("SortMatches put %q first, want the nearer b", ms[0].ID)
	}
}

// TestMatchDeviations pins the per-dimension map each family's matches
// build for the wire and the CLI: its keys, and its values bit for bit,
// hashed in id order over feverDB's answers. The unranked families build
// none.
func TestMatchDeviations(t *testing.T) {
	db := feverDB(t)
	exemplar, _ := synth.Fever(synth.FeverOpts{Samples: 97})
	for _, c := range []struct {
		q    QuerySpec
		keys []string // nil: Deviations is nil
		hash uint64
	}{
		{QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: dist.Euclidean, Eps: 60}, []string{"l2"}, 0x439977368b6c9c2f},
		{QuerySpec{Family: FamilyValue, Exemplar: exemplar, Eps: 2}, []string{"value"}, 0xb8ac35d16f1d69eb},
		{QuerySpec{Family: FamilyPeaks, Peaks: 2, PeakTolerance: 1}, []string{"peaks"}, 0x2468cd25b0305fbd},
		{QuerySpec{Family: FamilyShape, Exemplar: exemplar, Shape: ShapeTolerance{Peaks: 1, Height: 0.5, Spacing: 0.5}}, []string{"height", "peaks", "spacing"}, 0x765a0be676c49935},
		{QuerySpec{Family: FamilyPattern, Pattern: pattern.TwoPeak()}, nil, 0},
		{QuerySpec{Family: FamilyFind, Pattern: "U+F*D+"}, nil, 0},
		{QuerySpec{Family: FamilyInterval, Interval: 20, Eps: 15}, nil, 0},
	} {
		matches, _ := collectQuery(t, db, c.q, QueryOptions{})
		if len(matches) < 2 {
			t.Fatalf("%s: %d matches, too few to pin", c.q.Family, len(matches))
		}
		slices.SortStableFunc(matches, func(a, b Match) int { return strings.Compare(a.ID, b.ID) })
		h := fnv.New64a()
		for _, m := range matches {
			devs := m.Deviations()
			if keys := slices.Sorted(maps.Keys(devs)); (devs == nil) != (c.keys == nil) || !slices.Equal(keys, c.keys) {
				t.Fatalf("%s: %s deviations %v, want keys %q", c.q.Family, m.ID, devs, c.keys)
			}
			for _, k := range c.keys {
				fmt.Fprintf(h, "%s:%s=%x;", m.ID, k, math.Float64bits(devs[k]))
			}
			if devs != nil {
				devs[c.keys[0]]++ // a fresh map: the match is unchanged
				if again := m.Deviations(); again[c.keys[0]] == devs[c.keys[0]] {
					t.Errorf("%s: Deviations shares its map between calls", c.q.Family)
				}
			}
		}
		if c.keys != nil && h.Sum64() != c.hash {
			t.Errorf("%s: deviations hash %#x, want %#x", c.q.Family, h.Sum64(), c.hash)
		}
	}
}

// collectQuery runs q through the executor and returns the matches in
// delivery order.
func collectQuery(t *testing.T, db *DB, q QuerySpec, opts QueryOptions) ([]Match, QueryStats) {
	t.Helper()
	var out []Match
	stats, err := db.Query(context.Background(), q, opts, func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		t.Fatalf("%+v under %+v: %v", q, opts, err)
	}
	return out, stats
}

// featureReference answers a feature-family query by brute force over
// every live record's own profile (and, for FIND, representation): the
// answer the executor's producers must deliver, in their canonical order.
func featureReference(t *testing.T, db *DB, q QuerySpec) []Match {
	t.Helper()
	var want []Match
	w := db.cfg.BucketWidth
	for _, id := range db.IDs() {
		rec, _ := db.Record(id)
		prof := rec.Profile
		switch q.Family {
		case FamilyPattern:
			if pattern.MustCompile(q.Pattern).Match(prof.Symbols) {
				want = append(want, Match{ID: id, Exact: true})
			}
		case FamilyFind:
			fs, err := db.materialize(rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range pattern.MustCompile(q.Pattern).FindAll(prof.Symbols) {
				want = append(want, Match{ID: id, Exact: true, Hit: &PatternHit{ID: id, SegLo: span[0], SegHi: span[1],
					TimeLo: fs.Segments[span[0]].StartT, TimeHi: fs.Segments[span[1]-1].EndT}})
			}
		case FamilyPeaks:
			if dev := math.Abs(float64(len(prof.Peaks) - q.Peaks)); dev <= float64(q.PeakTolerance) {
				want = append(want, Match{ID: id, Exact: dev == 0, Key: "peaks", Dev: dev})
			}
		case FamilyInterval:
			lo, hi := math.Floor((q.Interval-q.Eps)/w), math.Floor((q.Interval+q.Eps)/w)
			var im *IntervalMatch
			for pos, iv := range prof.Intervals {
				if b := math.Floor(iv / w); b >= lo && b <= hi {
					if im == nil {
						im = &IntervalMatch{ID: id}
					}
					im.Positions = append(im.Positions, pos)
					im.Intervals = append(im.Intervals, iv)
				}
			}
			if im != nil {
				want = append(want, Match{ID: id, Exact: true, Interval: im})
			}
		}
	}
	if q.Family == FamilyPeaks {
		SortMatches(want)
	}
	return want
}

// Every feature family is a producer of the one executor that delivers in
// its canonical order. Over a churned corpus (ingests, removals, re-ingests
// under other shapes), each family's unbounded answer equals the
// brute-force reference, and its answer under LIMIT n — and, for peaks,
// under TOP n — is exactly the first n items of the unbounded one.
func TestFeatureFamiliesBoundedPrefix(t *testing.T) {
	db := mustDB(t, Config{})
	rng := rand.New(rand.NewSource(35))
	corpus := featureCorpus(t, rng, 90)
	if _, err := db.IngestBatch(corpus); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		it := corpus[rng.Intn(len(corpus))]
		if err := db.Remove(it.ID); err != nil {
			continue // already removed
		}
		if rng.Intn(2) == 0 {
			mustIngest(t, db, it.ID, corpus[rng.Intn(len(corpus))].Seq)
		}
	}
	specs := []QuerySpec{
		{Family: FamilyPattern, Pattern: "F*U+F*D+F*U+F*D+F*"},
		{Family: FamilyPattern, Pattern: "U.*"},
		{Family: FamilyFind, Pattern: "U+F*D+"},
		{Family: FamilyPeaks, Peaks: 2, PeakTolerance: 1},
		{Family: FamilyPeaks, Peaks: 0, PeakTolerance: 1 << 40},
		{Family: FamilyInterval, Interval: 150, Eps: 20},
		{Family: FamilyInterval, Interval: 7, Eps: 3},
	}
	for _, q := range specs {
		full, stats := collectQuery(t, db, q, QueryOptions{})
		if want := featureReference(t, db, q); !reflect.DeepEqual(full, want) {
			t.Fatalf("%+v:\n got %v\nwant %v", q, full, want)
		}
		if len(full) < 3 {
			t.Fatalf("%+v: %d matches, too few to bound", q, len(full))
		}
		if stats.Matches != len(full) || stats.Truncated {
			t.Errorf("%+v: stats %+v for %d matches", q, stats, len(full))
		}
		for n := 1; n <= len(full)+1; n++ {
			opts := []QueryOptions{{Limit: n}}
			if q.Family == FamilyPeaks {
				opts = append(opts, QueryOptions{TopK: n}, QueryOptions{TopK: n, Limit: n + 1})
			}
			for _, o := range opts {
				got, stats := collectQuery(t, db, q, o)
				want := full[:min(n, len(full))]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v under %+v:\n got %v\nwant %v", q, o, got, want)
				}
				if n < len(full) && !stats.Truncated {
					t.Errorf("%+v under %+v: not truncated, stats %+v", q, o, stats)
				}
			}
		}
	}
}

// No feature producer calls back under the index lock: a yield that
// blocks until an Ingest — which links under that lock — completes must
// not deadlock.
func TestFeatureYieldMayIngest(t *testing.T) {
	db := mustDB(t, Config{})
	if _, err := db.IngestBatch(featureCorpus(t, rand.New(rand.NewSource(36)), 60)); err != nil {
		t.Fatal(err)
	}
	extra, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range featureSpecs {
		yields := 0
		_, err := db.Query(context.Background(), q, QueryOptions{}, func(Match) bool {
			yields++
			done := make(chan error, 1)
			go func() { done <- db.Ingest(fmt.Sprintf("extra-%d-%d", i, yields), extra) }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s: ingest from the yield: %v", q.Family, err)
				}
				return yields < 3
			case <-time.After(5 * time.Second):
				t.Errorf("%s: an ingest from the yield blocked: the callback runs under the index lock", q.Family)
				return false
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", q.Family, err)
		}
		if yields == 0 {
			t.Fatalf("%s: no match to yield", q.Family)
		}
	}
}
