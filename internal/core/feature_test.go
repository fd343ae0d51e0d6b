package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"seqrep/internal/feature"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// benchFindPatterns are the end-to-end benchmark's FIND statements.
var benchFindPatterns = []string{"U{2,}D{2,}", "DDD+", "UFD", "U+F*D+U+"}

// benchShapedCorpus returns n records mixed like the end-to-end
// benchmark's corpus: 60 % noisy members of smoothed-walk clusters, 25 %
// fevers (three in five with two peaks of jittered width, the rest with
// three) and 15 % ECGs.
func benchShapedCorpus(tb testing.TB, rng *rand.Rand, n int) []BatchItem {
	tb.Helper()
	smooth := func(n int) []float64 {
		const win = 9
		raw := make([]float64, n+win)
		v := 0.0
		for i := range raw {
			v += rng.NormFloat64() * 0.9
			raw[i] = v
		}
		out := make([]float64, n)
		for i := range out {
			for j := 0; j < win; j++ {
				out[i] += raw[i+j] / win
			}
		}
		return out
	}
	nWalk, nFever := n*60/100, n*25/100
	centres := make([][]float64, max(1, nWalk/30))
	for i := range centres {
		centres[i] = smooth(128)
	}
	items := make([]BatchItem, n)
	for i := range items {
		var err error
		it := &items[i]
		switch {
		case i < nWalk:
			it.ID = fmt.Sprintf("walk-%05d", i)
			vals := slices.Clone(centres[i%len(centres)])
			shift := rng.NormFloat64() * 0.05
			for j := range vals {
				vals[j] += shift + rng.NormFloat64()*0.05
			}
			it.Seq = seq.New(vals)
		case i < nWalk+nFever:
			it.ID = fmt.Sprintf("fever-%05d", i)
			first := 5 + rng.Float64()*4
			peaks := []synth.Peak{
				{Center: first, Height: 6 + rng.Float64()*3, Width: 1.5 + rng.Float64()*0.5},
				{Center: first + 7 + rng.Float64()*3, Height: 6 + rng.Float64()*3, Width: 1.5 + rng.Float64()*0.5},
			}
			if i%5 >= 3 {
				peaks = []synth.Peak{
					{Center: first - 1, Height: 6 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
					{Center: first + 5.5 + rng.Float64(), Height: 5 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
					{Center: first + 12 + rng.Float64(), Height: 6 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
				}
			}
			it.Seq, err = synth.Bumps(0, 24, 97, 97, peaks)
		default:
			it.ID = fmt.Sprintf("ecg-%05d", i)
			it.Seq, _, err = synth.ECG(rng, synth.ECGOpts{Samples: 256, RRInterval: 110 + rng.Float64()*80, RRJitter: 1.5, FirstR: 30 + rng.Float64()*20})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return items
}

// shapeReference answers a shape query the way the verification did
// while it read payloads: the exemplar's and every record's time span
// and baseline come from the representation itself (Representation,
// which pages a cold one in), and the signatures are built as slices.
func shapeReference(t *testing.T, db *DB, exemplar seq.Sequence, tol ShapeTolerance) []Match {
	t.Helper()
	type point struct{ t, v float64 }
	signature := func(fs *rep.FunctionSeries, peaks []feature.Peak) (heights, spacing []float64, ok bool) {
		span := fs.Segments[len(fs.Segments)-1].EndT - fs.Segments[0].StartT
		base := math.Inf(1)
		for _, sg := range fs.Segments {
			if sg.StartV < base {
				base = sg.StartV
			}
			if sg.EndV < base {
				base = sg.EndV
			}
		}
		pts := make([]point, 0, len(peaks))
		for _, pk := range peaks {
			pts = append(pts, point{pk.Time, pk.Value})
		}
		if len(pts) == 0 || span <= 0 {
			return nil, nil, false
		}
		heights = make([]float64, len(pts))
		tallest := 0.0
		for i, p := range pts {
			h := p.v - base
			heights[i] = h
			if h > tallest {
				tallest = h
			}
		}
		if tallest <= 0 {
			return nil, nil, false
		}
		for i := range heights {
			heights[i] /= tallest
		}
		for i := 1; i < len(pts); i++ {
			spacing = append(spacing, (pts[i].t-pts[i-1].t)/span)
		}
		return heights, spacing, true
	}
	worst := func(a, b []float64) float64 {
		w := 0.0
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > w {
				w = d
			}
		}
		return w
	}
	segs, err := db.cfg.Breaker.Break(exemplar)
	if err != nil {
		t.Fatal(err)
	}
	qfs, err := rep.Build(exemplar, segs, db.cfg.Representer)
	if err != nil {
		t.Fatal(err)
	}
	qprof, err := feature.Extract(qfs, db.cfg.Delta)
	if err != nil {
		t.Fatal(err)
	}
	qh, qs, ok := signature(qfs, qprof.Peaks)
	if !ok {
		t.Fatal("reference: featureless exemplar")
	}
	var want []Match
	for _, id := range db.IDs() {
		rec, _ := db.Record(id)
		fs, err := db.Representation(id)
		if err != nil {
			t.Fatal(err)
		}
		rh, rs, ok := signature(fs, rec.Profile.Peaks)
		if !ok {
			continue
		}
		devPeaks := math.Abs(float64(len(rs)+1) - float64(len(qs)+1))
		if devPeaks > float64(tol.Peaks) {
			continue
		}
		devHeight, devSpacing := 0.0, 0.0
		if devPeaks == 0 {
			devHeight, devSpacing = worst(qh, rh), worst(qs, rs)
			if devHeight > tol.Height+1e-12 || devSpacing > tol.Spacing+1e-12 {
				continue
			}
		}
		want = append(want, Match{ID: id, Exact: devPeaks == 0 && devHeight <= 1e-9 && devSpacing <= 1e-9,
			Key: "shape", Dev: devPeaks + devHeight + devSpacing,
			Shape: &ShapeTolerance{Peaks: int(devPeaks), Height: devHeight, Spacing: devSpacing}})
	}
	SortMatches(want)
	return want
}

// shapeTolerances are the benchmark's SHAPE tolerance and its neighbours.
var shapeTolerances = []ShapeTolerance{
	{Height: 0.25, Spacing: 0.3},
	{},
	{Peaks: 1, Height: 0.3, Spacing: 0.3},
	{Peaks: 2, Height: math.Inf(1), Spacing: math.Inf(1)},
}

// checkShapeAgainstReference runs every tolerance for a few of the
// corpus's fevers and ECGs as exemplars, and demands the reference's
// answer bit for bit: ids, order, Exact and deviations.
func checkShapeAgainstReference(t *testing.T, db *DB, corpus []BatchItem, label string) {
	t.Helper()
	total := 0
	for i, it := range corpus {
		if strings.HasPrefix(it.ID, "walk") || i%4 != 0 {
			continue // every fourth fever and ECG serves
		}
		for _, tol := range shapeTolerances {
			got, err := db.ShapeQuery(it.Seq, tol)
			if err != nil {
				t.Fatalf("%s: %s under %+v: %v", label, it.ID, tol, err)
			}
			if want := shapeReference(t, db, it.Seq, tol); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s under %+v: %d matches, reference %d\n got %v\nwant %v", label, it.ID, tol, len(got), len(want), got, want)
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatalf("%s: no shape query matched anything", label)
	}
}

// MATCH SHAPE scores every record from its resident peaks and the span
// and baseline cached beside its representation: the answer must be the
// one the payload-reading verification gave, on a database that built
// its records and on one that adopted them at boot (and replayed the
// rest from its log).
func TestShapeScoresResidentFeatures(t *testing.T) {
	for _, c := range []struct {
		name   string
		corpus func(testing.TB, *rand.Rand, int) []BatchItem
	}{{"featureCorpus", featureCorpus}, {"benchShaped", benchShapedCorpus}} {
		t.Run(c.name, func(t *testing.T) {
			corpus := c.corpus(t, rand.New(rand.NewSource(43)), 300)
			dir := t.TempDir()
			db := mustOpenDir(t, dir)
			if _, err := db.IngestBatch(corpus[:250]); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.IngestBatch(corpus[250:]); err != nil {
				t.Fatal(err)
			}
			checkShapeAgainstReference(t, db, corpus, "fresh")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = mustOpenDir(t, dir)
			defer db.Close()
			if db.Len() != len(corpus) {
				t.Fatalf("reopened with %d records, want %d", db.Len(), len(corpus))
			}
			checkShapeAgainstReference(t, db, corpus, "reopened")
		})
	}
}

// Under a budget that evicts every payload, MATCH SHAPE pages nothing in.
func TestShapeReadsNoPayload(t *testing.T) {
	db := pagedDB(t, Config{})
	corpus := featureCorpus(t, rand.New(rand.NewSource(44)), 200)
	if _, err := db.IngestBatch(corpus); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, ok := db.ResidencyStats()
	if !ok || before.ResidentRecords != 0 {
		t.Fatalf("residency after the checkpoint: %+v, want nothing resident", before)
	}
	exemplar := corpus[len(corpus)*60/100].Seq // the first fever
	var answers [][]Match
	for _, tol := range shapeTolerances {
		got, err := db.ShapeQuery(exemplar, tol)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, got)
	}
	after, _ := db.ResidencyStats()
	if after.ColdHits != before.ColdHits || after.ResidentRecords != 0 {
		t.Fatalf("shape queries paged payloads in: residency %+v, before %+v", after, before)
	}
	for i, tol := range shapeTolerances {
		if want := shapeReference(t, db, exemplar, tol); !reflect.DeepEqual(answers[i], want) {
			t.Fatalf("under %+v on a cold corpus:\n got %v\nwant %v", tol, answers[i], want)
		}
	}
	if len(answers[0]) == 0 {
		t.Fatal("the benchmark's tolerance matched nothing")
	}
}

// FIND PATTERN … LIMIT n stops its walk at the n-th hit: its answer is
// the unbounded answer's first n hits, Truncated says whether the
// unbounded answer is longer, and Examined counts the ids walked — up to
// the record holding the n-th hit. A yield that removes the next member
// mid-walk makes delivery skip it, and the walk resumes in a fresh hold.
func TestFindLimitIsPrefix(t *testing.T) {
	db := mustDB(t, Config{})
	corpus := featureCorpus(t, rand.New(rand.NewSource(45)), 600)
	if _, err := db.IngestBatch(corpus); err != nil {
		t.Fatal(err)
	}
	seqOf := map[string]seq.Sequence{}
	for _, it := range corpus {
		seqOf[it.ID] = it.Seq
	}
	ids := db.IDs()
	checkPrefix := func(label string, full, got []Match, stats QueryStats, n int) {
		t.Helper()
		if want := full[:min(n, len(full))]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LIMIT %d is not a prefix:\n got %v\nwant %v", label, n, got, want)
		}
		// At len(full) == n the flag is conservative (see QueryStats).
		if len(full) != n && stats.Truncated != (len(full) > n) {
			t.Errorf("%s: LIMIT %d of %d hits: truncated = %v", label, n, len(full), stats.Truncated)
		}
	}
	for _, pat := range benchFindPatterns {
		q := QuerySpec{Family: FamilyFind, Pattern: pat}
		full, fullStats := collectQuery(t, db, q, QueryOptions{})
		if want := featureReference(t, db, q); !reflect.DeepEqual(full, want) {
			t.Fatalf("%q: unbounded answer differs from the reference", pat)
		}
		if fullStats.Examined != len(ids) || len(full) < 2 {
			t.Fatalf("%q: unbounded stats %+v, %d hits", pat, fullStats, len(full))
		}
		var members []string // distinct ids of the answer, in order
		for _, m := range full {
			if len(members) == 0 || members[len(members)-1] != m.ID {
				members = append(members, m.ID)
			}
		}
		for _, n := range []int{1, 5, 200} {
			label := fmt.Sprintf("%q", pat)
			got, stats := collectQuery(t, db, q, QueryOptions{Limit: n})
			checkPrefix(label, full, got, stats, n)
			last := full[min(n, len(full))-1].ID
			if at, _ := slices.BinarySearch(ids, last); n < len(full) && stats.Examined != at+1 {
				t.Errorf("%s: LIMIT %d walked %d ids, want %d (through %s)", label, n, stats.Examined, at+1, last)
			}
			topk, topkStats := collectQuery(t, db, q, QueryOptions{TopK: n})
			checkPrefix(label+" TOP", full, topk, topkStats, n)
		}

		// The limit that makes the first walk stop exactly after the
		// second member, besides the benchmark's.
		firstTwo := 0
		for _, m := range full {
			if m.ID == members[0] || m.ID == members[1] {
				firstTwo++
			}
		}
		for _, n := range []int{1, 5, 200, firstTwo} {
			victim := members[1]
			removed := false
			var got []Match
			stats, err := db.Query(context.Background(), q, QueryOptions{Limit: n}, func(m Match) bool {
				got = append(got, m)
				if !removed {
					removed = true
					if err := db.Remove(victim); err != nil {
						t.Errorf("remove %s from the yield: %v", victim, err)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			var rest []Match // the unbounded answer without the victim
			for _, m := range full {
				if m.ID != victim {
					rest = append(rest, m)
				}
			}
			checkPrefix(fmt.Sprintf("%q removing %s mid-walk", pat, victim), rest, got, stats, n)
			mustIngest(t, db, victim, seqOf[victim])
		}
	}
}
