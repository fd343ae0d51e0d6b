package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seqrep/internal/seq"
)

// TestNearDuplicateOnOffset is the false dismissal a fixed rounding
// whisker allows: records far from zero, and an exemplar that is one of
// them shifted by a near-constant δ of a few hundred ulps of the level.
// The exact distance is then tiny against the rounding error of every
// sample-free bound computed from the raw level (the DC coefficient, the
// block means), so a whisker that does not scale with the query's
// magnitude lets the feature bound or the sketch band prune, or a band
// exclude, the one true match. For every metric and the value band, at ε
// of 1, 1.01 and 1.1 times the exact distance, on the index and the
// linear source, each with the sketch on and off, the exact answer and
// the progressive run at MaxError 0 must equal bruteForce, and every
// progressive frame must contain its record's exact distance.
func TestNearDuplicateOnOffset(t *testing.T) {
	const records, length, exemplars = 400, 64, 6
	sources := []struct {
		name string
		cfg  Config
	}{
		{"index+sketch", Config{}},
		{"index", Config{SketchBlock: -1}},
		{"linear+sketch", Config{IndexCoeffs: -1}},
		{"linear", Config{IndexCoeffs: -1, SketchBlock: -1}},
	}
	for _, level := range []float64{1e4, 1e6, 1e9} {
		ulp := math.Nextafter(level, math.Inf(1)) - level
		for _, ulps := range []float64{100, 1000} {
			delta := ulps * ulp
			rng := rand.New(rand.NewSource(int64(level) + int64(ulps)))
			items := make([]BatchItem, records)
			for i := range items {
				s := smoothWalk(rng, length)
				for j := range s {
					s[j].V += level
				}
				items[i] = BatchItem{ID: fmt.Sprintf("r-%03d", i), Seq: s}
			}
			dbs := make([]*DB, len(sources))
			for i, src := range sources {
				dbs[i] = mustDB(t, src.cfg)
				if _, err := dbs[i].IngestBatch(items); err != nil {
					t.Fatal(err)
				}
			}
			for e := range exemplars {
				id := items[e*records/exemplars].ID
				own, err := dbs[0].Reconstruct(id)
				if err != nil {
					t.Fatal(err)
				}
				ex := own.Clone()
				for j := range ex {
					ex[j].V += delta * (1 + 0.1*rng.Float64())
				}
				for _, r := range progressiveRunners() {
					d, err := r.truth.Distance(ex.Values(), own.Values())
					if err != nil || d <= 0 {
						t.Fatalf("%s: exact distance %g, %v", r.name, d, err)
					}
					for _, scale := range []float64{1, 1.01, 1.1} {
						spec := r.spec(ex, d*scale)
						want, err := dbs[0].bruteForce(dbs[0].compile(spec))
						if err != nil || len(want) == 0 {
							t.Fatalf("%s: brute force found %d matches, %v", r.name, len(want), err)
						}
						for i, db := range dbs {
							name := fmt.Sprintf("level %g δ %g (%g ulps) %s %s %s ε=%g×", level, delta, ulps, sources[i].name, id, r.name, scale)
							checkOffsetAnswers(t, name, db, spec, ex, r, want)
						}
					}
				}
			}
		}
	}
}

// checkOffsetAnswers runs spec exactly and progressively on db and checks
// both against the brute-force answer, and every frame's band against
// its record's exact distance.
func checkOffsetAnswers(t *testing.T, name string, db *DB, spec QuerySpec, ex seq.Sequence, r progressiveRunner, want []Match) {
	t.Helper()
	got, _, err := db.querySorted(context.Background(), spec, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: exact answer %v, brute force %v", name, got, want)
	}
	frames, _ := collectFrames(t, db, spec, QueryOptions{})
	accepted := acceptedOf(frames)
	if len(accepted) != len(want) {
		t.Errorf("%s: progressive accepted %d records, brute force %d", name, len(accepted), len(want))
	}
	for _, m := range want {
		if _, ok := accepted[m.ID]; !ok {
			t.Errorf("%s: progressive dismissed %s", name, m.ID)
		}
	}
	for id, fs := range frames {
		s, err := db.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.truth.Distance(ex.Values(), s.Values())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if !f.Band.Contains(d) {
				t.Errorf("%s: %s frame band [%v, %v] at tier %v excludes the exact distance %v", name, id, f.Band.Lo, f.Band.Hi, f.Tier, d)
			}
		}
	}
}
