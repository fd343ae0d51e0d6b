package core

import (
	"fmt"
	"math/rand"
	"testing"

	"seqrep/internal/synth"
)

// BenchmarkFeatureQueries runs the paper's own query families over one
// resident 4 000-record corpus shaped like the end-to-end benchmark's: 60 %
// random walks, 25 % two- and three-peak fevers and 15 % ECGs, whose
// inter-peak intervals the interval family asks for. Each family is one
// sub-benchmark, with allocations reported.
func BenchmarkFeatureQueries(b *testing.B) {
	db := mustDB(b, Config{})
	if _, err := db.IngestBatch(featureCorpus(b, rand.New(rand.NewSource(33)), 4000)); err != nil {
		b.Fatal(err)
	}
	run := func(name string, query func() (int, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				n, err := query()
				if err != nil {
					b.Fatal(err)
				}
				hits = n
			}
			b.ReportMetric(float64(hits), "hits/op")
		})
	}
	run("pattern", func() (int, error) {
		ids, err := db.MatchPattern("F*U+F*D+F*U+F*D+F*")
		return len(ids), err
	})
	run("find", func() (int, error) {
		hits, err := db.SearchPattern("U+F*D+U+")
		return len(hits), err
	})
	run("peaks", func() (int, error) {
		matches, err := db.PeakCount(2, 1)
		return len(matches), err
	})
	run("interval", func() (int, error) {
		matches, err := db.IntervalQuery(150, 2)
		return len(matches), err
	})
}

// featureCorpus returns n records: 60 % unit-step random walks, 25 %
// fevers (three in five with two peaks, the rest with three) and 15 %
// ECGs with RR intervals between 110 and 190 samples.
func featureCorpus(tb testing.TB, rng *rand.Rand, n int) []BatchItem {
	tb.Helper()
	items := make([]BatchItem, n)
	nWalk, nFever := n*60/100, n*25/100
	for i := range items {
		var err error
		it := &items[i]
		switch {
		case i < nWalk:
			it.ID = fmt.Sprintf("walk-%05d", i)
			it.Seq, err = synth.RandomWalk(rng, 128)
		case i < nWalk+nFever:
			it.ID = fmt.Sprintf("fever-%05d", i)
			first := 5 + rng.Float64()*4
			peaks := []synth.Peak{
				{Center: first, Height: 6 + rng.Float64()*3, Width: 1.5},
				{Center: first + 7 + rng.Float64()*3, Height: 6 + rng.Float64()*3, Width: 1.5},
			}
			if i%5 >= 3 {
				peaks = append(peaks, synth.Peak{Center: first + 14, Height: 5 + rng.Float64()*3, Width: 1.2})
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
