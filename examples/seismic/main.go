// Seismic reproduces the seismology motivation of the paper's introduction:
// "in a seismic database we may look for sudden vigorous seismic activity".
// Raw seismograms live in a deliberately slow archive kept beside the
// database (the paper's remote tape store); the compact representation is
// searched locally with a slope-sign pattern, and only matching raw
// windows would ever be fetched.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"seqrep"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The archive of originals is the caller's: here a map whose every
	// read costs 50ms, standing in for the paper's "several days" seismic
	// tape retrieval. The database keeps only the representation.
	archive := map[string]seqrep.Sequence{}

	db, err := seqrep.New(seqrep.Config{
		Epsilon: 3, // burst amplitudes dwarf the noise floor
		Delta:   1,
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	groundTruth := map[string][]int{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("station-%d", i+1)
		events := 1 + i%3
		s, starts, err := seqrep.GenerateSeismic(rng, seqrep.SeismicOpts{
			Samples: 2400, Events: events, MinSeparation: 500,
		})
		if err != nil {
			return err
		}
		if err := db.Ingest(id, s); err != nil {
			return err
		}
		archive[id] = s
		groundTruth[id] = starts
	}

	// "Sudden vigorous activity": a steep rise immediately followed by
	// steep alternation — at least two consecutive peak units with no flat
	// running between them.
	const burst = "(U+D+){2,}"
	start := time.Now()
	hits, err := db.SearchPattern(burst)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("searched %d stations in %v without touching the archive\n\n", db.Len(), elapsed)
	perStation := map[string][][2]float64{}
	for _, h := range hits {
		perStation[h.ID] = append(perStation[h.ID], [2]float64{h.TimeLo, h.TimeHi})
	}
	for _, id := range db.IDs() {
		fmt.Printf("%s: ground-truth bursts at %v\n", id, groundTruth[id])
		for _, span := range perStation[id] {
			fmt.Printf("  detected activity in samples [%.0f, %.0f]\n", span[0], span[1])
		}
		if len(perStation[id]) == 0 {
			fmt.Println("  no vigorous activity")
		}
	}

	// Fetch raw data only for the first hit — the single slow operation.
	if len(hits) > 0 {
		start = time.Now()
		time.Sleep(50 * time.Millisecond)
		raw := archive[hits[0].ID]
		fmt.Printf("\nfetched raw %s (%d samples) from the slow archive in %v\n",
			hits[0].ID, len(raw), time.Since(start))
	}
	return nil
}
