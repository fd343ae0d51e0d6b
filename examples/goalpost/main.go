// Goalpost walks through the paper's central example (§2, §4.4): the
// goal-post fever query over two-peaked temperature curves and their
// feature-preserving transformations (the paper's Figure 5 family).
//
// It shows the failure of value-based ±ε matching on transformed
// sequences, and the success of the pattern and shape queries that operate
// on the function representation.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"seqrep"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		return err
	}

	// The exemplar: a 24-hour, two-peak temperature log (Figure 3).
	exemplar, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		return err
	}

	// The Figure 5 family: feature-preserving transformations of it.
	rng := rand.New(rand.NewSource(1996))
	family := map[string]seqrep.Sequence{
		"exemplar":        exemplar,
		"time-shift":      mustFever(seqrep.FeverOpts{Samples: 97, FirstPeak: 11, SecondPeak: 19}),
		"contraction":     mustFever(seqrep.FeverOpts{Samples: 97, FirstPeak: 10, SecondPeak: 14, PeakWidth: 1.1}),
		"dilation":        mustFever(seqrep.FeverOpts{Samples: 97, FirstPeak: 5, SecondPeak: 19, PeakWidth: 2.6}),
		"amplitude-shift": exemplar.ShiftValue(2.5),
		"amplitude-scale": exemplar.ScaleAbout(97, 1.5),
		"bounded-noise":   exemplar.AddNoise(rng, 0.15),
	}
	outsiders := map[string]seqrep.Sequence{
		"three-peaks": mustThree(97),
	}
	for id, s := range family {
		if err := db.Ingest(id, s); err != nil {
			return err
		}
	}
	for id, s := range outsiders {
		if err := db.Ingest(id, s); err != nil {
			return err
		}
	}

	valueMatches, err := db.ValueQuery(exemplar, 0.8)
	if err != nil {
		return err
	}
	patternIDs, err := db.MatchPattern(seqrep.TwoPeakPattern())
	if err != nil {
		return err
	}
	shapeMatches, err := db.ShapeQuery(exemplar, seqrep.ShapeTolerance{Height: 0.25, Spacing: 0.3})
	if err != nil {
		return err
	}

	inValue := map[string]bool{}
	for _, m := range valueMatches {
		inValue[m.ID] = true
	}
	inPattern := map[string]bool{}
	for _, id := range patternIDs {
		inPattern[id] = true
	}
	inShape := map[string]seqrep.Match{}
	for _, m := range shapeMatches {
		inShape[m.ID] = m
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "sequence\tvalue ±0.8\tpattern (2 peaks)\tshape query\tspacing dev")
	for _, id := range db.IDs() {
		shapeCell := "-"
		devCell := ""
		if m, ok := inShape[id]; ok {
			if m.Exact {
				shapeCell = "exact"
			} else {
				shapeCell = "approx"
			}
			devCell = fmt.Sprintf("%.3f", m.Shape.Spacing)
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t%s\n", id, yes(inValue[id]), yes(inPattern[id]), shapeCell, devCell)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\nThe value-based query (the prior art of the paper's Figure 1) finds only")
	fmt.Println("pointwise-close sequences; the pattern and shape queries recognize the whole")
	fmt.Println("transformed family while rejecting the three-peak outsider.")
	return nil
}

func yes(b bool) string {
	if b {
		return "match"
	}
	return "-"
}

func mustFever(opts seqrep.FeverOpts) seqrep.Sequence {
	s, err := seqrep.GenerateFever(opts)
	if err != nil {
		panic(err)
	}
	return s
}

func mustThree(samples int) seqrep.Sequence {
	s, err := seqrep.GenerateThreePeakFever(samples)
	if err != nil {
		panic(err)
	}
	return s
}
