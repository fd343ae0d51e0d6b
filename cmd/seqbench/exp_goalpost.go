package main

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"seqrep/internal/breaking"
	"seqrep/internal/core"
	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/fit"
	"seqrep/internal/pattern"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// familySeed keeps every goal-post experiment on identical data.
const familySeed = 1996

// buildFamilyDB ingests the exemplar, the Figure 5 family, the three-peak
// control and a flat control into a fresh database.
func buildFamilyDB() (*core.DB, seq.Sequence, map[string]seq.Sequence, error) {
	db, err := core.New(core.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(familySeed))
	exemplar, variants, err := synth.TwoPeakFamily(rng, 97)
	if err != nil {
		return nil, nil, nil, err
	}
	all := map[string]seq.Sequence{"exemplar": exemplar}
	for v, s := range variants {
		all[v.String()] = s
	}
	three, err := synth.ThreePeakFever(97)
	if err != nil {
		return nil, nil, nil, err
	}
	all["three-peaks"] = three
	all["flat"] = synth.Const(97, 98)
	for id, s := range all {
		if err := db.Ingest(id, s); err != nil {
			return nil, nil, nil, err
		}
	}
	return db, exemplar, all, nil
}

// expFig1 demonstrates the prior-art semantics: a query curve with a ±ε
// band, a wiggled variant inside the band, a shifted one outside.
func expFig1(out io.Writer) error {
	exemplar, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(familySeed))
	inside := exemplar.AddNoise(rng, 0.1)
	outside := exemplar.ShiftValue(1.5)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stored sequence\tL∞ distance\twithin ε=0.5?")
	for _, c := range []struct {
		name string
		s    seq.Sequence
	}{{"exemplar itself", exemplar}, {"pointwise wiggle (σ=0.1)", inside}, {"shifted by +1.5", outside}} {
		d, err := dist.LInf(exemplar.Values(), c.s.Values())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.3f\t%v\n", c.name, d, d <= 0.5)
	}
	return w.Flush()
}

// expFig5 reports, per family member, its value distance from the exemplar
// (all transformed members fall far outside any reasonable ε) while every
// member still has exactly two peaks.
func expFig5(out io.Writer) error {
	db, exemplar, all, err := buildFamilyDB()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "sequence\tL∞ vs exemplar\twithin ε=0.5\tpeaks (from representation)")
	for _, id := range db.IDs() {
		s := all[id]
		d, err := dist.LInf(exemplar.Values(), s.Values())
		if err != nil {
			return err
		}
		rec, _ := db.Record(id)
		fmt.Fprintf(w, "%s\t%.2f\t%v\t%d\n", id, d, d <= 0.5, len(rec.Profile.Peaks))
	}
	return w.Flush()
}

// expFig6 reproduces Figure 6: break a two-peak temperature sequence at
// extrema and annotate every subsequence with its regression line.
func expFig6(out io.Writer) error {
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		return err
	}
	segs, err := breaking.Interpolation(0.5).Break(fever)
	if err != nil {
		return err
	}
	fs, err := rep.Build(fever, segs, fit.RegressionFitter{})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tsamples\ttime span (h)\tregression line\tslope symbol (δ=0.25)")
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		c, err := fs.Curve(i)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t[%d,%d]\t[%.1f,%.1f]\t%s\t%s\n",
			i+1, sg.Lo, sg.Hi, sg.StartT, sg.EndT, c, feature.Classify(fs.Slope(i), 0.25).PaperString())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d samples -> %d regression-line segments\n\n", len(fever), fs.NumSegments())
	return asciiPlot(out, fever, 72, 12, breaking.Breakpoints(segs))
}

// expFig7 breaks three two-peak variants and shows each yields the same
// rise/fall structure (and therefore matches the two-peak pattern).
func expFig7(out io.Writer) error {
	variants := []struct {
		name string
		opts synth.FeverOpts
	}{
		{"original (peaks 8h/16h)", synth.FeverOpts{Samples: 97}},
		{"shifted peaks (11h/19h)", synth.FeverOpts{Samples: 97, FirstPeak: 11, SecondPeak: 19}},
		{"contracted (10h/14h)", synth.FeverOpts{Samples: 97, FirstPeak: 10, SecondPeak: 14, PeakWidth: 1.1}},
	}
	two := pattern.MustCompile(pattern.TwoPeak())
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tsegments\tslope symbols (paper notation)\ttwo-peak pattern")
	for _, v := range variants {
		s, err := synth.Fever(v.opts)
		if err != nil {
			return err
		}
		segs, err := breaking.Interpolation(0.5).Break(s)
		if err != nil {
			return err
		}
		fs, err := rep.Build(s, segs, fit.RegressionFitter{})
		if err != nil {
			return err
		}
		symbols, err := feature.Symbolize(fs, 0.25)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%v\n", v.name, fs.NumSegments(),
			feature.PaperSymbols(symbols), two.Match(symbols))
	}
	return w.Flush()
}

// expGoalpost runs the full §4.4 pipeline: symbol index + regular
// expression query, value query, and shape query side by side.
func expGoalpost(out io.Writer) error {
	db, exemplar, _, err := buildFamilyDB()
	if err != nil {
		return err
	}
	valueMatches, err := db.ValueQuery(exemplar, 0.8)
	if err != nil {
		return err
	}
	patternIDs, err := db.MatchPattern(pattern.TwoPeak())
	if err != nil {
		return err
	}
	shapeMatches, err := db.ShapeQuery(exemplar, core.ShapeTolerance{Height: 0.25, Spacing: 0.3})
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
	inShape := map[string]core.Match{}
	for _, m := range shapeMatches {
		inShape[m.ID] = m
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "sequence\tsymbols\tvalue ±0.8\ttwo-peak pattern\tshape query")
	for _, id := range db.IDs() {
		rec, _ := db.Record(id)
		shapeCell := "-"
		if m, ok := inShape[id]; ok {
			if m.Exact {
				shapeCell = "exact"
			} else {
				shapeCell = fmt.Sprintf("approx (spacing %.2f)", m.Deviations["spacing"])
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", id, rec.Profile.Symbols,
			mark(inValue[id]), mark(inPattern[id]), shapeCell)
	}
	return w.Flush()
}

func mark(b bool) string {
	if b {
		return "match"
	}
	return "-"
}
