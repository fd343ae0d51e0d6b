package main

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"seqrep/internal/breaking"
	"seqrep/internal/core"
	"seqrep/internal/feature"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
	"seqrep/internal/store"
	"seqrep/internal/synth"
)

const ecgSeed = 7

// ecgPair regenerates the Figure 9 stand-ins deterministically.
func ecgPair() (top, bottom seq.Sequence, err error) {
	rng := rand.New(rand.NewSource(ecgSeed))
	top, bottom, _, _, err = synth.PaperECGPair(rng)
	return top, bottom, err
}

// ecgRep breaks one ECG with the paper's ε=10 and keeps the byproduct
// interpolation lines, exactly as in their Figure 9.
func ecgRep(s seq.Sequence) (*rep.FunctionSeries, error) {
	segs, err := breaking.Interpolation(10).Break(s)
	if err != nil {
		return nil, err
	}
	return rep.Build(s, segs, nil)
}

// expFig9 prints each ECG's segmentation: the interpolation line per
// subsequence, flagging the steep R flanks.
func expFig9(out io.Writer) error {
	top, bottom, err := ecgPair()
	if err != nil {
		return err
	}
	for _, tr := range []struct {
		name string
		s    seq.Sequence
	}{{"ecg1 (top)", top}, {"ecg2 (bottom)", bottom}} {
		name, s := tr.name, tr.s
		fs, err := ecgRep(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d samples -> %d interpolation-line segments\n", name, len(s), fs.NumSegments())
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "segment\tsamples\tline\trole")
		for i := range fs.Segments {
			sg := &fs.Segments[i]
			c, err := fs.Curve(i)
			if err != nil {
				return err
			}
			role := ""
			switch {
			case fs.Slope(i) > 10:
				role = "R rising flank"
			case fs.Slope(i) < -10:
				role = "R descending flank"
			}
			fmt.Fprintf(w, "%d\t[%d,%d]\t%s\t%s\n", i+1, sg.Lo, sg.Hi, c, role)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		var bps []int
		for i := 1; i < len(fs.Segments); i++ {
			bps = append(bps, fs.Segments[i].Lo)
		}
		if err := asciiPlot(out, s, 90, 12, bps); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// expTable1 renders the paper's Table 1 from the representation alone.
func expTable1(out io.Writer) error {
	top, _, err := ecgPair()
	if err != nil {
		return err
	}
	fs, err := ecgRep(top)
	if err != nil {
		return err
	}
	peaks, err := feature.Peaks(fs, 1)
	if err != nil {
		return err
	}
	table, err := feature.PeakTable(fs, peaks)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(out, table)
	return err
}

// expRRSeq prints the R-R distance sequences of both ECGs (§5.2 lists
// "the sequence is (145 145 145)" style output).
func expRRSeq(out io.Writer) error {
	top, bottom, err := ecgPair()
	if err != nil {
		return err
	}
	for _, tr := range []struct {
		name string
		s    seq.Sequence
	}{{"ecg1", top}, {"ecg2", bottom}} {
		name, s := tr.name, tr.s
		fs, err := ecgRep(s)
		if err != nil {
			return err
		}
		profile, err := feature.Extract(fs, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d peaks, R-R distance sequence (", name, len(profile.Peaks))
		for i, iv := range profile.Intervals {
			if i > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprintf(out, "%.0f", iv)
		}
		fmt.Fprintln(out, ")")
	}
	return nil
}

// expFig10 builds the inverted-file index over both ECGs and runs the
// paper's range queries against it.
func expFig10(out io.Writer) error {
	db, err := core.New(core.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		return err
	}
	top, bottom, err := ecgPair()
	if err != nil {
		return err
	}
	if err := db.Ingest("ecg1", top); err != nil {
		return err
	}
	if err := db.Ingest("ecg2", bottom); err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tresult")
	for _, q := range []struct{ n, eps float64 }{{135, 2}, {145, 1}, {140, 10}, {200, 5}} {
		matches, err := db.IntervalQuery(q.n, q.eps)
		if err != nil {
			return err
		}
		cell := "no ECGs"
		if len(matches) > 0 {
			cell = ""
			for _, m := range matches {
				cell += fmt.Sprintf("%s (intervals %v at positions %v) ", m.ID, rounded(m.Intervals), m.Positions)
			}
		}
		fmt.Fprintf(w, "RR = %g ± %g\t%s\n", q.n, q.eps, cell)
	}
	return w.Flush()
}

// expCompression quantifies the §5.2 space-reduction claim across the
// workloads.
func expCompression(out io.Writer) error {
	top, bottom, err := ecgPair()
	if err != nil {
		return err
	}
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	seismic, _, err := synth.Seismic(rng, synth.SeismicOpts{})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "sequence\tsamples\tε\tsegments\tstored floats\tratio (full)\tratio (paper accounting)\trecon RMSE")
	cases := []struct {
		name string
		s    seq.Sequence
		eps  float64
	}{
		{"ecg1", top, 10}, {"ecg2", bottom, 10},
		{"fever", fever, 0.5}, {"seismic", seismic, 3},
	}
	for _, c := range cases {
		segs, err := breaking.Interpolation(c.eps).Break(c.s)
		if err != nil {
			return err
		}
		fs, err := rep.Build(c.s, segs, nil)
		if err != nil {
			return err
		}
		rmse, _, err := fs.ErrorAgainst(c.s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%g\t%d\t%d\t%.1fx\t%.1fx\t%.2f\n",
			c.name, len(c.s), c.eps, fs.NumSegments(), fs.StoredFloats(),
			fs.CompressionRatio(), fs.PaperCompressionRatio(), rmse)
	}
	return w.Flush()
}

// expArchive reproduces the paper's storage motivation: the originals go
// to a slow archive beside the database, feature queries touch only the
// local representation, and raw access pays archive latency and bytes.
func expArchive(out io.Writer) error {
	arch := store.NewMemArchive()
	arch.ReadLatency = 25 * time.Millisecond
	db, err := core.New(core.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		return err
	}
	top, bottom, err := ecgPair()
	if err != nil {
		return err
	}
	for _, it := range []core.BatchItem{{ID: "ecg1", Seq: top}, {ID: "ecg2", Seq: bottom}} {
		if err := arch.Put(it.ID, it.Seq); err != nil {
			return err
		}
		if err := db.Ingest(it.ID, it.Seq); err != nil {
			return err
		}
	}
	arch.ResetStats()

	start := time.Now()
	if _, err := db.IntervalQuery(135, 2); err != nil {
		return err
	}
	indexed := time.Since(start)
	afterIndexed := arch.Stats()

	start = time.Now()
	if _, err := arch.Get("ecg2"); err != nil {
		return err
	}
	rawTime := time.Since(start)
	afterRaw := arch.Stats()

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "operation\ttime\tarchive reads\tarchive bytes")
	fmt.Fprintf(w, "interval query via index\t%v\t%d\t%d\n", indexed.Round(time.Microsecond), afterIndexed.Reads, afterIndexed.BytesRead)
	fmt.Fprintf(w, "raw fetch of one ECG\t%v\t%d\t%d\n", rawTime.Round(time.Millisecond), afterRaw.Reads-afterIndexed.Reads, afterRaw.BytesRead-afterIndexed.BytesRead)
	return w.Flush()
}

func rounded(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x + 0.5)
	}
	return out
}
