package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"seqrep/internal/core"
	"seqrep/internal/dist"
	"seqrep/internal/synth"
)

// expQueryPlan measures the query planner's two routes over the same
// corpus: the DFT feature index (Agrawal/Faloutsos/Swami-style
// lower-bound pruning, zero false dismissals) against the brute-force
// scan, for every plannable query. It prints candidates-examined/pruned
// ratios.
func expQueryPlan(out io.Writer) error {
	const n = 2000
	items := make([]core.BatchItem, 0, n)
	for i := 0; i < n; i++ {
		first := 5 + float64(i%8)
		second := first + 5 + float64(i%5)
		s, err := synth.Fever(synth.FeverOpts{Samples: 97, FirstPeak: first, SecondPeak: second})
		if err != nil {
			return err
		}
		items = append(items, core.BatchItem{
			ID:  fmt.Sprintf("fever-%05d", i),
			Seq: s.ShiftValue(float64(i%100) * 0.05),
		})
	}
	build := func(coeffs int) (*core.DB, error) {
		db, err := core.New(core.Config{IndexCoeffs: coeffs})
		if err != nil {
			return nil, err
		}
		if _, err := db.IngestBatch(items); err != nil {
			return nil, err
		}
		return db, nil
	}
	indexed, err := build(0) // default: index on
	if err != nil {
		return err
	}
	scan, err := build(-1) // index disabled
	if err != nil {
		return err
	}
	// The default fever as the databases see it: fever-00003 is that shape
	// stored 0.15 up, so its reconstruction is shifted back.
	stored, err := indexed.Reconstruct("fever-00003")
	if err != nil {
		return err
	}
	exemplar := stored.ShiftValue(-0.15)

	const rounds = 5
	timeQuery := func(db *core.DB, m dist.Metric, eps float64) (time.Duration, core.QueryStats, error) {
		var stats core.QueryStats
		start := time.Now()
		for r := 0; r < rounds; r++ {
			_, st, err := db.DistanceQueryCtx(context.Background(), exemplar, m, eps, core.QueryOptions{})
			if err != nil {
				return 0, stats, err
			}
			stats = st
		}
		return time.Since(start) / rounds, stats, nil
	}
	timeValue := func(db *core.DB, eps float64) (time.Duration, core.QueryStats, error) {
		var stats core.QueryStats
		start := time.Now()
		for r := 0; r < rounds; r++ {
			_, st, err := db.ValueQueryCtx(context.Background(), exemplar, eps, core.QueryOptions{})
			if err != nil {
				return 0, stats, err
			}
			stats = st
		}
		return time.Since(start) / rounds, stats, nil
	}

	type row struct {
		Query   string
		Metric  string
		Eps     float64
		IndexUs float64
		ScanUs  float64
		Speedup float64
		Cands   int
		Pruned  int
		Ratio   float64
		Matches int
	}
	var rows []row
	add := func(query, metric string, eps float64, it, st time.Duration, istats core.QueryStats) {
		rows = append(rows, row{
			Query: query, Metric: metric, Eps: eps,
			IndexUs: float64(it.Microseconds()),
			ScanUs:  float64(st.Microseconds()),
			Speedup: float64(st) / float64(it),
			Cands:   istats.Candidates,
			Pruned:  istats.Pruned,
			Ratio:   float64(istats.Pruned) / float64(istats.Examined),
			Matches: istats.Matches,
		})
	}

	for _, c := range []struct {
		m   dist.Metric
		eps float64
	}{
		{dist.Euclidean, 2},
		{dist.ZEuclidean, 2},
	} {
		it, istats, err := timeQuery(indexed, c.m, c.eps)
		if err != nil {
			return err
		}
		st, _, err := timeQuery(scan, c.m, c.eps)
		if err != nil {
			return err
		}
		add("distance", c.m.Name(), c.eps, it, st, istats)
	}
	it, istats, err := timeValue(indexed, 0.25)
	if err != nil {
		return err
	}
	st, _, err := timeValue(scan, 0.25)
	if err != nil {
		return err
	}
	add("value", "band", 0.25, it, st, istats)

	fmt.Fprintf(out, "query planner over %d sequences (feature index %d coefficients vs full scan):\n\n",
		n, indexed.Stats().IndexCoeffs)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tmetric\teps\tindexed\tscan\tspeedup\tcandidates\tpruned\tpruned%\tmatches")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%g\t%.0fµs\t%.0fµs\t%.1fx\t%d\t%d\t%.1f%%\t%d\n",
			r.Query, r.Metric, r.Eps, r.IndexUs, r.ScanUs, r.Speedup,
			r.Cands, r.Pruned, 100*r.Ratio, r.Matches)
	}
	return w.Flush()
}
