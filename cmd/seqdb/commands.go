package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"seqrep"
	"seqrep/internal/querylang"
)

// cmdGenerate writes a synthetic workload as CSV (time,value per row).
func cmdGenerate(args []string) error {
	fs := newFlagSet("generate")
	kind := fs.String("kind", "fever", "fever | three | ecg | seismic | stock")
	out := fs.String("out", "", "output CSV path (required)")
	samples := fs.Int("samples", 0, "sample count (0 = kind default)")
	seed := fs.Int64("seed", 1, "random seed for stochastic kinds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	rng := rand.New(rand.NewSource(*seed))
	var (
		s   seqrep.Sequence
		err error
	)
	switch *kind {
	case "fever":
		s, err = seqrep.GenerateFever(seqrep.FeverOpts{Samples: *samples})
	case "three":
		n := *samples
		if n == 0 {
			n = 97
		}
		s, err = seqrep.GenerateThreePeakFever(n)
	case "ecg":
		s, _, err = seqrep.GenerateECG(rng, seqrep.ECGOpts{Samples: *samples, RRJitter: 2})
	case "seismic":
		s, _, err = seqrep.GenerateSeismic(rng, seqrep.SeismicOpts{Samples: *samples})
	case "stock":
		n := *samples
		if n == 0 {
			n = 500
		}
		s, err = seqrep.GenerateStock(rng, n, 100, 0.1, 2)
	default:
		return fmt.Errorf("generate: unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	return writeCSV(*out, s)
}

// commit ends a writing command: checkpoint, then close. Commands open
// their -db directory with seqrep.OpenDir, whose cfg supplies the scalar
// parameters only while the directory has never been checkpointed. The
// checkpoint here is what makes the manifest — not the next invocation's
// flags — carry ε/δ/bucket: a directory holding only a write-ahead log
// would be replayed and re-broken under whatever -epsilon the next
// command happened to pass.
func commit(db *seqrep.DB) error {
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// openExisting opens the data directory of a command that has nothing to
// do without one (the read commands and remove): unlike seqrep.OpenDir,
// which ingest and ingestdir use to create it, a missing directory is an
// error and nothing is created.
func openExisting(path string) (*seqrep.DB, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("no database at %s", path)
	} else if err != nil {
		return nil, err
	}
	return seqrep.OpenDir(path, seqrep.Config{})
}

func cmdIngest(args []string) error {
	fs := newFlagSet("ingest")
	dbPath := fs.String("db", "", "data directory (required)")
	id := fs.String("id", "", "sequence id (required)")
	in := fs.String("in", "", "input CSV (required)")
	epsilon := fs.Float64("epsilon", 0, "breaking tolerance for a new database (0 = default 0.5)")
	delta := fs.Float64("delta", 0, "slope threshold for a new database (0 = default 0.25)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *id == "" || *in == "" {
		return fmt.Errorf("ingest: -db, -id and -in are required")
	}
	s, err := readCSV(*in)
	if err != nil {
		return err
	}
	db, err := seqrep.OpenDir(*dbPath, seqrep.Config{Epsilon: *epsilon, Delta: *delta})
	if err != nil {
		return err
	}
	if err := db.Ingest(*id, s); err != nil {
		db.Close()
		return err
	}
	rec, _ := db.Record(*id)
	if err := commit(db); err != nil {
		return err
	}
	fmt.Printf("ingested %q: %d samples -> %d segments (symbols %s)\n",
		*id, rec.N, rec.NumSegments(), rec.Profile.Symbols)
	return nil
}

// cmdIngestDir batch-ingests every *.csv file in a directory through the
// concurrent worker-pool API; the sequence id is the file name without
// its extension.
func cmdIngestDir(args []string) error {
	fs := newFlagSet("ingestdir")
	dbPath := fs.String("db", "", "data directory (required)")
	dir := fs.String("dir", "", "directory of CSV files (required)")
	epsilon := fs.Float64("epsilon", 0, "breaking tolerance for a new database (0 = default 0.5)")
	delta := fs.Float64("delta", 0, "slope threshold for a new database (0 = default 0.25)")
	workers := fs.Int("workers", 0, "ingestion workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *dir == "" {
		return fmt.Errorf("ingestdir: -db and -dir are required")
	}
	names, err := filepath.Glob(filepath.Join(*dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("ingestdir: no *.csv files in %s", *dir)
	}
	sort.Strings(names)
	items := make([]seqrep.BatchItem, 0, len(names))
	for _, name := range names {
		s, err := readCSV(name)
		if err != nil {
			return err
		}
		base := filepath.Base(name)
		items = append(items, seqrep.BatchItem{
			ID:  strings.TrimSuffix(base, filepath.Ext(base)),
			Seq: s,
		})
	}
	db, err := seqrep.OpenDir(*dbPath, seqrep.Config{Epsilon: *epsilon, Delta: *delta, Workers: *workers})
	if err != nil {
		return err
	}
	n, batchErr := db.IngestBatch(items)
	total := db.Len()
	if err := commit(db); err != nil {
		return err
	}
	fmt.Printf("ingested %d of %d sequences (%d total in database)\n", n, len(items), total)
	if batchErr != nil {
		return fmt.Errorf("ingestdir: some items failed:\n%w", batchErr)
	}
	return nil
}

func cmdList(args []string) error {
	fs := newFlagSet("list")
	dbPath := fs.String("db", "", "data directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("list: -db is required")
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tsamples\tsegments\tpeaks\tsymbols")
	for _, id := range db.IDs() {
		rec, _ := db.Record(id)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n", id, rec.N, rec.NumSegments(),
			len(rec.Profile.Peaks), rec.Profile.Symbols)
	}
	return w.Flush()
}

func cmdSegments(args []string) error {
	fs := newFlagSet("segments")
	dbPath := fs.String("db", "", "data directory (required)")
	id := fs.String("id", "", "sequence id (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *id == "" {
		return fmt.Errorf("segments: -db and -id are required")
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	rec, ok := db.Record(*id)
	if !ok {
		return fmt.Errorf("segments: unknown id %q", *id)
	}
	series, err := db.Representation(*id)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tsamples\ttime span\tfunction\tslope")
	for i := range series.Segments {
		sg := &series.Segments[i]
		c, err := series.Curve(i)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t[%d,%d]\t[%.3g,%.3g]\t%s\t%.3g\n",
			i+1, sg.Lo, sg.Hi, sg.StartT, sg.EndT, c, series.Slope(i))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("compression: %.1fx full accounting, %.1fx paper accounting\n",
		series.CompressionRatio(), series.PaperCompressionRatio())
	if len(rec.Profile.Peaks) > 0 {
		table, err := seqrep.PeakTable(series, rec.Profile.Peaks)
		if err != nil {
			return err
		}
		fmt.Printf("\npeaks:\n%s", table)
		fmt.Printf("intervals: %v\n", rec.Profile.Intervals)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := newFlagSet("query")
	dbPath := fs.String("db", "", "data directory (required)")
	q := fs.String("q", "", `query-language statement, e.g. 'MATCH PEAKS 2' or 'MATCH INTERVAL 135 +- 2'`)
	pat := fs.String("pattern", "", "slope-sign pattern over U/F/D (full match)")
	search := fs.String("search", "", "slope-sign pattern searched within sequences")
	peaks := fs.Int("peaks", -1, "peak-count query: number of peaks")
	tol := fs.Int("tol", 0, "peak-count tolerance")
	interval := fs.Float64("interval", 0, "interval query: peak spacing n")
	eps := fs.Float64("eps", 0, "interval query tolerance ε")
	limit := fs.Int("limit", 0, "cap the number of results (0 = unlimited); capped answers note the truncation")
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("query: -db is required")
	}
	if *limit < 0 {
		return fmt.Errorf("query: negative -limit %d", *limit)
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The shortcut flags state their statement directly, so no pattern
	// needs quoting into the language.
	var stmt seqrep.ParsedQuery
	switch {
	case *q != "":
		if stmt, err = seqrep.ParseQuery(*q); err != nil {
			return err
		}
	case *pat != "":
		stmt = &querylang.MatchPatternQuery{Pattern: *pat}
	case *search != "":
		stmt = &querylang.FindPatternQuery{Pattern: *search}
	case *peaks >= 0:
		stmt = &querylang.PeaksQuery{Count: *peaks, Tolerance: *tol}
	case *interval > 0:
		stmt = &querylang.IntervalQuery{N: *interval, Eps: *eps}
	default:
		return fmt.Errorf("query: one of -q, -pattern, -search, -peaks, -interval is required")
	}
	stmt = seqrep.LimitQuery(stmt, *limit)
	if seqrep.IsProgressiveQuery(stmt) {
		err = runProgressiveQuery(ctx, db, stmt)
	} else {
		err = runQuery(ctx, db, stmt)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("query: timed out after %s", *timeout)
	}
	return err
}

// runQuery executes a statement and prints its answer: the ids, then the
// kind's detail (FIND hits, intervals, approximate matches).
func runQuery(ctx context.Context, db *seqrep.DB, q seqrep.ParsedQuery) error {
	res, err := seqrep.RunQueryCtx(ctx, db, q)
	if err != nil {
		return err
	}
	for _, id := range res.IDs {
		fmt.Println(id)
	}
	for _, h := range res.Hits {
		fmt.Printf("  %s segments [%d,%d) time [%.3g,%.3g]\n", h.ID, h.SegLo, h.SegHi, h.TimeLo, h.TimeHi)
	}
	for _, m := range res.Intervals {
		fmt.Printf("  %s intervals %v at positions %v\n", m.ID, m.Intervals, m.Positions)
	}
	for _, m := range res.Matches {
		if !m.Exact {
			fmt.Printf("  %s approximate, deviations %v\n", m.ID, m.Deviations())
		}
	}
	fmt.Printf("%d match(es) [%s]\n", len(res.IDs), res.Kind)
	reportTruncation(res)
	if res.Explain {
		fmt.Println(res.Stats)
	}
	return nil
}

// runProgressiveQuery executes a WITHIN ERROR / APPROX statement with
// frame-level printing: every refinement frame appears as it is
// produced, tagged with its quality tier, so the terminal shows each
// record's band ([candidate]) and then, unless the band settled it, its
// exact verdict ([exact]).
func runProgressiveQuery(ctx context.Context, db *seqrep.DB, q seqrep.ParsedQuery) error {
	accepted := 0
	res, err := seqrep.StreamQueryProgressive(ctx, db, q, func(pm seqrep.ProgressiveMatch) bool {
		hi := "?"
		if !math.IsInf(pm.Band.Hi, 1) {
			hi = fmt.Sprintf("%.4g", pm.Band.Hi)
		}
		switch {
		case pm.Final && pm.Match != nil:
			accepted++
			fmt.Printf("[%s] %s band [%.4g, %s] ACCEPT\n", pm.Tier, pm.ID, pm.Band.Lo, hi)
		case pm.Final:
			fmt.Printf("[%s] %s band [%.4g, %s] reject\n", pm.Tier, pm.ID, pm.Band.Lo, hi)
		default:
			fmt.Printf("[%s] %s band [%.4g, %s]\n", pm.Tier, pm.ID, pm.Band.Lo, hi)
		}
		return true
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d match(es) [%s]\n", accepted, res.Kind)
	reportTruncation(res)
	if res.Stats != nil {
		fmt.Println(res.Stats)
	}
	return nil
}

// reportTruncation notes that a bound cut a statement's answer short: the
// query stops at the bound, so only the fact of truncation is knowable.
func reportTruncation(res *seqrep.QueryResult) {
	if res.Stats != nil && res.Stats.Truncated {
		fmt.Println("(results truncated: the bound stopped the query early; more matches may exist)")
	}
}

func cmdRemove(args []string) error {
	fs := newFlagSet("remove")
	dbPath := fs.String("db", "", "data directory (required)")
	id := fs.String("id", "", "sequence id (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *id == "" {
		return fmt.Errorf("remove: -db and -id are required")
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	if err := db.Remove(*id); err != nil {
		db.Close()
		return err
	}
	remain := db.Len()
	if err := commit(db); err != nil {
		return err
	}
	fmt.Printf("removed %q (%d sequences remain)\n", *id, remain)
	return nil
}

func cmdExport(args []string) error {
	fs := newFlagSet("export")
	dbPath := fs.String("db", "", "data directory (required)")
	id := fs.String("id", "", "sequence id (required)")
	out := fs.String("out", "", "output CSV (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *id == "" || *out == "" {
		return fmt.Errorf("export: -db, -id and -out are required")
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	s, err := db.Reconstruct(*id)
	if err != nil {
		return err
	}
	return writeCSV(*out, s)
}

func cmdStats(args []string) error {
	fs := newFlagSet("stats")
	dbPath := fs.String("db", "", "data directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("stats: -db is required")
	}
	db, err := openExisting(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	cfg := db.Config()
	st := db.Stats()
	fmt.Printf("sequences:       %d\n", st.Sequences)
	fmt.Printf("epsilon/delta:   %g / %g\n", cfg.Epsilon, cfg.Delta)
	fmt.Printf("total samples:   %d\n", st.Samples)
	fmt.Printf("total segments:  %d\n", st.Segments)
	fmt.Printf("symbol groups:   %d\n", st.SymbolGroups)
	fmt.Printf("interval index:  %d postings in %d buckets\n", st.IntervalCount, st.IntervalBucket)
	if st.IndexCoeffs > 0 {
		fmt.Printf("feature index:   %d of %d sequences, %d DFT coefficients\n",
			st.FeatureIndexed, st.Sequences, st.IndexCoeffs)
	} else {
		fmt.Printf("feature index:   disabled\n")
	}
	if st.StoredFloats > 0 {
		fmt.Printf("compression:     %.1fx (samples vs stored floats)\n",
			float64(st.Samples)/float64(st.StoredFloats))
	}
	return nil
}

// writeCSV stores a sequence as "t,v" rows.
func writeCSV(path string, s seqrep.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	for _, p := range s {
		if err := w.Write([]string{
			strconv.FormatFloat(p.T, 'g', -1, 64),
			strconv.FormatFloat(p.V, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples to %s\n", len(s), path)
	return nil
}

// readCSV loads "t,v" rows (or single-column values with implied times).
func readCSV(path string) (seqrep.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var times, values []float64
	for i, row := range rows {
		switch len(row) {
		case 1:
			v, err := strconv.ParseFloat(row[0], 64)
			if err != nil {
				return nil, fmt.Errorf("%s row %d: %w", path, i+1, err)
			}
			times = append(times, float64(i))
			values = append(values, v)
		case 2:
			t, err := strconv.ParseFloat(row[0], 64)
			if err != nil {
				return nil, fmt.Errorf("%s row %d: %w", path, i+1, err)
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s row %d: %w", path, i+1, err)
			}
			times = append(times, t)
			values = append(values, v)
		default:
			return nil, fmt.Errorf("%s row %d: want 1 or 2 columns, got %d", path, i+1, len(row))
		}
	}
	return seqrep.NewSequenceFromSamples(times, values)
}
