package seqrep_test

// One benchmark per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md). Run with: go test -bench=. -benchmem
//
// The benchmarks measure the operations behind each experiment — breaking,
// representation, feature extraction, each query type, and the baselines —
// on the same workloads seqbench prints.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"seqrep"
	"seqrep/internal/dft"
)

// corpus builds a database of n two-peak fever curves (with varied peak
// positions) plus n/4 three-peak controls, archived raws included.
func corpus(b *testing.B, n int) (*seqrep.DB, seqrep.Sequence) {
	b.Helper()
	db, err := seqrep.New(seqrep.Config{Archive: seqrep.NewMemArchive()})
	if err != nil {
		b.Fatal(err)
	}
	exemplar, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		first := 5 + float64(i%8)
		second := first + 5 + float64(i%5)
		s, err := seqrep.GenerateFever(seqrep.FeverOpts{
			Samples: 97, FirstPeak: first, SecondPeak: second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Ingest(fmt.Sprintf("two-%03d", i), s); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n/4; i++ {
		s, err := seqrep.GenerateThreePeakFever(97)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Ingest(fmt.Sprintf("three-%03d", i), s.ShiftValue(float64(i)*0.01)); err != nil {
			b.Fatal(err)
		}
	}
	return db, exemplar
}

// ecgDB builds a database of n synthetic ECGs with varied heart rates.
func ecgDB(b *testing.B, n int) *seqrep.DB {
	b.Helper()
	db, err := seqrep.New(seqrep.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		rr := 110 + float64(i%10)*8
		s, _, err := seqrep.GenerateECG(rng, seqrep.ECGOpts{RRInterval: rr, RRJitter: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Ingest(fmt.Sprintf("ecg-%03d", i), s); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkFig1ValueQuery measures the prior-art ±ε query (Figure 1
// semantics) over 64 stored raw sequences.
func BenchmarkFig1ValueQuery(b *testing.B) {
	db, exemplar := corpus(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ValueQuery(exemplar, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5PatternVsValue measures the pattern query that recognizes
// the transformed family value matching misses (Figures 2-5).
func BenchmarkFig5PatternVsValue(b *testing.B) {
	db, _ := corpus(b, 64)
	pat := seqrep.TwoPeakPattern()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.MatchPattern(pat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Break measures breaking + regression representation of one
// fever curve (Figure 6).
func BenchmarkFig6Break(b *testing.B) {
	fever, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		b.Fatal(err)
	}
	breaker := seqrep.NewInterpolationBreaker(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := breaker.Break(fever); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoalpostQuery measures the full §4.4 goal-post query (two-peak
// regular expression over slope symbols) on an 80-sequence database.
func BenchmarkGoalpostQuery(b *testing.B) {
	db, _ := corpus(b, 64)
	pat := seqrep.ExactlyPeaksPattern(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := db.MatchPattern(pat)
		if err != nil {
			b.Fatal(err)
		}
		if len(ids) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkGoalpostShapeQuery measures the generalized approximate query
// with per-dimension tolerances (§2.2).
func BenchmarkGoalpostShapeQuery(b *testing.B) {
	db, exemplar := corpus(b, 64)
	tol := seqrep.ShapeTolerance{Peaks: 0, Height: 0.3, Spacing: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ShapeQuery(exemplar, tol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ECGBreak measures breaking one 540-point ECG with ε=10
// (Figure 9).
func BenchmarkFig9ECGBreak(b *testing.B) {
	ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		b.Fatal(err)
	}
	breaker := seqrep.NewInterpolationBreaker(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := breaker.Break(ecg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1PeakExtraction measures deriving the peaks table from an
// ingested ECG's representation (Table 1).
func BenchmarkTable1PeakExtraction(b *testing.B) {
	db := ecgDB(b, 1)
	rec, ok := db.Record("ecg-000")
	if !ok {
		b.Fatal("record missing")
	}
	series, err := db.Representation("ecg-000")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seqrep.PeakTable(series, rec.Profile.Peaks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10RRQuery measures the inverted-index interval query over
// 64 ECGs (Figure 10).
func BenchmarkFig10RRQuery(b *testing.B) {
	db := ecgDB(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.IntervalQuery(134, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompression measures building the compact representation of a
// 540-point ECG (the §5.2 space-reduction pipeline).
func BenchmarkCompression(b *testing.B) {
	db, err := seqrep.New(seqrep.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := db.Ingest(id, ecg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakers compares every breaking algorithm on the same ECG
// (§5.1): the interpolation breaker's near-linear time against the O(n²)
// dynamic program.
func BenchmarkBreakers(b *testing.B) {
	ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		b.Fatal(err)
	}
	for _, br := range []seqrep.Breaker{
		seqrep.NewInterpolationBreaker(10),
		seqrep.NewRegressionBreaker(10),
		seqrep.NewBezierBreaker(10),
		seqrep.NewDPBreaker(300, 1),
		seqrep.NewOnlineBreaker(10),
	} {
		b.Run(br.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := br.Break(ecg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBreakerScaling shows the interpolation breaker's growth with
// input length (the paper claims O(#peaks · n)).
func BenchmarkBreakerScaling(b *testing.B) {
	for _, n := range []int{540, 2160, 8640} {
		ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{Samples: n})
		if err != nil {
			b.Fatal(err)
		}
		br := seqrep.NewInterpolationBreaker(10)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := br.Break(ecg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngest measures the full pipeline: break, represent, extract,
// index.
func BenchmarkIngest(b *testing.B) {
	ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		b.Fatal(err)
	}
	db, err := seqrep.New(seqrep.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Ingest(fmt.Sprintf("ecg-%d", i), ecg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistence measures the persistence round trip of a
// 16-record database: checkpoint into a fresh data directory, close, and
// reopen from the segment tier.
func BenchmarkPersistence(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	items := make([]seqrep.BatchItem, 16)
	for i := range items {
		s, _, err := seqrep.GenerateECG(rng, seqrep.ECGOpts{RRInterval: 110 + float64(i%10)*8, RRJitter: 2})
		if err != nil {
			b.Fatal(err)
		}
		items[i] = seqrep.BatchItem{ID: fmt.Sprintf("ecg-%03d", i), Seq: s}
	}
	cfg := seqrep.Config{Epsilon: 10, Delta: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		db, err := seqrep.OpenDir(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.IngestBatch(items); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		loaded, err := seqrep.OpenDir(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := loaded.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- query planner: indexed vs scan ----

// queryBench holds the once-built 10k-sequence pair of databases: one
// with the DFT feature index (the planner's index route) and one with the
// index disabled (forcing the scan route). Both ingest the identical
// workload and share nothing, so the two benchmarks measure only the
// plans.
var queryBench struct {
	once     sync.Once
	indexed  *seqrep.DB
	scan     *seqrep.DB
	exemplar seqrep.Sequence
	err      error
}

const queryBenchN = 10000

func queryBenchDBs(b *testing.B) (indexed, scan *seqrep.DB, exemplar seqrep.Sequence) {
	b.Helper()
	queryBench.once.Do(func() {
		items := make([]seqrep.BatchItem, 0, queryBenchN)
		for i := 0; i < queryBenchN; i++ {
			first := 5 + float64(i%8)
			second := first + 5 + float64(i%5)
			s, err := seqrep.GenerateFever(seqrep.FeverOpts{
				Samples: 97, FirstPeak: first, SecondPeak: second,
			})
			if err != nil {
				queryBench.err = err
				return
			}
			items = append(items, seqrep.BatchItem{
				ID:  fmt.Sprintf("fever-%05d", i),
				Seq: s.ShiftValue(float64(i%100) * 0.05),
			})
		}
		for _, setup := range []struct {
			dst    **seqrep.DB
			coeffs int
		}{
			{&queryBench.indexed, 0}, // 0 = default (index on)
			{&queryBench.scan, -1},   // index disabled
		} {
			db, err := seqrep.New(seqrep.Config{
				Archive:     seqrep.NewMemArchive(),
				IndexCoeffs: setup.coeffs,
			})
			if err != nil {
				queryBench.err = err
				return
			}
			if _, err := db.IngestBatch(items); err != nil {
				queryBench.err = err
				return
			}
			*setup.dst = db
		}
		queryBench.exemplar, queryBench.err = seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	})
	if queryBench.err != nil {
		b.Fatal(queryBench.err)
	}
	return queryBench.indexed, queryBench.scan, queryBench.exemplar
}

// benchQueryReport is the machine-readable record BenchmarkDistanceQuery10k
// writes to BENCH_query.json, tracking the planner's perf trajectory.
type benchQueryReport struct {
	Benchmark     string  `json:"benchmark"`
	Sequences     int     `json:"sequences"`
	Metric        string  `json:"metric"`
	Eps           float64 `json:"eps"`
	IndexedNsOp   float64 `json:"indexed_ns_per_op"`
	ScanNsOp      float64 `json:"scan_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	Examined      int     `json:"examined"`
	Candidates    int     `json:"candidates"`
	Pruned        int     `json:"pruned"`
	PrunedPerExam float64 `json:"pruned_ratio"`
	Matches       int     `json:"matches"`
}

// writeBenchReport leaves a benchmark's report beside the sources as
// indented JSON; CI's gates read these files.
func writeBenchReport(b *testing.B, file string, report any) {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(blob, '\n'), 0o644); err != nil {
		b.Logf("%s not written: %v", file, err)
	}
}

// BenchmarkDistanceQuery10k compares the planner's two DistanceQuery
// plans (L2, 10k stored sequences): the DFT feature index against the
// brute-force scan, reporting candidates-examined/pruned ratios and
// emitting BENCH_query.json. The index plan must beat the scan by ≥3x.
func BenchmarkDistanceQuery10k(b *testing.B) {
	indexed, scan, exemplar := queryBenchDBs(b)
	// eps admits the 0.15-shifted members of the exemplar's two-peak
	// family (L2 ≈ 1.48), so the index plan does real verification work.
	const eps = 2.0
	metric := seqrep.EuclideanMetric()
	report := benchQueryReport{
		Benchmark: "DistanceQuery10k",
		Sequences: queryBenchN,
		Metric:    metric.Name(),
		Eps:       eps,
	}
	b.Run("indexed", func(b *testing.B) {
		var stats seqrep.QueryStats
		for i := 0; i < b.N; i++ {
			var err error
			if _, stats, err = indexed.DistanceQueryCtx(context.Background(), exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		if stats.Plan != "index" {
			b.Fatalf("plan = %q, want index", stats.Plan)
		}
		b.ReportMetric(float64(stats.Candidates), "candidates/op")
		b.ReportMetric(float64(stats.Pruned), "pruned/op")
		b.ReportMetric(float64(stats.Pruned)/float64(stats.Examined), "pruned_ratio")
		report.IndexedNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		report.Examined = stats.Examined
		report.Candidates = stats.Candidates
		report.Pruned = stats.Pruned
		report.PrunedPerExam = float64(stats.Pruned) / float64(stats.Examined)
		report.Matches = stats.Matches
	})
	b.Run("scan", func(b *testing.B) {
		var stats seqrep.QueryStats
		for i := 0; i < b.N; i++ {
			var err error
			if _, stats, err = scan.DistanceQueryCtx(context.Background(), exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		if stats.Plan != "scan" {
			b.Fatalf("plan = %q, want scan", stats.Plan)
		}
		b.ReportMetric(float64(stats.Candidates), "candidates/op")
		report.ScanNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if report.IndexedNsOp > 0 && report.ScanNsOp > 0 {
		report.Speedup = report.ScanNsOp / report.IndexedNsOp
		b.ReportMetric(report.Speedup, "speedup")
		writeBenchReport(b, "BENCH_query.json", report)
	}
}

// BenchmarkTopK compares TOP-K best-so-far search against the ε-band
// search it improves on, at small K on the 10k corpus: the K nearest
// answers under a wide tolerance. The kNN radius feedback must examine
// strictly fewer feature vectors than the fixed-ε search (the acceptance
// bar of the bounded-query redesign) — the bench fails otherwise.
func BenchmarkTopK(b *testing.B) {
	indexed, _, exemplar := queryBenchDBs(b)
	// A wide tolerance: the ε-band search verifies the whole admitted
	// band; TOP 10 shrinks its radius to the 10th-nearest distance.
	const eps = 8.0
	metric := seqrep.EuclideanMetric()
	ctx := context.Background()

	var bandStats, topStats seqrep.QueryStats
	b.Run("epsband", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if _, bandStats, err = indexed.DistanceQueryCtx(context.Background(), exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bandStats.Examined), "examined/op")
		b.ReportMetric(float64(bandStats.Matches), "matches/op")
	})
	b.Run("top10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			var matches []seqrep.Match
			if matches, topStats, err = indexed.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{TopK: 10}); err != nil {
				b.Fatal(err)
			}
			if len(matches) != 10 {
				b.Fatalf("top-10 returned %d matches", len(matches))
			}
		}
		b.ReportMetric(float64(topStats.Examined), "examined/op")
	})
	if topStats.Examined >= bandStats.Examined {
		b.Fatalf("TOP 10 examined %d vectors, ε-band %d: best-so-far pruning below the bar",
			topStats.Examined, bandStats.Examined)
	}
	b.Logf("TOP 10 examined %d of the ε-band's %d vectors (%.1f%%), verified %d vs %d candidates",
		topStats.Examined, bandStats.Examined,
		100*float64(topStats.Examined)/float64(bandStats.Examined),
		topStats.Candidates, bandStats.Candidates)
}

// BenchmarkValueQuery10k measures the planner's two ValueQuery plans on
// the same 10k corpus (the ±ε band admits the ε·√n feature bound).
func BenchmarkValueQuery10k(b *testing.B) {
	indexed, scan, exemplar := queryBenchDBs(b)
	const eps = 0.25
	b.Run("indexed", func(b *testing.B) {
		var stats seqrep.QueryStats
		for i := 0; i < b.N; i++ {
			var err error
			if _, stats, err = indexed.ValueQueryCtx(context.Background(), exemplar, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Candidates), "candidates/op")
		b.ReportMetric(float64(stats.Pruned)/float64(stats.Examined), "pruned_ratio")
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := scan.ValueQueryCtx(context.Background(), exemplar, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- hot path at 100k: VP-tree vs linear feature scan, incremental
// ---- sliding-window DFT vs per-window recompute ----

// hotpathBench holds the once-built 100k-sequence databases: one with
// vantage-point trees over the columnar feature store (the default) and
// one with the trees disabled (IndexLeaf < 0), pinning candidate
// generation to the linear feature scan the trees replaced. Identical
// workloads, so the benchmarks measure only candidate generation.
var hotpathBench struct {
	once    sync.Once
	vptree  *seqrep.DB
	linear  *seqrep.DB
	queries []seqrep.Sequence
	err     error
}

const hotpathN = 100000

func hotpathDBs(b *testing.B) (vptree, linear *seqrep.DB, queries []seqrep.Sequence) {
	b.Helper()
	hotpathBench.once.Do(func() {
		items := make([]seqrep.BatchItem, 0, hotpathN)
		for i := 0; i < hotpathN; i++ {
			first := 5 + float64(i%8)
			second := first + 5 + float64(i%5)
			s, err := seqrep.GenerateFever(seqrep.FeverOpts{
				Samples: 97, FirstPeak: first, SecondPeak: second,
			})
			if err != nil {
				hotpathBench.err = err
				return
			}
			items = append(items, seqrep.BatchItem{
				ID:  fmt.Sprintf("fever-%06d", i),
				Seq: s.ShiftValue(float64(i%2000) * 0.05),
			})
		}
		for _, setup := range []struct {
			dst  **seqrep.DB
			leaf int
		}{
			{&hotpathBench.vptree, 0},  // 0 = default (trees on)
			{&hotpathBench.linear, -1}, // trees disabled: linear feature scan
		} {
			db, err := seqrep.New(seqrep.Config{
				Archive:   seqrep.NewMemArchive(),
				IndexLeaf: setup.leaf,
			})
			if err != nil {
				hotpathBench.err = err
				return
			}
			if _, err := db.IngestBatch(items); err != nil {
				hotpathBench.err = err
				return
			}
			*setup.dst = db
		}
		q, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
		if err != nil {
			hotpathBench.err = err
			return
		}
		hotpathBench.queries = []seqrep.Sequence{q}
	})
	if hotpathBench.err != nil {
		b.Fatal(hotpathBench.err)
	}
	return hotpathBench.vptree, hotpathBench.linear, hotpathBench.queries
}

// benchHotpathReport is the machine-readable record BenchmarkHotpath100k
// writes to BENCH_hotpath.json: the successor of BENCH_query.json's 10k
// planner numbers, tracking the sub-linear hot path at 100k sequences.
type benchHotpathReport struct {
	Benchmark     string  `json:"benchmark"`
	Sequences     int     `json:"sequences"`
	Metric        string  `json:"metric"`
	Eps           float64 `json:"eps"`
	VPTreeNsOp    float64 `json:"vptree_ns_per_op"`
	LinearNsOp    float64 `json:"linear_feature_scan_ns_per_op"`
	Speedup       float64 `json:"speedup_vs_linear_feature_scan"`
	Examined      int     `json:"examined"`
	ExaminedRatio float64 `json:"examined_ratio"` // examined / sequences
	Candidates    int     `json:"candidates"`
	Matches       int     `json:"matches"`

	SubseqSamples       int     `json:"subseq_samples"`
	SubseqWindow        int     `json:"subseq_window"`
	SubseqIncrementalNs float64 `json:"subseq_incremental_ns_per_op"`
	SubseqRecomputeNs   float64 `json:"subseq_recompute_ns_per_op"`
	SubseqSpeedup       float64 `json:"subseq_speedup"`
}

// BenchmarkHotpath100k measures the rebuilt similarity hot path at 100k
// stored sequences: vantage-point-tree candidate generation against the
// linear columnar feature scan (identical answers, see
// core/equivalence_test.go), plus the incremental sliding-window DFT
// against its per-window-recompute baseline, and emits
// BENCH_hotpath.json. Acceptance floors: the tree must examine ≪ N
// vectors and beat the linear feature scan ≥ 3x; the incremental
// subsequence search must beat recompute ≥ 5x.
func BenchmarkHotpath100k(b *testing.B) {
	if os.Getenv("SEQREP_BENCH_100K") == "" {
		b.Skip("set SEQREP_BENCH_100K=1 to run (builds two 100k-sequence databases; minutes of setup) — CI's bench-smoke stays a compile-and-run smoke")
	}
	vptree, linear, queries := hotpathDBs(b)
	// eps admits the nearest stored shift level of the exemplar's two-peak
	// shape (50 sequences at L2 ≈ 1.48) and nothing beyond it, so the
	// query does real verification work while staying selective — the
	// regime a similarity index exists for.
	const eps = 2.0
	metric := seqrep.EuclideanMetric()
	report := benchHotpathReport{
		Benchmark: "Hotpath100k",
		Sequences: hotpathN,
		Metric:    metric.Name(),
		Eps:       eps,
	}
	b.Run("query/vptree", func(b *testing.B) {
		// Warm outside the timed region: the first query after ingest
		// builds the length group's trees (a one-time cost amortized over
		// the database's life, not a per-query one).
		if _, _, err := vptree.DistanceQueryCtx(context.Background(), queries[0], metric, eps, seqrep.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var stats seqrep.QueryStats
		for i := 0; i < b.N; i++ {
			var err error
			if _, stats, err = vptree.DistanceQueryCtx(context.Background(), queries[0], metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Examined), "examined/op")
		b.ReportMetric(float64(stats.Examined)/float64(hotpathN), "examined_ratio")
		report.VPTreeNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		report.Examined = stats.Examined
		report.ExaminedRatio = float64(stats.Examined) / float64(hotpathN)
		report.Candidates = stats.Candidates
		report.Matches = stats.Matches
	})
	b.Run("query/linear", func(b *testing.B) {
		if _, _, err := linear.DistanceQueryCtx(context.Background(), queries[0], metric, eps, seqrep.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := linear.DistanceQueryCtx(context.Background(), queries[0], metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		report.LinearNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	stored := dftBenchSequence(100000)
	q := stored.Slice(40000, 40256).Clone()
	report.SubseqSamples, report.SubseqWindow = len(stored), len(q)
	b.Run("subseq/incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits, err := dft.SubsequenceMatch("s", stored, q, 8, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) == 0 {
				b.Fatal("planted window not found")
			}
		}
		report.SubseqIncrementalNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("subseq/recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits, err := dft.SubsequenceMatchRecompute("s", stored, q, 8, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) == 0 {
				b.Fatal("planted window not found")
			}
		}
		report.SubseqRecomputeNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	if report.VPTreeNsOp > 0 && report.LinearNsOp > 0 {
		report.Speedup = report.LinearNsOp / report.VPTreeNsOp
		b.ReportMetric(report.Speedup, "speedup")
	}
	if report.SubseqIncrementalNs > 0 && report.SubseqRecomputeNs > 0 {
		report.SubseqSpeedup = report.SubseqRecomputeNs / report.SubseqIncrementalNs
	}
	if report.Speedup > 0 && report.SubseqSpeedup > 0 {
		writeBenchReport(b, "BENCH_hotpath.json", report)
	}
}

// dftBenchSequence builds the long stored sequence the subsequence
// benchmarks slide over: a bounded random walk.
func dftBenchSequence(n int) seqrep.Sequence {
	rng := rand.New(rand.NewSource(4242))
	vals := make([]float64, n)
	level := 0.0
	for i := range vals {
		level = 0.999*level + rng.NormFloat64()
		vals[i] = level
	}
	return seqrep.NewSequence(vals)
}

// BenchmarkReconstruct measures evaluating a stored representation back
// into samples (the "interpolation of unsampled points" capability).
func BenchmarkReconstruct(b *testing.B) {
	db := ecgDB(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Reconstruct("ecg-000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgressiveQuery runs the progressive cascade on the 10k
// corpus beside the exact indexed query for the same statement: the
// sketch-capped first answer (APPROX sketch), the fully refined run
// (WITHIN ERROR 0) and the exact plan. Before timing anything it checks
// what must hold on every run, deterministically: the band-accepted
// answer has full recall — the per-record band guarantee means an exact
// match can never be dismissed at any tier (the property suite in
// core/progressive_test.go proves this bit-level; here it gates the
// benchmark too) — and the cascade examines exactly the feature vectors
// the exact plan examines and bands only the index's survivors.
func BenchmarkProgressiveQuery(b *testing.B) {
	indexed, scan, exemplar := queryBenchDBs(b)
	// The same regime as BenchmarkDistanceQuery10k: eps admits the
	// 0.15-shifted members of the exemplar's two-peak family.
	const eps = 2.0
	metric := seqrep.EuclideanMetric()
	ctx := context.Background()
	sketchOpts := seqrep.QueryOptions{MaxTier: seqrep.TierSketch}

	exact, _, err := scan.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	_, exactStats, err := indexed.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	accepted := make(map[string]bool)
	stats, err := indexed.DistanceQueryProgressive(ctx, exemplar, metric, eps, sketchOpts, func(pm seqrep.ProgressiveMatch) bool {
		if pm.Final && pm.Match != nil {
			accepted[pm.ID] = true
		}
		return true
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range exact {
		if !accepted[m.ID] {
			b.Fatalf("sketch tier dismissed exact match %q — the band guarantee is broken", m.ID)
		}
	}
	if stats.Plan != "progressive" || stats.Examined != exactStats.Examined || stats.Sketched != exactStats.Candidates {
		b.Fatalf("cascade %v does not run on the exact plan's candidates %v", stats, exactStats)
	}

	progressive := func(opts seqrep.QueryOptions) func(b *testing.B) {
		return func(b *testing.B) {
			var stats seqrep.QueryStats
			for i := 0; i < b.N; i++ {
				var err error
				if stats, err = indexed.DistanceQueryProgressive(ctx, exemplar, metric, eps, opts, func(seqrep.ProgressiveMatch) bool {
					return true
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Examined), "examined/op")
			b.ReportMetric(float64(stats.Sketched), "sketched/op")
			b.ReportMetric(float64(stats.BandAccepted), "band_accepted/op")
		}
	}
	b.Run("sketch", progressive(sketchOpts))
	b.Run("refined", progressive(seqrep.QueryOptions{}))
	b.Run("exact/index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := indexed.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
