package seqrep_test

// One benchmark per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md). Run with: go test -bench=. -benchmem
//
// The benchmarks measure the operations behind each experiment — breaking,
// representation, feature extraction, each query type, and the baselines —
// on the same workloads seqbench prints.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"seqrep"
)

// corpus builds a database of n two-peak fever curves (with varied peak
// positions) plus n/4 three-peak controls.
func corpus(b *testing.B, n int) (*seqrep.DB, seqrep.Sequence) {
	b.Helper()
	db, err := seqrep.New(seqrep.Config{})
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
// semantics) over 64 stored sequences.
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
			db, err := seqrep.New(seqrep.Config{IndexCoeffs: setup.coeffs})
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
		// The default fever as the databases see it: fever-00003 is that
		// shape stored 0.15 up, so its reconstruction shifted back sits at
		// L2 ≈ 1.48 from the 50 members of its family.
		stored, err := queryBench.indexed.Reconstruct("fever-00003")
		queryBench.exemplar, queryBench.err = stored.ShiftValue(-0.15), err
	})
	if queryBench.err != nil {
		b.Fatal(queryBench.err)
	}
	return queryBench.indexed, queryBench.scan, queryBench.exemplar
}

// BenchmarkDistanceQuery10k compares the pipeline's two DistanceQuery
// sources (L2, 10k stored sequences): the DFT feature index against the
// linear walk of a database without it, which bands every record on its
// sketch and verifies only the survivors, reporting the work counters of
// each. The index plan must beat the scan by ≥3x — the floor CI's
// bench-regression step enforces by running this benchmark.
func BenchmarkDistanceQuery10k(b *testing.B) {
	indexed, scan, exemplar := queryBenchDBs(b)
	// eps admits the 0.15-shifted members of the exemplar's two-peak
	// family (L2 ≈ 1.48), so the index plan does real verification work.
	const eps = 2.0
	metric := seqrep.EuclideanMetric()
	var indexedNs, scanNs float64
	b.Run("indexed", func(b *testing.B) {
		// Warm outside the timed region: the first query builds the group's
		// trees, which a one-iteration smoke run must not bill to the floor.
		if _, _, err := indexed.DistanceQueryCtx(context.Background(), exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
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
		indexedNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
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
		b.ReportMetric(float64(stats.Sketched), "sketched/op")
		b.ReportMetric(float64(stats.Pruned), "pruned/op")
		scanNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if indexedNs > 0 && scanNs > 0 {
		speedup := scanNs / indexedNs
		b.ReportMetric(speedup, "speedup")
		if speedup < 3 {
			b.Fatalf("indexed speedup %.1fx is below the 3x floor", speedup)
		}
	}
}

// BenchmarkDistanceQueryMetrics10k runs one exact DistanceQuery per
// built-in metric on BenchmarkDistanceQuery10k's corpus: each metric's
// feature bound is the L2 feature distance under its own scale, so every
// one must take the index route. Each tolerance is that metric's distance
// from the exemplar to a copy of it shifted by 2/√n per sample — the
// L2 benchmark's radius of 2 spread evenly — so the metrics face
// comparable queries (zl2, blind to a shift, keeps the L2 radius of 2).
// The bound is as tight as l2's for linf and norml2 (verified at most 10x
// l2's candidates) and √n looser for l1 and norml1 (fewer than the whole
// length group); the benchmark fails otherwise.
func BenchmarkDistanceQueryMetrics10k(b *testing.B) {
	indexed, _, exemplar := queryBenchDBs(b)
	shifted := exemplar.ShiftValue(2 / math.Sqrt(float64(len(exemplar))))
	cands := map[string]int{}
	for _, name := range []string{"l1", "l2", "linf", "norml1", "norml2", "zl2"} {
		metric, err := seqrep.MetricByName(name)
		if err != nil {
			b.Fatal(err)
		}
		eps := 2.0
		if name != "zl2" {
			if eps, err = metric.Distance(exemplar.Values(), shifted.Values()); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name, func(b *testing.B) {
			var stats seqrep.QueryStats
			for i := 0; i < b.N; i++ {
				var err error
				if _, stats, err = indexed.DistanceQueryCtx(context.Background(), exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if stats.Plan != "index" {
				b.Fatalf("%s: plan = %q, want index", name, stats.Plan)
			}
			b.ReportMetric(float64(stats.Candidates), "candidates/op")
			b.ReportMetric(float64(stats.Pruned), "pruned/op")
			cands[name] = stats.Candidates
		})
	}
	if l2, ok := cands["l2"]; ok {
		for _, name := range []string{"linf", "norml2"} {
			if c, ok := cands[name]; ok && c > 10*max(l2, 1) {
				b.Fatalf("%s verified %d candidates, more than 10x l2's %d", name, c, l2)
			}
		}
	}
	for _, name := range []string{"l1", "norml1"} { // every corpus record has the exemplar's length
		if c, ok := cands[name]; ok && c >= queryBenchN {
			b.Fatalf("%s verified %d candidates, the whole length group of %d", name, c, queryBenchN)
		}
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

// ---- hot path at 100k: VP-tree vs linear feature scan ----

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
			db, err := seqrep.New(seqrep.Config{IndexLeaf: setup.leaf})
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
		// As in queryBenchDBs: the default fever in reconstruction space.
		q, err := hotpathBench.vptree.Reconstruct("fever-000003")
		if err != nil {
			hotpathBench.err = err
			return
		}
		hotpathBench.queries = []seqrep.Sequence{q.ShiftValue(-0.15)}
	})
	if hotpathBench.err != nil {
		b.Fatal(hotpathBench.err)
	}
	return hotpathBench.vptree, hotpathBench.linear, hotpathBench.queries
}

// BenchmarkHotpath100k measures the rebuilt similarity hot path at 100k
// stored sequences: vantage-point-tree candidate generation against the
// linear columnar feature scan (identical answers, see
// core/equivalence_test.go). Acceptance floor, enforced here: the tree
// must examine ≤ 5% of the vectors and beat the linear feature scan ≥ 3x.
// (The incremental sliding-window DFT is measured beside its baseline in
// internal/dft's BenchmarkSubsequenceIncrementalVsRecompute.)
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
	// measure times db's query, warmed outside the timed region: the
	// first query after ingest builds the length group's trees (a one-time
	// cost amortized over the database's life, not a per-query one).
	measure := func(b *testing.B, db *seqrep.DB) (nsOp float64, stats seqrep.QueryStats) {
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			var err error
			if _, stats, err = db.DistanceQueryCtx(context.Background(), queries[0], metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		return float64(b.Elapsed().Nanoseconds()) / float64(b.N), stats
	}
	var vptreeNs, linearNs float64
	b.Run("query/vptree", func(b *testing.B) {
		var stats seqrep.QueryStats
		vptreeNs, stats = measure(b, vptree)
		b.ReportMetric(float64(stats.Examined), "examined/op")
		b.ReportMetric(float64(stats.Examined)/float64(hotpathN), "examined_ratio")
		if stats.Examined*20 > hotpathN {
			b.Errorf("tree examined %d of %d vectors", stats.Examined, hotpathN)
		}
	})
	b.Run("query/linear", func(b *testing.B) { linearNs, _ = measure(b, linear) })
	if vptreeNs > 0 && linearNs > 0 {
		b.ReportMetric(linearNs/vptreeNs, "speedup")
		if linearNs < 3*vptreeNs {
			b.Errorf("vp-tree %.0f ns/op is not 3x under the linear feature scan's %.0f", vptreeNs, linearNs)
		}
	}
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
// band-capped first answer (APPROX candidate), the fully refined run
// (WITHIN ERROR 0) and the exact plan. Before timing anything it checks
// what must hold on every run, deterministically: the band-accepted
// answer has full recall — the per-record band guarantee means an exact
// match can never be dismissed on its band (the property suite in
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
	bandOpts := seqrep.QueryOptions{MaxTier: seqrep.TierCandidate}

	exact, _, err := scan.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	_, exactStats, err := indexed.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	accepted := make(map[string]bool)
	stats, err := indexed.DistanceQueryProgressive(ctx, exemplar, metric, eps, bandOpts, func(pm seqrep.ProgressiveMatch) bool {
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
			b.Fatalf("band tier dismissed exact match %q — the band guarantee is broken", m.ID)
		}
	}
	if stats.Plan != "progressive" || stats.Examined != exactStats.Examined || stats.Sketched != exactStats.Sketched {
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
	b.Run("candidate", progressive(bandOpts))
	b.Run("refined", progressive(seqrep.QueryOptions{}))
	b.Run("exact/index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := indexed.DistanceQueryCtx(ctx, exemplar, metric, eps, seqrep.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
