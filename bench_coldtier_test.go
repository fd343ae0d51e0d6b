package seqrep_test

// BenchmarkColdTier measures beyond-RAM serving: a durable database
// whose residency budget holds ~10% of the corpus, against the same
// corpus fully resident. It reports cold-hit (page-in) latency and
// queries/sec for both, asserts resident bytes never exceed the budget,
// and emits BENCH_coldtier.json for CI's jq gate.
//
// The default 5000-record corpus keeps the smoke run cheap; set
// SEQREP_BENCH_100K=1 for the 100k-record acceptance configuration.

import (
	"fmt"
	"os"
	"testing"

	"seqrep"
)

type benchColdTierReport struct {
	Benchmark          string  `json:"benchmark"`
	Records            int     `json:"records"`
	FullyResidentBytes int64   `json:"fully_resident_bytes"`
	MemoryBudget       int64   `json:"memory_budget"`
	BudgetFraction     float64 `json:"budget_fraction"`
	ResidentBytesMax   int64   `json:"resident_bytes_max"`
	UnderBudget        bool    `json:"resident_bytes_under_budget"`
	ColdHitNsOp        float64 `json:"cold_hit_ns_per_op"`
	ColdHitsTotal      uint64  `json:"cold_hits_total"`
	EvictionsTotal     uint64  `json:"evictions_total"`
	PagedQueryNsOp     float64 `json:"paged_query_ns_per_op"`
	ResidentQueryNsOp  float64 `json:"resident_query_ns_per_op"`
	PagedQPS           float64 `json:"paged_queries_per_sec"`
	ResidentQPS        float64 `json:"resident_queries_per_sec"`
	PagedSlowdown      float64 `json:"paged_slowdown_vs_resident"`
}

// coldTierIngest fills db with n varied two-peak fever curves (no
// archive: verification must read representations, i.e. page).
func coldTierIngest(b *testing.B, db *seqrep.DB, n int) []string {
	b.Helper()
	ids := make([]string, n)
	const batch = 512
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		items := make([]seqrep.BatchItem, 0, hi-lo)
		for i := lo; i < hi; i++ {
			first := 5 + float64(i%8)
			second := first + 5 + float64(i%5)
			s, err := seqrep.GenerateFever(seqrep.FeverOpts{
				Samples: 97, FirstPeak: first, SecondPeak: second,
			})
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = fmt.Sprintf("cold-%06d", i)
			items = append(items, seqrep.BatchItem{ID: ids[i], Seq: s})
		}
		if _, err := db.IngestBatch(items); err != nil {
			b.Fatal(err)
		}
	}
	return ids
}

func BenchmarkColdTier(b *testing.B) {
	n := 5000
	if os.Getenv("SEQREP_BENCH_100K") != "" {
		n = 100_000
	}

	// Fully-resident baseline: durable, no budget.
	resident, err := seqrep.OpenDir(b.TempDir(), seqrep.Config{Workers: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer resident.Close()
	coldTierIngest(b, resident, n)
	if err := resident.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	// The representation footprint, by the tracker's own accounting
	// formula (floats + segment structs + object overhead).
	rst := resident.Stats()
	fullBytes := int64(rst.StoredFloats)*8 + int64(rst.Segments)*48 + 64*int64(rst.Sequences)
	budget := fullBytes / 10

	// Paged database: same corpus under the ~10% budget.
	paged, err := seqrep.OpenDir(b.TempDir(), seqrep.Config{Workers: 16, MemoryBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	defer paged.Close()
	ids := coldTierIngest(b, paged, n)
	if err := paged.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	st, ok := paged.ResidencyStats()
	if !ok {
		b.Fatal("residency tracker not armed")
	}
	if st.ResidentBytes > budget {
		b.Fatalf("post-checkpoint resident bytes %d exceed the %d budget", st.ResidentBytes, budget)
	}

	report := benchColdTierReport{
		Benchmark:          "ColdTier",
		Records:            n,
		FullyResidentBytes: fullBytes,
		MemoryBudget:       budget,
		BudgetFraction:     float64(budget) / float64(fullBytes),
		ResidentBytesMax:   st.ResidentBytes,
	}
	trackMax := func() {
		if st, ok := paged.ResidencyStats(); ok && st.ResidentBytes > report.ResidentBytesMax {
			report.ResidentBytesMax = st.ResidentBytes
		}
	}

	// Cold-hit latency: a sequential sweep over a 10%-resident set is
	// adversarial for any recency policy — nearly every read pages in
	// from the segment tier.
	b.Run("coldhit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paged.Representation(ids[i%n]); err != nil {
				b.Fatal(err)
			}
			trackMax()
		}
		report.ColdHitNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Queries/sec: the planner's indexed distance query; candidate
	// verification on the paged database reads through the residency
	// layer, on the baseline it is a pointer load.
	exemplar, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		b.Fatal(err)
	}
	const eps = 2.0
	metric := seqrep.EuclideanMetric()
	b.Run("query/paged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paged.DistanceQuery(exemplar, metric, eps); err != nil {
				b.Fatal(err)
			}
			trackMax()
		}
		report.PagedQueryNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("query/resident", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := resident.DistanceQuery(exemplar, metric, eps); err != nil {
				b.Fatal(err)
			}
		}
		report.ResidentQueryNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	st, _ = paged.ResidencyStats()
	report.ColdHitsTotal = st.ColdHits
	report.EvictionsTotal = st.Evictions
	report.UnderBudget = report.ResidentBytesMax <= budget
	if report.PagedQueryNsOp > 0 {
		report.PagedQPS = 1e9 / report.PagedQueryNsOp
	}
	if report.ResidentQueryNsOp > 0 {
		report.ResidentQPS = 1e9 / report.ResidentQueryNsOp
	}
	if report.PagedQPS > 0 && report.ResidentQPS > 0 {
		report.PagedSlowdown = report.ResidentQPS / report.PagedQPS
	}

	if !report.UnderBudget {
		b.Errorf("resident bytes peaked at %d, above the %d budget", report.ResidentBytesMax, budget)
	}
	if report.ColdHitsTotal == 0 {
		b.Error("no cold hits: the benchmark never paged")
	}
	b.ReportMetric(float64(report.ResidentBytesMax), "resident_bytes_max")
	b.ReportMetric(float64(report.ColdHitsTotal), "cold_hits")

	writeBenchReport(b, "BENCH_coldtier.json", report)
}
