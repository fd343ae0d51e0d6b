package seqrep_test

// BenchmarkColdTier measures beyond-RAM serving: a durable database
// whose residency budget holds ~10% of the corpus. It reports cold-hit
// (page-in) latency and paged query time, and fails if resident bytes
// ever exceed the budget or nothing paged — the gate CI's
// bench-regression step runs.
//
// The default 5000-record corpus keeps the smoke run cheap; set
// SEQREP_BENCH_100K=1 for the 100k-record acceptance configuration.

import (
	"fmt"
	"os"
	"testing"

	"seqrep"
)

// coldTierIngest fills db with n varied two-peak fever curves
// (verification reads representations, i.e. pages).
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

	// Build once without a budget, to size one from the corpus's own
	// representation footprint (the tracker's accounting formula: floats
	// + segment structs + object overhead).
	dir := b.TempDir()
	full, err := seqrep.OpenDir(dir, seqrep.Config{Workers: 16})
	if err != nil {
		b.Fatal(err)
	}
	ids := coldTierIngest(b, full, n)
	if err := full.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	rst := full.Stats()
	budget := (int64(rst.StoredFloats)*8 + int64(rst.Segments)*48 + 64*int64(rst.Sequences)) / 10
	if err := full.Close(); err != nil {
		b.Fatal(err)
	}

	// Reopen the directory under the ~10% budget: boot admits every
	// record clean, so all but the budget's worth start cold.
	paged, err := seqrep.OpenDir(dir, seqrep.Config{Workers: 16, MemoryBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	defer paged.Close()
	st, ok := paged.ResidencyStats()
	if !ok {
		b.Fatal("residency tracker not armed")
	}
	if st.ResidentBytes > budget {
		b.Fatalf("post-checkpoint resident bytes %d exceed the %d budget", st.ResidentBytes, budget)
	}

	residentMax := st.ResidentBytes
	trackMax := func() {
		if st, ok := paged.ResidencyStats(); ok && st.ResidentBytes > residentMax {
			residentMax = st.ResidentBytes
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
	})

	// Re-reads: the ids of a window five times the budget are swept twice
	// in a row (the default configuration, as above), so each second read
	// is cold again to the residency tracker although its payload was read
	// one window earlier: the reads a payload cache inside the segment
	// tier would serve, and the OS page cache serves instead. The window
	// is the second half of the ids, which a short coldhit run above
	// leaves cold.
	b.Run("coldhit/resweep", func(b *testing.B) {
		w := n / 2
		before, _ := paged.ResidencyStats()
		for i := 0; i < b.N; i++ {
			if _, err := paged.Representation(ids[w+i%(2*w)%w]); err != nil {
				b.Fatal(err)
			}
			trackMax()
		}
		after, _ := paged.ResidencyStats()
		b.ReportMetric(float64(after.ColdHits-before.ColdHits)/float64(b.N), "cold_hits/op")
	})

	// Query time: the planner's indexed distance query; candidate
	// verification reads through the residency layer.
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
	})

	st, _ = paged.ResidencyStats()
	if residentMax > budget {
		b.Errorf("resident bytes peaked at %d, above the %d budget", residentMax, budget)
	}
	if st.ColdHits == 0 {
		b.Error("no cold hits: the benchmark never paged")
	}
	b.ReportMetric(float64(residentMax), "resident_bytes_max")
	b.ReportMetric(float64(st.ColdHits), "cold_hits")
}
