package server

// BenchmarkServerQuery measures one full HTTP round trip of a planner-
// routed distance query against a 512-sequence corpus, hot (result cache
// serving at a stable generation) versus cold (cache disabled, every
// request re-executes). Both servers wrap the same database, so the gap
// is purely the cache, reported as the cache_speedup metric. Its
// hot-peaks case serves a large answer (MATCH PEAKS 2, one match per
// record) from the cache in process, with no client decoding it, so its
// ns/op and B/op are the server's cost of a hit.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"seqrep"
	"seqrep/api"
	"seqrep/client"
)

const benchCorpusN = 512

func benchServers(b *testing.B) (hotSrv *Server, hot, cold *client.Client) {
	b.Helper()
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]seqrep.BatchItem, 0, benchCorpusN)
	for i := 0; i < benchCorpusN; i++ {
		first := 5 + float64(i%8)
		s, err := seqrep.GenerateFever(seqrep.FeverOpts{
			Samples: 97, FirstPeak: first, SecondPeak: first + 5 + float64(i%5),
		})
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, seqrep.BatchItem{
			ID:  fmt.Sprintf("fever-%04d", i),
			Seq: s.ShiftValue(float64(i%100) * 0.05),
		})
	}
	if _, err := db.IngestBatch(items); err != nil {
		b.Fatal(err)
	}
	hotSrv, hot = testServer(b, Config{DB: db})
	_, cold = testServer(b, Config{DB: db, CacheSize: -1})
	return hotSrv, hot, cold
}

func BenchmarkServerQuery(b *testing.B) {
	ctx := context.Background()
	hotSrv, hot, cold := benchServers(b)
	const stmt = `MATCH DISTANCE LIKE fever-0000 METRIC l2 EPS 2`
	var hotNs, coldNs float64

	run := func(b *testing.B, c *client.Client, wantCached bool) {
		b.Helper()
		// Prime outside the timed region (fills the hot cache; for the
		// cold server, warms connections).
		res, err := c.Query(ctx, stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = c.Query(ctx, stmt); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Cached != wantCached {
			b.Fatalf("cached = %v, want %v", res.Cached, wantCached)
		}
	}

	b.Run("hot", func(b *testing.B) {
		run(b, hot, true)
		hotNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("cold", func(b *testing.B) {
		run(b, cold, false)
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if hotNs > 0 && coldNs > 0 {
		b.ReportMetric(coldNs/hotNs, "cache_speedup")
	}
	b.Run("hot-peaks", func(b *testing.B) {
		h := hotSrv.Handler()
		code, body, _ := postQuery(b, h, `MATCH PEAKS 2`) // the miss fills the cache
		var resp api.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK || len(resp.Matches) < benchCorpusN/2 {
			b.Fatalf("MATCH PEAKS 2: status %d, %d matches, %v", code, len(resp.Matches), err)
		}
		blob, _ := json.Marshal(api.QueryRequest{Query: `MATCH PEAKS 2`})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDiscard(h, blob)
		}
	})
}

// BenchmarkServerIngest measures the HTTP ingest round trip (pipeline
// included), the write-side cost a capacity plan needs next to the query
// numbers.
func BenchmarkServerIngest(b *testing.B) {
	ctx := context.Background()
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		b.Fatal(err)
	}
	_, c := testServer(b, Config{DB: db})
	s, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		b.Fatal(err)
	}
	item := api.IngestRequest{Times: s.Times(), Values: s.Values()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item.ID = fmt.Sprintf("bench-%d", i)
		if _, err := c.Ingest(ctx, item); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerQueryHotpath measures the uncached HTTP query round trip
// against a 16k-sequence corpus with the vantage-point-tree hot path on
// (default) and off (IndexLeaf < 0, the linear feature scan) — the
// serving-layer view of the engine's candidate-generation speedup. Cache
// is disabled on both servers so every request re-executes the planner.
func BenchmarkServerQueryHotpath(b *testing.B) {
	ctx := context.Background()
	const n = 16384
	items := make([]seqrep.BatchItem, 0, n)
	for i := 0; i < n; i++ {
		first := 5 + float64(i%8)
		s, err := seqrep.GenerateFever(seqrep.FeverOpts{
			Samples: 97, FirstPeak: first, SecondPeak: first + 5 + float64(i%5),
		})
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, seqrep.BatchItem{
			ID:  fmt.Sprintf("fever-%04d", i),
			Seq: s.ShiftValue(float64(i%256) * 0.2),
		})
	}
	const stmt = `MATCH DISTANCE LIKE fever-0000 METRIC l2 EPS 2`
	for _, mode := range []struct {
		name string
		leaf int
	}{{"vptree", 0}, {"linear", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := seqrep.New(seqrep.Config{IndexLeaf: mode.leaf})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.IngestBatch(items); err != nil {
				b.Fatal(err)
			}
			_, c := testServer(b, Config{DB: db, CacheSize: -1})
			res, err := c.Query(ctx, stmt) // warm: connections + trees
			if err != nil {
				b.Fatal(err)
			}
			if len(res.IDs) == 0 {
				b.Fatal("no matches")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(ctx, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
