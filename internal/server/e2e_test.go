package server

// The end-to-end harness of the serving subsystem: one lifecycle walking
// ingest -> distance/value/pattern queries -> EXPLAIN stats -> cache
// hit/miss across a Remove (generation invalidation) -> checkpoint ->
// a second server restarted from the data directory answering identically.
// Everything runs through the typed client over real HTTP (httptest).

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seqrep/api"
	"seqrep/client"
)

func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

func TestEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	snap := &DirSnapshotter{Dir: filepath.Join(dir, "data")}
	db, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, c := testServer(t, Config{DB: db, Snapshotter: snap})

	// ---- ingest a corpus through the batch endpoint ----
	rng := rand.New(rand.NewSource(7))
	baseA := smoothWalk(rng, 64)
	baseB := smoothWalk(rng, 64)
	var items []api.IngestRequest
	for i := 0; i < 6; i++ {
		items = append(items,
			wireItem(fmt.Sprintf("a-%02d", i), jitter(rng, baseA, 0.2)),
			wireItem(fmt.Sprintf("b-%02d", i), jitter(rng, baseB, 0.2)))
	}
	for i := 0; i < 3; i++ {
		items = append(items, wireItem(fmt.Sprintf("short-%02d", i), smoothWalk(rng, 32)))
	}
	batch, err := c.IngestBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Ingested != len(items) || len(batch.Failed) != 0 {
		t.Fatalf("batch = %+v, want all %d ingested", batch, len(items))
	}

	// ---- the query set the restarted server must reproduce ----
	statements := []string{
		`MATCH DISTANCE LIKE a-00 METRIC l2 EPS 64`,
		`MATCH DISTANCE LIKE a-00 METRIC zl2 EPS 2`,
		`MATCH VALUE LIKE a-01 EPS 8`,
		`FIND PATTERN "U+D+"`,
		`MATCH PEAKS 2 TOLERANCE 2`,
	}
	run := func(c *client.Client) map[string]*api.QueryResponse {
		out := make(map[string]*api.QueryResponse, len(statements))
		for _, stmt := range statements {
			res, err := c.Query(ctx, stmt)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			out[stmt] = res
		}
		return out
	}
	before := run(c)
	if got := before[statements[0]]; len(got.IDs) < 12 {
		t.Fatalf("wide distance query matched %d ids, want the whole length-64 corpus", len(got.IDs))
	}
	if got := before[statements[3]]; len(got.Hits) == 0 {
		t.Fatal("pattern query found no occurrences")
	}

	// ---- EXPLAIN reports the plan and its work ----
	exp, err := c.Query(ctx, `EXPLAIN MATCH DISTANCE LIKE a-00 METRIC l2 EPS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Explain || exp.Stats == nil {
		t.Fatalf("EXPLAIN response %+v lacks stats", exp)
	}
	if exp.Stats.Plan != "index" {
		t.Fatalf("EXPLAIN plan = %q, want index", exp.Stats.Plan)
	}
	if exp.Stats.Examined == 0 || exp.Stats.Candidates+exp.Stats.Pruned != exp.Stats.Examined {
		t.Fatalf("EXPLAIN stats don't add up: %+v", exp.Stats)
	}

	// ---- cache: hit, then generation-invalidated across a Remove ----
	wide := statements[0]
	hit, err := c.Query(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("repeat of an executed statement missed the cache")
	}
	if !reflect.DeepEqual(hit.IDs, before[wide].IDs) {
		t.Fatal("cached answer differs from the computed one")
	}
	victim := "b-03"
	if !contains(before[wide].IDs, victim) {
		t.Fatalf("precondition: %s should match %q", wide, victim)
	}
	if _, err := c.Remove(ctx, victim); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("query served from cache across a Remove: generation bump did not invalidate")
	}
	if contains(after.IDs, victim) {
		t.Fatalf("removed sequence %q still matches", victim)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seqserved_cache_hits_total 1", "seqserved_cache_invalidations_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics lack %q after the hit/invalidate cycle:\n%s", want, metrics)
		}
	}
	before = run(c) // the answer set the restarted server must match

	// ---- checkpoint, then restart from the directory ----
	saved, err := c.SaveSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Sequences != len(items)-1 {
		t.Fatalf("checkpoint reports %d sequences, want %d", saved.Sequences, len(items)-1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := snap.Open()
	if err != nil {
		t.Fatalf("restart: reopening the data directory: %v", err)
	}
	t.Cleanup(func() { db2.Close() })
	_, c2 := testServer(t, Config{DB: db2, Snapshotter: snap})
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sequences != saved.Sequences {
		t.Fatalf("restarted server holds %d sequences, want %d", h.Sequences, saved.Sequences)
	}
	after2 := run(c2)
	for _, stmt := range statements {
		want, got := before[stmt], after2[stmt]
		if !reflect.DeepEqual(want.IDs, got.IDs) {
			t.Errorf("%s: ids diverge across restart:\n  before %v\n  after  %v", stmt, want.IDs, got.IDs)
		}
		if !reflect.DeepEqual(want.Matches, got.Matches) {
			t.Errorf("%s: matches diverge across restart:\n  before %+v\n  after  %+v", stmt, want.Matches, got.Matches)
		}
		if !reflect.DeepEqual(want.Hits, got.Hits) {
			t.Errorf("%s: hits diverge across restart", stmt)
		}
	}

	// The restarted server keeps serving writes: the removed id is free
	// again and a re-ingest shows up in queries.
	if _, err := c2.Ingest(ctx, wireItem(victim, jitter(rng, baseB, 0.2))); err != nil {
		t.Fatalf("re-ingest after restart: %v", err)
	}
	res, err := c2.Query(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(res.IDs, victim) {
		t.Fatalf("re-ingested %q absent from %s", victim, wide)
	}
}

func contains(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
