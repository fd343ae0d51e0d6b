package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"seqrep"
	"seqrep/api"
)

// TestResultCacheKeepsFresher pins the slow-writer race: a put at an
// older generation must not clobber a same-key entry already computed at
// a newer one.
func TestResultCacheKeepsFresher(t *testing.T) {
	c := newResultCache(4)
	fresh := []byte(`{"generation":5,"cached":`)
	stale := []byte(`{"generation":3,"cached":`)

	c.put("k", 5, fresh)
	c.put("k", 3, stale) // the straggler loses
	if got := c.get("k", 5); !bytes.Equal(got, fresh) {
		t.Fatalf("get at gen 5 = %s, want the fresher entry", got)
	}
	// The other direction still updates.
	fresher := []byte(`{"generation":7,"cached":`)
	c.put("k", 7, fresher)
	if got := c.get("k", 7); !bytes.Equal(got, fresher) {
		t.Fatal("newer-generation put did not replace")
	}
}

// TestResultCacheGetSparesFresherEntry pins the read side of the
// stalled-request race: a reader holding an old generation must not
// evict a same-key entry already computed at a newer one.
func TestResultCacheGetSparesFresherEntry(t *testing.T) {
	c := newResultCache(4)
	fresh := []byte(`{"generation":6,"cached":`)
	c.put("k", 6, fresh)
	if got := c.get("k", 5); got != nil {
		t.Fatal("stale reader was served a future-generation answer")
	}
	if got := c.get("k", 6); !bytes.Equal(got, fresh) {
		t.Fatal("stale reader evicted the fresher entry")
	}
	st := c.stats()
	if st.invalidations != 0 {
		t.Fatalf("stale-reader miss counted as invalidation: %+v", st)
	}
}

// TestResultCacheLRUAndInvalidation pins capacity eviction and the
// generation invalidation bookkeeping.
func TestResultCacheLRUAndInvalidation(t *testing.T) {
	c := newResultCache(2)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), 1, []byte(`{"cached":`))
	}
	if c.get("k0", 1) != nil {
		t.Fatal("oldest entry survived past capacity")
	}
	if c.get("k2", 1) == nil {
		t.Fatal("newest entry evicted")
	}
	// Generation mismatch: evicts, counts an invalidation and a miss.
	if c.get("k2", 2) != nil {
		t.Fatal("stale-generation entry served")
	}
	if c.get("k2", 2) != nil { // really gone, not just skipped
		t.Fatal("stale entry lingered after invalidation")
	}
	st := c.stats()
	if st.invalidations != 1 || st.hits != 1 || st.entries != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation, 1 hit, 1 entry", st)
	}
}

// postQuery runs one /v1/query statement through h in process and
// returns the status, the raw body and its Content-Length header.
func postQuery(t testing.TB, h http.Handler, stmt string) (int, []byte, string) {
	t.Helper()
	blob, err := json.Marshal(api.QueryRequest{Query: stmt})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(blob)))
	return rec.Code, rec.Body.Bytes(), rec.Header().Get("Content-Length")
}

// encodeResponse is the server's encoding of resp, HTML left unescaped.
func encodeResponse(t *testing.T, resp *api.QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryResponseCachedIsLast pins the layout the cache relies on: a
// hit is the stored body up to the value of the trailing "cached" key. A
// field added after Cached must fail here rather than silently turn
// every answer uncacheable.
func TestQueryResponseCachedIsLast(t *testing.T) {
	typ := reflect.TypeOf(api.QueryResponse{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "Cached" || last.Tag.Get("json") != "cached" || last.Type.Kind() != reflect.Bool {
		t.Fatalf("last field of api.QueryResponse is %s %s `%s`, want Cached bool `json:\"cached\"`",
			last.Name, last.Type, last.Tag)
	}
	body := encodeResponse(t, &api.QueryResponse{Kind: "peaks", IDs: []string{"a"}})
	if !bytes.HasSuffix(body, missTail) {
		t.Fatalf("encoded response %s does not end in %s", body, missTail)
	}
}

// TestQueryCacheHitEqualsMiss pins that a hit serves the miss's bytes
// with only the cached value flipped, for every statement family, and
// that those bytes are what encoding the decoded answer afresh gives.
func TestQueryCacheHitEqualsMiss(t *testing.T) {
	ctx := context.Background()
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := testServer(t, Config{DB: db})
	capped, _ := testServer(t, Config{DB: db, QueryLimit: 2})
	// Ids a default json.Encoder would escape (&, <, >) prove the stored
	// bytes keep HTML unescaped.
	ids := []string{"f-0", "f-1", "f-2", "f&<3>", "f-4", "f-5"}
	for i, id := range ids {
		if _, err := c.Ingest(ctx, feverItem(t, id, i)); err != nil {
			t.Fatal(err)
		}
	}
	statements := []struct {
		stmt string
		srv  *Server
	}{
		{`MATCH PATTERN "F*U+F*D+U+D+F*"`, srv},
		{`FIND PATTERN "U+D"`, srv},
		{`MATCH PEAKS 2 TOLERANCE 1`, srv},
		{`MATCH INTERVAL 7 +- 3`, srv},
		{`MATCH DISTANCE LIKE f-0 METRIC l2 EPS 64`, srv},
		{`MATCH DISTANCE LIKE f-0 METRIC l2 TOP 3 BY DISTANCE`, srv},
		{`MATCH VALUE LIKE f-1 EPS 4`, srv},
		{`MATCH SHAPE LIKE f-2 PEAKS 0 HEIGHT 0.5 SPACING 0.5`, srv},
		{`EXPLAIN MATCH DISTANCE LIKE f-0 METRIC l2 EPS 64`, srv},
		{`MATCH PEAKS 2 TOLERANCE 1 LIMIT 3`, srv},
		{`MATCH PEAKS 2 TOLERANCE 1`, capped},
	}
	for _, tc := range statements {
		code, miss, missLen := postQuery(t, tc.srv.Handler(), tc.stmt)
		if code != http.StatusOK {
			t.Fatalf("%s: miss status %d: %s", tc.stmt, code, miss)
		}
		code, hit, hitLen := postQuery(t, tc.srv.Handler(), tc.stmt)
		if code != http.StatusOK {
			t.Fatalf("%s: hit status %d: %s", tc.stmt, code, hit)
		}
		if missLen != strconv.Itoa(len(miss)) || hitLen != strconv.Itoa(len(hit)) {
			t.Errorf("%s: Content-Length %s/%s for bodies of %d/%d bytes", tc.stmt, missLen, hitLen, len(miss), len(hit))
		}
		want := append(bytes.TrimSuffix(bytes.Clone(miss), []byte("false}\n")), "true}\n"...)
		if !bytes.HasSuffix(miss, missTail) || !bytes.Equal(hit, want) {
			t.Fatalf("%s: hit is not the miss with cached flipped:\nmiss %s\nhit  %s", tc.stmt, miss, hit)
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(hit, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("%s: second request was not a cache hit", tc.stmt)
		}
		if len(resp.IDs) == 0 {
			t.Errorf("%s: empty answer proves little", tc.stmt)
		}
		if got := encodeResponse(t, &resp); !bytes.Equal(hit, got) {
			t.Fatalf("%s: hit differs from a fresh encoding:\nhit   %s\nfresh %s", tc.stmt, hit, got)
		}
		if tc.srv == capped && (resp.Stats == nil || !resp.Stats.Truncated) {
			t.Errorf("%s: the QueryLimit cap did not bite: %s", tc.stmt, hit)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an
// allocation count sees the handler's work and not a recorder's buffer.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// serveDiscard runs one /v1/query request through h into a discardWriter.
func serveDiscard(h http.Handler, blob []byte) {
	h.ServeHTTP(&discardWriter{h: make(http.Header)},
		httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(blob)))
}

// peaksCorpus is a database of n two-peak fevers and one three-peak
// fever, so MATCH PEAKS 2 answers n ids and MATCH PEAKS 3 answers one.
func peaksCorpus(t testing.TB, n int) *seqrep.DB {
	t.Helper()
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]seqrep.BatchItem, 0, n+1)
	for i := 0; i < n; i++ {
		first := 5 + float64(i%8)
		s, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97, FirstPeak: first, SecondPeak: first + 5 + float64(i%5)})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, seqrep.BatchItem{ID: fmt.Sprintf("fever-%05d", i), Seq: s})
	}
	three, err := seqrep.GenerateThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	items = append(items, seqrep.BatchItem{ID: "three", Seq: three})
	if _, err := db.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryCacheHitAllocs pins that a hit copies stored bytes: serving
// a ~3 000-match answer allocates no more than serving a one-id answer,
// give or take a constant.
func TestQueryCacheHitAllocs(t *testing.T) {
	const n = 3000
	srv, err := New(Config{DB: peaksCorpus(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hitAllocs := func(stmt string, wantIDs int) float64 {
		code, body, _ := postQuery(t, h, stmt) // the miss fills the cache
		var resp api.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
			t.Fatalf("%s: status %d, %v", stmt, code, err)
		}
		if len(resp.IDs) != wantIDs || len(resp.Matches) != wantIDs {
			t.Fatalf("%s: %d ids, %d matches, want %d", stmt, len(resp.IDs), len(resp.Matches), wantIDs)
		}
		blob, _ := json.Marshal(api.QueryRequest{Query: stmt})
		return testing.AllocsPerRun(50, func() { serveDiscard(h, blob) })
	}
	small := hitAllocs(`MATCH PEAKS 3`, 1)
	large := hitAllocs(`MATCH PEAKS 2`, n)
	if st := srv.cache.stats(); st.hits < 100 || st.misses != 2 {
		t.Fatalf("cache stats %+v: the measured requests were not hits", st)
	}
	t.Logf("allocations per hit: one id %.0f, %d matches %.0f", small, n, large)
	if large > small+4 {
		t.Fatalf("a hit on %d matches allocates %.0f times, on one id %.0f: hits re-encode", n, large, small)
	}
}

// TestQueryCacheConcurrentHits hammers one statement from many
// goroutines while writers bump the generation: a hit must carry the
// generation current when it was served, and its body must be a body
// some miss at that generation produced, cached value aside. (Two misses
// at one generation may differ: a miss reads the generation before it
// executes, so a write committing meanwhile can show in its answer.)
func TestQueryCacheConcurrentHits(t *testing.T) {
	ctx := context.Background()
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := testServer(t, Config{DB: db})
	for i := 0; i < 4; i++ {
		if _, err := c.Ingest(ctx, feverItem(t, fmt.Sprintf("seed-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Handler()
	blob, _ := json.Marshal(api.QueryRequest{Query: `MATCH PEAKS 2`})
	const readers, writers, reads, writes = 8, 2, 150, 20

	type served struct {
		gen  uint64
		body string // with the cached value forced to false
	}
	var (
		mu           sync.Mutex
		misses, hits []served
		wg           sync.WaitGroup
	)
	errs := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				s, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
				if err == nil {
					_, err = db.IngestRecord(fmt.Sprintf("w%d-%d", w, i), s)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				before := db.Generation()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(blob)))
				after := db.Generation()
				body := rec.Body.Bytes()
				var resp api.QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d, torn body %q: %v", rec.Code, body, err)
					return
				}
				if resp.Generation < before || resp.Generation > after {
					errs <- fmt.Errorf("answer at generation %d served between %d and %d (cached %v)",
						resp.Generation, before, after, resp.Cached)
					return
				}
				mu.Lock()
				if resp.Cached {
					norm := bytes.TrimSuffix(body, []byte("true}\n"))
					hits = append(hits, served{resp.Generation, string(norm) + "false}\n"})
				} else {
					misses = append(misses, served{resp.Generation, string(body)})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no request was served from the cache")
	}
	produced := make(map[served]bool, len(misses))
	for _, m := range misses {
		produced[m] = true
	}
	for _, h := range hits {
		if !produced[h] {
			t.Fatalf("hit at generation %d is no miss's body:\n%s", h.gen, h.body)
		}
	}
}
