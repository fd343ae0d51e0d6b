package server

// Unit tests of the HTTP layer: request decoding, error mapping, the
// structured batch-error response (the regression test for half-failing
// batches), record CRUD, and the canonical-form + generation behavior of
// the result cache. The end-to-end harness lives in e2e_test.go, the
// concurrency soak in soak_test.go, the storage fault injection in
// fault_test.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"seqrep"
	"seqrep/api"
	"seqrep/client"
	"seqrep/internal/core"
	"seqrep/internal/seq"
	"seqrep/internal/wal"
)

// testServer spins a server over cfg and returns a typed client wired to
// it. cfg.DB may be nil (a fresh default database is made). Its cleanup
// closes the server and then the database (Close is idempotent). After
// the last of a test's servers is closed, the test fails if a goroutine
// or a file descriptor opened since its first testServer call is left.
func testServer(t testing.TB, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if _, checked := leakChecked.LoadOrStore(t, true); !checked {
		base := leakBaseline()
		t.Cleanup(func() {
			leakChecked.Delete(t)
			checkNoLeaks(t, base)
		})
	}
	if cfg.DB == nil {
		db, err := seqrep.New(seqrep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.DB = db
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cfg.DB.Close()
	})
	return srv, client.New(ts.URL)
}

// leakChecked holds the tests whose first testServer call registered the
// leak check.
var leakChecked sync.Map

// leaks is the process's goroutine count and open file descriptors (the
// entries of /proc/self/fd, or -1 where that directory is absent). No
// server test runs in parallel, so process-wide counts are usable.
type leaks struct{ goroutines, fds int }

func leakBaseline() leaks {
	fds := -1
	if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
		fds = len(ents)
	}
	return leaks{runtime.NumGoroutine(), fds}
}

// checkNoLeaks polls until the goroutine count and the open descriptors
// are back to base, and fails with every goroutine's stack if they are
// not within 5 s.
func checkNoLeaks(t testing.TB, base leaks) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := leakBaseline()
		if now.goroutines <= base.goroutines && now.fds <= base.fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak after teardown: %d goroutines (baseline %d), %d open fds (baseline %d)\n%s",
				now.goroutines, base.goroutines, now.fds, base.fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// logIngest writes one ingest of n samples at value v under id straight
// into the write-ahead log in walDir, in the log's ingest layout (op 1:
// idLen u16 | id | n u32 | (t f64, v f64) × n), as a server that
// acknowledged it and crashed would leave it.
func logIngest(t testing.TB, walDir, id string, v float64, n int) {
	t.Helper()
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(id)))
	payload = append(payload, id...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(n))
	for i := 0; i < n; i++ {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(float64(i)))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	if _, err := w.Append(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// feverItem renders a deterministic two-peak fever curve as a wire item;
// varying i moves the peaks so items are distinct but same-length.
func feverItem(t testing.TB, id string, i int) api.IngestRequest {
	t.Helper()
	first := 5 + float64(i%8)
	s, err := seqrep.GenerateFever(seqrep.FeverOpts{
		Samples: 97, FirstPeak: first, SecondPeak: first + 5 + float64(i%5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return api.IngestRequest{ID: id, Times: s.Times(), Values: s.Values()}
}

// smoothWalk mirrors the equivalence_test.go workload helper: a random
// walk with small steps riding a slow oscillation, friendly to every
// breaker.
func smoothWalk(rng *rand.Rand, n int) seq.Sequence {
	vals := make([]float64, n)
	level := 10 * rng.Float64()
	for i := range vals {
		level += 0.4 * (rng.Float64() - 0.5)
		vals[i] = level + 3*float64(i%16)/16.0
	}
	return seq.New(vals)
}

// jitter adds per-sample noise of the given scale.
func jitter(rng *rand.Rand, s seq.Sequence, scale float64) seq.Sequence {
	out := s.Clone()
	for i := range out {
		out[i].V += scale * (rng.Float64() - 0.5)
	}
	return out
}

func wireItem(id string, s seq.Sequence) api.IngestRequest {
	return api.IngestRequest{ID: id, Times: s.Times(), Values: s.Values()}
}

func apiErr(t *testing.T, err error) *client.APIError {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not an *client.APIError", err, err)
	}
	return ae
}

func TestIngestQueryRecordRemove(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})

	ing, err := c.Ingest(ctx, feverItem(t, "two-0", 0))
	if err != nil {
		t.Fatal(err)
	}
	if ing.Samples != 97 || ing.Segments == 0 || ing.Symbols == "" {
		t.Fatalf("ingest response %+v lacks record detail", ing)
	}
	if ing.Generation == 0 {
		t.Fatal("ingest response generation = 0, want > 0")
	}
	if _, err := c.Ingest(ctx, feverItem(t, "two-1", 1)); err != nil {
		t.Fatal(err)
	}

	// Duplicate id maps to 409.
	_, err = c.Ingest(ctx, feverItem(t, "two-0", 2))
	if ae := apiErr(t, err); !ae.IsConflict() {
		t.Fatalf("duplicate ingest status = %d, want 409", ae.StatusCode)
	}

	res, err := c.Query(ctx, `MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "peaks" || len(res.IDs) != 2 {
		t.Fatalf("peaks query = %+v, want both sequences", res)
	}

	rec, err := c.Record(ctx, "two-0")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Samples != 97 || rec.Peaks != 2 {
		t.Fatalf("record = %+v, want 97 samples and 2 peaks", rec)
	}
	_, err = c.Record(ctx, "missing")
	if ae := apiErr(t, err); !ae.IsNotFound() {
		t.Fatalf("missing record status = %d, want 404", ae.StatusCode)
	}

	rm, err := c.Remove(ctx, "two-0")
	if err != nil {
		t.Fatal(err)
	}
	if rm.Sequences != 1 {
		t.Fatalf("after remove, %d sequences remain, want 1", rm.Sequences)
	}
	_, err = c.Remove(ctx, "two-0")
	if ae := apiErr(t, err); !ae.IsNotFound() {
		t.Fatalf("double remove status = %d, want 404", ae.StatusCode)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sequences != 1 {
		t.Fatalf("health = %+v, want ok with 1 sequence", h)
	}
}

// TestBatchStructuredErrors is the regression test for half-failing
// batches: every failed item must come back individually, carrying its
// request index and id, not flattened into one string.
func TestBatchStructuredErrors(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})

	if _, err := c.Ingest(ctx, feverItem(t, "taken", 0)); err != nil {
		t.Fatal(err)
	}
	batch := []api.IngestRequest{
		feverItem(t, "ok-0", 1),
		feverItem(t, "taken", 2), // 1: duplicate
		feverItem(t, "ok-1", 3),
		{ID: "mismatch", Times: []float64{0, 1}, Values: []float64{1}}, // 3: times/values disagree
		{ID: "empty"}, // 4: no values
	}
	res, err := c.IngestBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested != 5 || res.Ingested != 2 {
		t.Fatalf("batch = %+v, want requested 5 ingested 2", res)
	}
	if len(res.Failed) != 3 {
		t.Fatalf("failed = %+v, want 3 structured entries", res.Failed)
	}
	wantIdx := []int{1, 3, 4}
	wantID := []string{"taken", "mismatch", "empty"}
	for i, f := range res.Failed {
		if f.Index != wantIdx[i] || f.ID != wantID[i] {
			t.Errorf("failed[%d] = %+v, want index %d id %q", i, f, wantIdx[i], wantID[i])
		}
		if f.Error == "" {
			t.Errorf("failed[%d] has no error text", i)
		}
	}
	// The successes landed despite their neighbors failing.
	for _, id := range []string{"ok-0", "ok-1"} {
		if _, err := c.Record(ctx, id); err != nil {
			t.Errorf("batch item %q not ingested: %v", id, err)
		}
	}

	// A fully clean batch answers 200 with no failure list.
	res, err = c.IngestBatch(ctx, []api.IngestRequest{feverItem(t, "ok-2", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 1 || len(res.Failed) != 0 {
		t.Fatalf("clean batch = %+v, want 1 ingested and no failures", res)
	}
}

// TestIngestMagnitudeCap: a sample above seqrep.MaxMagnitude, whose
// squares would overflow the distance kernels, is refused with 400, alone
// or as one item of a batch.
func TestIngestMagnitudeCap(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})
	big := make([]float64, 64)
	for i := range big {
		big[i] = 1e155 * float64(1-2*(i%2))
	}
	_, err := c.Ingest(ctx, api.IngestRequest{ID: "big", Values: big})
	if ae := apiErr(t, err); ae.StatusCode != 400 {
		t.Fatalf("over-cap ingest status = %d, want 400", ae.StatusCode)
	}
	res, err := c.IngestBatch(ctx, []api.IngestRequest{feverItem(t, "ok", 0), {ID: "big", Values: big}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 1 || len(res.Failed) != 1 || res.Failed[0].Index != 1 {
		t.Fatalf("batch = %+v, want item 1 refused", res)
	}
}

func TestQueryErrorMapping(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})
	if _, err := c.Ingest(ctx, feverItem(t, "two-0", 0)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		stmt string
		code int
	}{
		{`MATCH NONSENSE 3`, 400},                      // parse error
		{`MATCH VALUE LIKE missing`, 404},              // unknown exemplar
		{`MATCH DISTANCE LIKE two-0 METRIC nope`, 422}, // unknown metric
	}
	for _, tc := range cases {
		_, err := c.Query(ctx, tc.stmt)
		if ae := apiErr(t, err); ae.StatusCode != tc.code {
			t.Errorf("%q status = %d, want %d (%s)", tc.stmt, ae.StatusCode, tc.code, ae.Message)
		}
	}
}

// TestUnencodableAnswerIsAnError pins what a server does with an answer
// JSON cannot represent (here a distance that overflowed to +Inf):
// /v1/query answers 500 with the encoder's message and caches nothing,
// and /v1/query/stream ends with an error frame instead of just stopping.
// A write refuses samples past the cap, but replay stores what the log
// holds: b at -1e200 enters through a logged ingest replayed at boot, so
// its squared distance to a at 1e100 overflows.
func TestUnencodableAnswerIsAnError(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	logIngest(t, filepath.Join(dir, core.WALDirName), "b", -1e200, 64)
	db, err := seqrep.OpenDir(dir, seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, c := testServer(t, Config{DB: db})
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = core.MaxMagnitude
	}
	if _, err := c.Ingest(ctx, api.IngestRequest{ID: "a", Values: vals}); err != nil {
		t.Fatal(err)
	}
	const stmt = `MATCH DISTANCE LIKE a METRIC l2 TOP 2 BY DISTANCE`
	for i := 0; i < 2; i++ { // the second request must not find a cached empty answer
		_, err := c.Query(ctx, stmt)
		if ae := apiErr(t, err); ae.StatusCode != 500 || !strings.Contains(ae.Message, "unsupported value") {
			t.Fatalf("request %d: status %d %q, want 500 naming the unsupported value", i, ae.StatusCode, ae.Message)
		}
	}
	if st := srv.cache.stats(); st.entries != 0 {
		t.Fatalf("an unencodable answer was cached: %+v", st)
	}

	qs, err := c.StreamQuery(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	var frames int
	for {
		f, err := qs.Next()
		if err != nil {
			if ae := apiErr(t, err); !strings.Contains(ae.Message, "unsupported value") {
				t.Fatalf("stream error frame %q, want the encoder's message", ae.Message)
			}
			break
		}
		if f == nil {
			t.Fatalf("stream ended normally after %d frames", frames)
		}
		frames++
	}
	if qs.Trailer() != nil {
		t.Fatal("a failed stream sent a trailer")
	}
}

// TestQueryCache pins the canonical-key + generation contract at the unit
// level: spelling variants share an entry, a committed mutation
// invalidates, and disabling the cache disables Cached.
func TestQueryCache(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := c.Ingest(ctx, feverItem(t, []string{"a", "b", "c"}[i], i)); err != nil {
			t.Fatal(err)
		}
	}

	first, err := c.Query(ctx, `MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution reported Cached")
	}
	// A spelling variant of the same statement must hit the same entry.
	second, err := c.Query(ctx, `  match   peaks 2 `)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("canonically equal statement missed the cache")
	}
	if second.Canonical != first.Canonical {
		t.Fatalf("canonical forms differ: %q vs %q", second.Canonical, first.Canonical)
	}

	// A mutation (remove) bumps the generation: next lookup recomputes.
	if _, err := c.Remove(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	third, err := c.Query(ctx, `MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("query served from cache across a generation bump")
	}
	if third.Generation <= first.Generation {
		t.Fatalf("generation did not advance: %d -> %d", first.Generation, third.Generation)
	}

	// The metrics expose the cache counters.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"seqserved_cache_hits_total 1",
		"seqserved_cache_invalidations_total 1",
		"seqserved_requests_total{endpoint=\"POST /v1/query\",code=\"200\"} 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q:\n%s", want, text)
		}
	}
}

// TestCacheExactVsProgressive is the regression test for cache
// separation between exact and progressive spellings of the same match:
// a cached exact answer must never be served for a WITHIN ERROR / APPROX
// statement and vice versa — the canonical forms differ, so each
// spelling owns its own cache entry, while re-runs of the same spelling
// still hit.
func TestCacheExactVsProgressive(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})
	for i, id := range []string{"a", "b", "c"} {
		if _, err := c.Ingest(ctx, feverItem(t, id, i)); err != nil {
			t.Fatal(err)
		}
	}

	const exact = `MATCH DISTANCE LIKE a METRIC l2 EPS 5`
	variants := []string{
		exact + ` WITHIN ERROR 0.25`,
		exact + ` APPROX candidate`,
		exact + ` WITHIN ERROR 0.25 APPROX candidate`,
	}

	warm, err := c.Query(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Fatal("first exact execution reported Cached")
	}
	for _, v := range variants {
		res, err := c.Query(ctx, v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if res.Cached {
			t.Errorf("%s: served the cached exact answer", v)
		}
		if res.Canonical == warm.Canonical {
			t.Errorf("%s: canonical form collapsed to the exact spelling %q", v, res.Canonical)
		}
		// The reverse direction: the progressive entry just stored must
		// not leak back into the exact spelling…
		back, err := c.Query(ctx, exact)
		if err != nil {
			t.Fatal(err)
		}
		if back.Canonical != warm.Canonical {
			t.Errorf("exact statement re-canonicalized to %q after %s", back.Canonical, v)
		}
		// …and each spelling's own re-run does hit its own entry.
		again, err := c.Query(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Errorf("%s: identical re-run missed its own cache entry", v)
		}
		if again.Canonical != res.Canonical {
			t.Errorf("%s: unstable canonical form %q vs %q", v, again.Canonical, res.Canonical)
		}
	}
	// The exact entry survived all of the progressive traffic.
	final, err := c.Query(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Cached {
		t.Fatal("exact entry evicted or clobbered by progressive statements")
	}
	// Progressive and exact spellings of the same match agree on the
	// accepted IDs (WITHIN ERROR only widens how early a record may be
	// accepted, never which records match at full refinement).
	if fmt.Sprintf("%v", final.IDs) != fmt.Sprintf("%v", warm.IDs) {
		t.Fatalf("exact IDs drifted: %v vs %v", final.IDs, warm.IDs)
	}
}

func TestCacheDisabled(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{CacheSize: -1})
	if _, err := c.Ingest(ctx, feverItem(t, "a", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := c.Query(ctx, `MATCH PEAKS 2`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("disabled cache served a hit")
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "seqserved_cache_hits_total") {
		t.Error("disabled cache still exports counters")
	}
}

// TestBodyLimit pins the request-body cap: an oversized POST answers 413
// and the server keeps serving.
func TestBodyLimit(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{MaxBodyBytes: 256})
	big := feverItem(t, "big", 0) // 97 samples × 2 float fields ≫ 256 bytes
	_, err := c.Ingest(ctx, big)
	if ae := apiErr(t, err); ae.StatusCode != 413 {
		t.Fatalf("oversized ingest status = %d, want 413", ae.StatusCode)
	}
	// Small requests still work afterwards.
	small := api.IngestRequest{ID: "s", Values: []float64{1, 2, 3, 2, 1}}
	if _, err := c.Ingest(ctx, small); err != nil {
		t.Fatalf("small ingest after 413: %v", err)
	}
}

func TestSnapshotUnconfigured(t *testing.T) {
	ctx := context.Background()
	_, c := testServer(t, Config{})
	_, err := c.SaveSnapshot(ctx)
	if ae := apiErr(t, err); !ae.IsConflict() {
		t.Fatalf("snapshot save without a store: status %d, want 409", ae.StatusCode)
	}
}
