package server

// Tests for /v1/query/stream: NDJSON framing (header → items → trailer),
// the typed client's streaming iterator, error frames, the server-side
// result cap and query timeout, and the disconnect contract — a client
// that drops mid-stream frees the handler promptly (observed through the
// request metrics, which only record a request when its handler
// returns).

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seqrep"
	"seqrep/api"
	"seqrep/client"
)

// streamServer is testServer, additionally exposing the raw base URL for
// assertions the typed client hides (headers, wire bytes).
func streamServer(t testing.TB, cfg Config) (*httptest.Server, *client.Client) {
	t.Helper()
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
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL)
}

func ingestFevers(t testing.TB, c *client.Client, n int) {
	t.Helper()
	items := make([]api.IngestRequest, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, feverItem(t, fmt.Sprintf("f-%03d", i), i))
	}
	res, err := c.IngestBatch(context.Background(), items)
	if err != nil || len(res.Failed) > 0 {
		t.Fatalf("batch ingest: %v, failed %+v", err, res)
	}
}

func TestQueryStreamEndToEnd(t *testing.T) {
	ctx := context.Background()
	ts, c := streamServer(t, Config{})
	ingestFevers(t, c, 12)

	// Raw wire check: NDJSON content type, header first, trailer last.
	res, err := http.Post(ts.URL+"/v1/query/stream", "application/json",
		strings.NewReader(`{"query":"match distance like f-000 metric l2 top 3 by distance"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	blob, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 5 { // header + 3 matches + trailer
		t.Fatalf("got %d NDJSON lines: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], `"canonical":"MATCH DISTANCE LIKE f-000 METRIC l2 TOP 3 BY DISTANCE"`) {
		t.Errorf("header = %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"done":true`) {
		t.Errorf("trailer = %s", lines[len(lines)-1])
	}

	// Typed client: nearest-first matches, trailer carries kind + stats.
	qs, err := c.StreamQuery(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 TOP 3 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	if qs.Canonical() != `MATCH DISTANCE LIKE f-000 METRIC l2 TOP 3 BY DISTANCE` {
		t.Errorf("canonical = %q", qs.Canonical())
	}
	var ids []string
	var lastDev float64
	for f, err := range qs.Frames() {
		if err != nil {
			t.Fatal(err)
		}
		if f.Match == nil {
			t.Fatalf("unexpected frame %+v", f)
		}
		dev := f.Match.Deviations["l2"]
		if dev < lastDev {
			t.Errorf("matches not nearest-first: %g after %g", dev, lastDev)
		}
		lastDev = dev
		ids = append(ids, f.Match.ID)
	}
	if len(ids) != 3 || ids[0] != "f-000" {
		t.Errorf("top-3 stream = %v", ids)
	}
	tr := qs.Trailer()
	if tr == nil || tr.Kind != "distance" || tr.Stats == nil || tr.Stats.Plan == "" {
		t.Fatalf("trailer = %+v", tr)
	}

	// The streamed answer agrees with the non-streamed endpoint's.
	direct, err := c.Query(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 TOP 3 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range direct.Matches {
		if ids[i] != m.ID {
			t.Errorf("stream order %v != direct %v", ids, direct.IDs)
			break
		}
	}

	// A pattern statement frames ids; EXPLAIN survives the trailer.
	qs2, err := c.StreamQuery(ctx, `EXPLAIN MATCH PEAKS 2 LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs2.Close()
	n := 0
	for f, err := range qs2.Frames() {
		if err != nil {
			t.Fatal(err)
		}
		if f.Match == nil {
			t.Fatalf("peaks stream frame = %+v", f)
		}
		n++
	}
	if n != 4 {
		t.Errorf("LIMIT 4 streamed %d matches", n)
	}
	// The trailer's stats must count the frames actually streamed, not
	// the stripped materialized result.
	if tr := qs2.Trailer(); tr == nil || !tr.Explain || tr.Stats == nil || tr.Stats.Matches != 4 {
		t.Fatalf("explain trailer = %+v", qs2.Trailer())
	}

	// Statement errors before any result become an error frame.
	qs3, err := c.StreamQuery(ctx, `MATCH VALUE LIKE no-such-id`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs3.Close()
	if _, err := qs3.Next(); err == nil || !strings.Contains(err.Error(), "no-such-id") {
		t.Fatalf("missing-exemplar stream error = %v", err)
	}

	// Unparseable statements still fail fast with a plain 400.
	if _, err := c.StreamQuery(ctx, `NONSENSE`); err == nil {
		t.Fatal("unparseable statement accepted")
	}
}

// TestQueryStreamProgressive pins the wire contract of the progressive
// cascade: WITHIN ERROR / APPROX statements stream Refine frames tagged
// with their quality tier, every record refines monotonically (tiers
// never regress, bands only tighten) and closes with exactly one final
// frame — the accepted finals carrying the Match in the same frame — and
// with WITHIN ERROR 0 the accepted set is bit-equal to the exact
// spelling's answer.
func TestQueryStreamProgressive(t *testing.T) {
	ctx := context.Background()
	ts, c := streamServer(t, Config{})
	ingestFevers(t, c, 12)

	// Raw wire check: refine frames carry tier + band, hi present while
	// bounded, match only on final accepts.
	res, err := http.Post(ts.URL+"/v1/query/stream", "application/json",
		strings.NewReader(`{"query":"MATCH DISTANCE LIKE f-000 METRIC l2 EPS 2 WITHIN ERROR 0"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	blob, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if !strings.Contains(lines[0], `"canonical":"MATCH DISTANCE LIKE f-000 METRIC l2 EPS 2 WITHIN ERROR 0"`) {
		t.Errorf("header = %s", lines[0])
	}
	sawRefine := false
	for _, line := range lines[1 : len(lines)-1] {
		if !strings.Contains(line, `"refine"`) {
			t.Fatalf("item frame without refine: %s", line)
		}
		sawRefine = true
		if strings.Contains(line, `"match"`) && !strings.Contains(line, `"final":true`) {
			t.Errorf("non-final frame carries a match: %s", line)
		}
	}
	if !sawRefine {
		t.Fatal("no refine frames streamed")
	}

	// Typed client: per-record monotone refinement, one final per id.
	qs, err := c.StreamQuery(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 EPS 2 WITHIN ERROR 0`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	tierRank := map[string]int{"sketch": 1, "candidate": 2, "exact": 3}
	type state struct {
		tier  int
		width float64
		final bool
	}
	seen := map[string]*state{}
	var accepted []string
	for f, err := range qs.Frames() {
		if err != nil {
			t.Fatal(err)
		}
		rf := f.Refine
		if rf == nil {
			t.Fatalf("progressive stream frame lacks refine: %+v", f)
		}
		rank, ok := tierRank[rf.Tier]
		if !ok {
			t.Fatalf("unknown tier %q", rf.Tier)
		}
		st := seen[rf.ID]
		if st == nil {
			st = &state{width: math.Inf(1)}
			seen[rf.ID] = st
		}
		if st.final {
			t.Errorf("%s: frame after final", rf.ID)
		}
		if rank < st.tier {
			t.Errorf("%s: tier regressed to %s", rf.ID, rf.Tier)
		}
		if w := rf.Width(); w > st.width {
			t.Errorf("%s: band widened %g -> %g", rf.ID, st.width, w)
		} else {
			st.width = w
		}
		st.tier = rank
		if rf.Final {
			st.final = true
			if f.Match != nil {
				if f.Match.ID != rf.ID {
					t.Errorf("final frame match id %q != refine id %q", f.Match.ID, rf.ID)
				}
				accepted = append(accepted, rf.ID)
			}
		} else if f.Match != nil {
			t.Errorf("%s: match on a non-final frame", rf.ID)
		}
	}
	for id, st := range seen {
		if !st.final {
			t.Errorf("%s: stream ended without a final frame", id)
		}
	}
	tr := qs.Trailer()
	if tr == nil || tr.Stats == nil || tr.Stats.Plan != "progressive" {
		t.Fatalf("trailer = %+v", tr)
	}

	// WITHIN ERROR 0 forces full refinement: the accepted set matches
	// the exact spelling's answer exactly.
	direct, err := c.Query(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 EPS 2`)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(accepted)
	want := append([]string(nil), direct.IDs...)
	sort.Strings(want)
	if fmt.Sprintf("%v", accepted) != fmt.Sprintf("%v", want) {
		t.Errorf("progressive accepts %v != exact matches %v", accepted, want)
	}

	// A sketch-tier cap still finalizes every record (earlier, wider).
	qs2, err := c.StreamQuery(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 EPS 2 APPROX sketch`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs2.Close()
	finals := 0
	for f, err := range qs2.Frames() {
		if err != nil {
			t.Fatal(err)
		}
		if f.Refine == nil {
			t.Fatalf("frame lacks refine: %+v", f)
		}
		if f.Refine.Tier != "sketch" {
			t.Errorf("APPROX sketch streamed tier %q", f.Refine.Tier)
		}
		if f.Refine.Final {
			finals++
		}
	}
	if finals == 0 {
		t.Error("APPROX sketch stream produced no final frames")
	}
}

// TestRefineFrameHiEncoding pins the +Inf rule: an unbounded band edge
// is omitted from the wire (JSON cannot carry Inf), and Width() reads it
// back as +Inf.
func TestRefineFrameHiEncoding(t *testing.T) {
	open := toRefineFrame(seqrep.ProgressiveMatch{
		ID: "r", Tier: seqrep.TierSketch,
		Band: seqrep.Band{Lo: 1, Hi: math.Inf(1)},
	})
	if open.Hi != nil {
		t.Fatalf("unbounded Hi encoded as %v", *open.Hi)
	}
	if !math.IsInf(open.Width(), 1) {
		t.Errorf("open band width = %v, want +Inf", open.Width())
	}
	closed := toRefineFrame(seqrep.ProgressiveMatch{
		ID: "r", Tier: seqrep.TierExact,
		Band: seqrep.Band{Lo: 1, Hi: 2.5},
	})
	if closed.Hi == nil || *closed.Hi != 2.5 {
		t.Fatalf("bounded Hi = %v, want 2.5", closed.Hi)
	}
	if w := closed.Width(); math.Abs(w-1.5) > 1e-12 {
		t.Errorf("width = %v, want 1.5", w)
	}
}

// slowPagedDB ingests n walks ("<prefix>-000"…) into a paged database —
// 1-byte budget, checkpointed, so every representation is cold — whose
// segment-tier reads cost perRead each (production's slow path); reads
// counts them.
func slowPagedDB(t *testing.T, prefix string, n int, perRead time.Duration) (db *seqrep.DB, reads *atomic.Int64) {
	t.Helper()
	db, err := seqrep.OpenDir(t.TempDir(), seqrep.Config{MemoryBudget: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(11))
	items := make([]seqrep.BatchItem, n)
	for i := range items {
		items[i] = seqrep.BatchItem{ID: fmt.Sprintf("%s-%03d", prefix, i), Seq: smoothWalk(rng, 32)}
	}
	if n, err := db.IngestBatch(items); err != nil || n != len(items) {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reads = new(atomic.Int64)
	db.SetSegmentReadFault(func() error {
		reads.Add(1)
		time.Sleep(perRead)
		return nil
	})
	return db, reads
}

// TestQueryStreamDisconnect pins the handler-release contract: a client
// that walks away mid-stream frees the handler promptly — the query's
// context aborts the scan instead of burning through the remaining
// records. Handler completion is observed through the metrics
// middleware, which records a request only when its handler returns.
func TestQueryStreamDisconnect(t *testing.T) {
	const n = 400
	db, reads := slowPagedDB(t, "s", n, 2*time.Millisecond)
	ts, c := streamServer(t, Config{DB: db})

	ctx, cancel := context.WithCancel(context.Background())
	qs, err := c.StreamQuery(ctx, `MATCH DISTANCE LIKE s-000 METRIC l2 EPS 999999`)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame so the query is demonstrably in flight, then vanish.
	if _, err := qs.Next(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	cancel()
	qs.Close()

	// The full scan would take ~400 × 2ms / 2 workers ≈ 400ms of cold
	// reads alone; a released handler shows up in the metrics much
	// sooner. Poll for the stream request being recorded.
	deadline := time.Now().Add(3 * time.Second)
	for {
		metrics, err := client.New(ts.URL).Metrics(context.Background())
		if err == nil && strings.Contains(metrics, `endpoint="POST /v1/query/stream"`) {
			break // handler returned and was observed
		}
		if time.Now().After(deadline) {
			t.Fatal("stream handler not released within 3s of client disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Not vacuous: a handler that returned because the scan finished
	// inside the deadline has paid every record's cold read.
	if got := reads.Load(); got >= n {
		t.Fatalf("handler returned after %d cold reads: the scan ran to completion", got)
	}
}

// TestQueryServerBounds covers the seqserved -query-limit / -query-timeout
// plumbing: the server-wide cap tightens unbounded statements (and the
// capped answer still caches soundly under the uncapped canonical form),
// and a statement outrunning the timeout answers 504.
func TestQueryServerBounds(t *testing.T) {
	ctx := context.Background()
	_, c := streamServer(t, Config{QueryLimit: 2})
	ingestFevers(t, c, 8)

	res, err := c.Query(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 EPS 999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("server cap returned %d matches", len(res.Matches))
	}
	if res.Stats == nil || !res.Stats.Truncated {
		t.Errorf("capped answer stats = %+v, want truncated", res.Stats)
	}
	again, err := c.Query(ctx, `MATCH DISTANCE LIKE f-000 METRIC l2 EPS 999`)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || len(again.Matches) != 2 {
		t.Errorf("capped answer did not cache: cached=%v matches=%d", again.Cached, len(again.Matches))
	}

	// Timeout: slow cold reads make the scan outrun a 10ms budget.
	db, _ := slowPagedDB(t, "t", 200, 2*time.Millisecond)
	_, slow := streamServer(t, Config{DB: db, QueryTimeout: 10 * time.Millisecond, CacheSize: -1})
	_, err = slow.Query(ctx, `MATCH DISTANCE LIKE t-000 METRIC l2 EPS 999999`)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query returned %v, want 504", err)
	}
}

// flushRecorder is a ResponseWriter that logs each Write (as the first
// characters of the line) and each Flush, in order.
type flushRecorder struct {
	h      http.Header
	events []string
}

func (r *flushRecorder) Header() http.Header { return r.h }
func (r *flushRecorder) WriteHeader(int)     {}
func (r *flushRecorder) Flush()              { r.events = append(r.events, "FLUSH") }
func (r *flushRecorder) Write(p []byte) (int, error) {
	r.events = append(r.events, string(p[:min(len(p), 10)]))
	return len(p), nil
}

// TestStreamWriterFlushesFirstMatch pins the flush rule: the header, the
// first frame carrying a match and the trailer each flush at once, and
// nothing else does while the flush interval has not elapsed.
func TestStreamWriterFlushesFirstMatch(t *testing.T) {
	rec := &flushRecorder{h: make(http.Header)}
	sw := newStreamWriter(rec)
	hi := 2.0
	frames := []*api.StreamFrame{
		{Canonical: "MATCH DISTANCE LIKE a METRIC l2 EPS 5 WITHIN ERROR 1"},
		{Refine: &api.RefineFrame{ID: "a", Tier: "sketch", Lo: 0}},
		{Refine: &api.RefineFrame{ID: "b", Tier: "sketch", Lo: 1, Hi: &hi}},
		{Refine: &api.RefineFrame{ID: "a", Tier: "exact", Lo: 0, Hi: &hi, Final: true}, Match: &api.Match{ID: "a", Exact: true}},
		{Match: &api.Match{ID: "b"}},
		{Refine: &api.RefineFrame{ID: "c", Tier: "exact", Lo: 1, Hi: &hi, Final: true}, Match: &api.Match{ID: "c"}},
		{Done: true, Kind: "distance", Generation: 3},
	}
	for _, f := range frames {
		if !sw.frame(f) {
			t.Fatalf("frame %+v refused: %v", f, sw.err)
		}
	}
	want := []string{
		`{"canonica`, "FLUSH",
		`{"refine":`, `{"refine":`,
		`{"match":{`, "FLUSH",
		`{"match":{`, `{"match":{`,
		`{"done":tr`, "FLUSH",
	}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Fatalf("writes and flushes:\n got %q\nwant %q", rec.events, want)
	}
}

// TestQueryStreamFirstMatchBeforeTrailer checks the flush rule over a
// real connection: on a database whose cold reads each take 4 ms, a
// stream's first match reaches the client while the engine is still
// verifying the rest, not with the trailer. The whole answer (24 short
// frames, ≈ 50 ms) stays under both the flush interval and the
// connection's write buffer, so only the first-match flush can deliver
// it early.
func TestQueryStreamFirstMatchBeforeTrailer(t *testing.T) {
	const perRead = 4 * time.Millisecond
	db, reads := slowPagedDB(t, "w", 24, perRead)
	_, c := streamServer(t, Config{DB: db})

	qs, err := c.StreamQuery(context.Background(), `MATCH DISTANCE LIKE w-000 METRIC l2 EPS 999999`)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	start := time.Now()
	var first time.Duration
	matches := 0
	for f, err := range qs.Frames() {
		if err != nil {
			t.Fatal(err)
		}
		if f.Match != nil && matches == 0 {
			first = time.Since(start)
		}
		if f.Match != nil {
			matches++
		}
	}
	last := time.Since(start)
	if qs.Trailer() == nil || matches != 24 {
		t.Fatalf("stream ended with %d matches, trailer %+v", matches, qs.Trailer())
	}
	t.Logf("first match after %v, trailer after %v, %d cold reads", first, last, reads.Load())
	if gap := last - first; gap < 5*perRead {
		t.Fatalf("first match arrived %v before the trailer, want ≥ %v", gap, 5*perRead)
	}
}
