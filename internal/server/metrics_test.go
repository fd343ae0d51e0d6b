package server

// The /metrics exposition: every family typed once and its samples
// contiguous, the latency histogram cumulative and in step with the
// request counter, every series the exposition has carried still there,
// /healthz and /metrics reading the same values, and the per-route
// cell recording a request without allocating.

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seqrep"
	"seqrep/client"
)

// exposition is one parsed /metrics scrape.
type exposition struct {
	kinds  map[string]string  // family → its # TYPE
	values map[string]float64 // series (name{labels}) → value
	order  []string           // series in scrape order
}

// parseExposition parses a Prometheus text scrape and fails t unless
// every family has exactly one # HELP and one # TYPE before its first
// sample, each family's samples are contiguous, and no series repeats.
func parseExposition(t *testing.T, text string) exposition {
	t.Helper()
	e := exposition{kinds: map[string]string{}, values: map[string]float64{}}
	helps := map[string]bool{}
	closed := map[string]bool{} // families whose run of lines has ended
	current := ""
	enter := func(fam, line string) {
		if fam == current {
			return
		}
		if closed[fam] {
			t.Errorf("family %s is not contiguous: %q", fam, line)
		}
		closed[current] = true
		current = fam
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			t.Errorf("blank line in the exposition")
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("short comment line %q", line)
				continue
			}
			fam := fields[2]
			enter(fam, line)
			if fields[1] == "HELP" {
				if helps[fam] {
					t.Errorf("second # HELP for %s", fam)
				}
				helps[fam] = true
			} else {
				if _, dup := e.kinds[fam]; dup {
					t.Errorf("second # TYPE for %s", fam)
				}
				e.kinds[fam] = fields[3]
			}
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Errorf("malformed sample %q", line)
				continue
			}
			series := line[:i]
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Errorf("sample %q: %v", line, err)
				continue
			}
			fam := e.family(seriesName(series))
			if !helps[fam] || e.kinds[fam] == "" {
				t.Errorf("sample %q has no # HELP and # TYPE before it", line)
			}
			enter(fam, line)
			if _, dup := e.values[series]; dup {
				t.Errorf("series %s repeats", series)
			}
			e.values[series] = v
			e.order = append(e.order, series)
		}
	}
	return e
}

// family maps a sample name to the family it belongs to: a histogram's
// _bucket, _sum and _count samples belong to the histogram.
func (e exposition) family(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && e.kinds[base] == "histogram" {
			return base
		}
	}
	return name
}

func seriesName(series string) string {
	name, _, _ := strings.Cut(series, "{")
	return name
}

// label returns the value of key in a series' label set.
func label(series, key string) string {
	_, rest, ok := strings.Cut(series, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// scrape reads /metrics through cl and parses it.
func scrape(t *testing.T, cl *client.Client) exposition {
	t.Helper()
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, text)
}

// TestMetricsExposition scrapes a durable server with a result cache,
// admission control and a memory budget after ingests, a cache hit, a
// checkpoint and a 404.
func TestMetricsExposition(t *testing.T) {
	ctx := context.Background()
	snap := &DirSnapshotter{Dir: t.TempDir(), Config: seqrep.Config{MemoryBudget: 1000}}
	db, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, cl := testServer(t, Config{DB: db, Snapshotter: snap})
	for i, id := range []string{"a", "b", "c", "d"} {
		if _, err := cl.Ingest(ctx, feverItem(t, id, i)); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := cl.Query(ctx, "MATCH PEAKS 2"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.SaveSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Record(ctx, "missing"); apiErr(t, err).StatusCode != http.StatusNotFound {
		t.Fatalf("missing record: %v, want 404", err)
	}
	e := scrape(t, cl)

	// Every series the exposition carried before the histogram, with its
	// labels; the deterministic ones with their values (-1: any value).
	const ingest, query, save, record = `endpoint="POST /v1/ingest"`, `endpoint="POST /v1/query"`,
		`endpoint="POST /v1/snapshot/save"`, `endpoint="GET /v1/records/{id}"`
	want := map[string]float64{
		`seqserved_requests_total{` + ingest + `,code="201"}`: 4,
		`seqserved_requests_total{` + query + `,code="200"}`:  2,
		`seqserved_requests_total{` + save + `,code="200"}`:   1,
		`seqserved_requests_total{` + record + `,code="404"}`: 1,
		"seqserved_cache_hits_total":                          1,
		"seqserved_cache_misses_total":                        1,
		"seqserved_cache_invalidations_total":                 0,
		"seqserved_cache_entries":                             1,
		"seqserved_generation":                                4,
		"seqserved_sequences":                                 4,
		"seqserved_admission_inflight":                        0,
		"seqserved_admission_limit":                           DefaultAdmissionLimit,
		"seqserved_admission_queued":                          0,
		"seqserved_admission_rejected_total":                  0,
		"seqserved_degraded":                                  0,
		"seqserved_degraded_transitions_total":                0,
		"seqserved_degraded_recoveries_total":                 0,
		"seqserved_wal_records":                               0,
		"seqserved_wal_bytes":                                 -1,
		"seqserved_wal_segments":                              -1,
		"seqserved_wal_syncs_total":                           -1,
		"seqserved_checkpoint_failures_total":                 0,
		"seqserved_last_checkpoint_age_seconds":               -1,
		"seqserved_segment_count":                             1,
		"seqserved_segment_entries":                           4,
		"seqserved_segment_tombstones":                        0,
		"seqserved_segment_bytes":                             -1,
		"seqserved_segment_compactions_total":                 0,
		"seqserved_resident_records":                          -1,
		"seqserved_resident_bytes":                            -1,
		"seqserved_memory_budget_bytes":                       1000,
		"seqserved_resident_pinned":                           0,
		"seqserved_evictions_total":                           -1,
		"seqserved_cold_hits_total":                           -1,
	}
	for _, ep := range []string{ingest, query, save, record} {
		want["seqserved_request_seconds_sum{"+ep+"}"] = -1
		want["seqserved_request_seconds_count{"+ep+"}"] = -1
	}
	for series, v := range want {
		got, ok := e.values[series]
		if !ok {
			t.Errorf("series %s missing", series)
		} else if v >= 0 && got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}

	// Each endpoint's buckets rise to +Inf, which is its _count, which is
	// its requests_total over every code.
	requests := map[string]float64{}
	for _, series := range e.order {
		if seriesName(series) == "seqserved_requests_total" {
			requests[label(series, "endpoint")] += e.values[series]
		}
	}
	for _, series := range e.order {
		if seriesName(series) != "seqserved_request_seconds_count" {
			continue
		}
		ep := label(series, "endpoint")
		count := e.values[series]
		if count != requests[ep] {
			t.Errorf("%s: _count %v, requests_total %v", ep, count, requests[ep])
		}
		prevLe, prev, inf := 0.0, 0.0, false
		for _, b := range e.order {
			if seriesName(b) != "seqserved_request_seconds_bucket" || label(b, "endpoint") != ep {
				continue
			}
			le, err := strconv.ParseFloat(label(b, "le"), 64)
			if err != nil || le <= prevLe {
				t.Errorf("%s: bucket bound %q after %v", ep, label(b, "le"), prevLe)
			}
			if v := e.values[b]; v < prev {
				t.Errorf("%s: bucket le=%s holds %v, below the %v before it", ep, label(b, "le"), v, prev)
			}
			prevLe, prev = le, e.values[b]
			if label(b, "le") == "+Inf" {
				inf = true
				if prev != count {
					t.Errorf("%s: +Inf bucket %v, _count %v", ep, prev, count)
				}
			}
		}
		if !inf {
			t.Errorf("%s: no le=\"+Inf\" bucket", ep)
		}
	}
}

// TestHealthMetricsAgree: on a quiescent durable server /healthz and
// /metrics report the same values, because both render one status read.
func TestHealthMetricsAgree(t *testing.T) {
	ctx := context.Background()
	snap := &DirSnapshotter{Dir: t.TempDir(), Config: seqrep.Config{MemoryBudget: 1}}
	db, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := testServer(t, Config{DB: db, Snapshotter: snap})
	for i := range 5 {
		if _, err := cl.Ingest(ctx, feverItem(t, "rec"+strconv.Itoa(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.SaveSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DB().Representation("rec0"); err != nil { // a cold hit
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ctx, feverItem(t, "late", 9)); err != nil { // one logged record
		t.Fatal(err)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e := scrape(t, cl)
	degraded := 0.0
	if h.Degraded {
		degraded = 1
	}
	for series, v := range map[string]float64{
		"seqserved_sequences":        float64(h.Sequences),
		"seqserved_generation":       float64(h.Generation),
		"seqserved_wal_records":      float64(h.WALRecords),
		"seqserved_segment_count":    float64(h.SegmentCount),
		"seqserved_resident_records": float64(h.ResidentRecords),
		"seqserved_evictions_total":  float64(h.Evictions),
		"seqserved_cold_hits_total":  float64(h.ColdHits),
		"seqserved_degraded":         degraded,
	} {
		if got, ok := e.values[series]; !ok || got != v {
			t.Errorf("/metrics %s = %v (present %v), /healthz says %v", series, got, ok, v)
		}
	}
	if h.WALRecords != 1 || h.SegmentCount == 0 || h.Evictions == 0 || h.ColdHits == 0 {
		t.Errorf("the scenario left nothing to compare: %+v", h)
	}
}

// TestMetricsScrapeAllocs: a scrape of a durable, paged server with a
// result cache and admission control, every route's histogram written,
// stays within 100 allocations: the `le` labels are formatted once, not
// once per route and scrape.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	snap := &DirSnapshotter{Dir: t.TempDir(), Config: seqrep.Config{MemoryBudget: 1000}}
	db, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := testServer(t, Config{DB: db, Snapshotter: snap})
	for i, id := range []string{"a", "b", "c"} {
		if _, err := cl.Ingest(ctx, feverItem(t, id, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Query(ctx, "MATCH PEAKS 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SaveSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &discardWriter{http.Header{}}
	n := testing.AllocsPerRun(50, func() { srv.handleMetrics(w, req) })
	t.Logf("%v allocations per scrape", n)
	if n > 100 {
		t.Errorf("a /metrics scrape allocates %v times, want at most 100", n)
	}
}

// TestRouteMetricsObserve: recording a request allocates nothing, and
// requests recorded from several goroutines while the exposition reads
// the cell are all counted, each histogram read whole.
func TestRouteMetricsObserve(t *testing.T) {
	m := &routeMetrics{}
	if n := testing.AllocsPerRun(100, func() { m.observe(http.StatusOK, 3*time.Millisecond) }); n != 0 {
		t.Errorf("observe allocates %v times per request, want 0", n)
	}

	const workers, each = 4, 500
	const ep = `endpoint="POST /v1/query"`
	m = &routeMetrics{label: ep}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				m.observe(http.StatusOK+w, time.Duration(i)*time.Millisecond)
			}
		}()
	}
	st := &status{routes: []*routeMetrics{m}}
	for range 20 {
		head := []byte("# HELP seqserved_request_seconds h\n# TYPE seqserved_request_seconds histogram\n")
		e := parseExposition(t, string(latencySamples(head, "seqserved_request_seconds", st)))
		if inf, count := e.values["seqserved_request_seconds_bucket{"+ep+`,le="+Inf"}`], e.values["seqserved_request_seconds_count{"+ep+"}"]; inf != count {
			t.Fatalf("a scrape read +Inf %v and _count %v", inf, count)
		}
	}
	wg.Wait()
	for w := range workers {
		if n := m.codes[http.StatusOK+w]; n != each {
			t.Errorf("code %d counted %d times, want %d", http.StatusOK+w, n, each)
		}
	}
	var total uint64
	for _, n := range m.buckets {
		total += n
	}
	if want := time.Duration(workers*each*(each-1)/2) * time.Millisecond; total != workers*each || m.nanos != int64(want) {
		t.Errorf("buckets hold %d requests summing %v, want %d summing %v", total, time.Duration(m.nanos), workers*each, want)
	}
}
