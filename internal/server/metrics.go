package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"seqrep/api"
)

// latencyBounds are the upper bounds, in seconds, of
// seqserved_request_seconds' buckets: from a cached answer (tens of
// microseconds) to a long scan or a checkpoint. A last, +Inf, bucket
// holds the rest.
var latencyBounds = [...]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// latencyLabels are latencyBounds as `le` label values, formatted once:
// a scrape writes every one of them for every route.
var latencyLabels = func() (ls [len(latencyBounds)]string) {
	for i, bound := range latencyBounds {
		ls[i] = strconv.FormatFloat(bound, 'g', -1, 64)
	}
	return ls
}()

// routeMetrics counts one endpoint's requests: responses by status code
// and a latency histogram. route creates it once per pattern, so
// recording a request takes this cell's lock and nothing shared. (A lock
// rather than atomics: with every core recording on one route, three
// contended atomic adds cost more than one short critical section.)
type routeMetrics struct {
	label   string // endpoint="<route pattern>": cardinality stays bounded
	mu      sync.Mutex
	codes   [1000]uint64                   // responses by status code (net/http writes 100–999)
	buckets [len(latencyBounds) + 1]uint64 // requests per bucket, not cumulative
	nanos   int64                          // summed latency
}

// observe records one handled request.
func (m *routeMetrics) observe(code int, d time.Duration) {
	i, sec := 0, d.Seconds()
	for i < len(latencyBounds) && sec > latencyBounds[i] {
		i++
	}
	m.mu.Lock()
	m.codes[code]++
	m.buckets[i]++
	m.nanos += int64(d)
	m.mu.Unlock()
}

// status is one read of every source /healthz and /metrics report: the
// database and its storage tiers, admission control, the result cache
// and the per-route counters.
type status struct {
	health api.HealthResponse
	code   int // /healthz's HTTP status
	// What only /metrics shows.
	cache       *cacheStats // nil when caching is off
	walSyncs    uint64
	transitions uint64 // entries into degraded mode
	routes      []*routeMetrics
}

// family is one exposed metric: its name, help text and kind, when it is
// present, and the samples it writes from a status read.
type family struct {
	name, help, kind string
	present          func(*status) bool // nil: always
	samples          func(b []byte, name string, st *status) []byte
}

// families is the /metrics exposition, in order. It is the one place a
// series is named.
var families = []family{
	{"seqserved_requests_total", "Handled requests by endpoint and status code.", "counter", nil, requestSamples},
	{"seqserved_request_seconds", "Request handling latency by endpoint.", "histogram", nil, latencySamples},
	{"seqserved_cache_hits_total", "Result cache hits.", "counter", cached, one(func(st *status) float64 { return float64(st.cache.hits) })},
	{"seqserved_cache_misses_total", "Result cache misses.", "counter", cached, one(func(st *status) float64 { return float64(st.cache.misses) })},
	{"seqserved_cache_invalidations_total", "Result cache entries dropped because a write moved the generation.", "counter", cached, one(func(st *status) float64 { return float64(st.cache.invalidations) })},
	{"seqserved_cache_entries", "Result cache entries held.", "gauge", cached, one(func(st *status) float64 { return float64(st.cache.entries) })},
	{"seqserved_generation", "Database mutation generation: every committed write moves it.", "gauge", nil, one(func(st *status) float64 { return float64(st.health.Generation) })},
	{"seqserved_sequences", "Sequences stored.", "gauge", nil, one(func(st *status) float64 { return float64(st.health.Sequences) })},
	{"seqserved_admission_inflight", "Weighted work currently admitted.", "gauge", admitting, one(func(st *status) float64 { return float64(st.health.Admission.Inflight) })},
	{"seqserved_admission_limit", "Weighted work admitted at once.", "gauge", admitting, one(func(st *status) float64 { return float64(st.health.Admission.Limit) })},
	{"seqserved_admission_queued", "Weighted work waiting for admission.", "gauge", admitting, one(func(st *status) float64 { return float64(st.health.Admission.Queued) })},
	{"seqserved_admission_rejected_total", "Requests shed with 429 since boot.", "counter", admitting, one(func(st *status) float64 { return float64(st.health.Admission.Rejected) })},
	{"seqserved_degraded", "Storage-fault read-only mode (1 while writes are disabled).", "gauge", nil, one(func(st *status) float64 {
		if st.health.Degraded {
			return 1
		}
		return 0
	})},
	{"seqserved_degraded_transitions_total", "Entries into degraded mode since boot.", "counter", nil, one(func(st *status) float64 { return float64(st.transitions) })},
	{"seqserved_degraded_recoveries_total", "Returns from degraded mode to write service since boot.", "counter", nil, one(func(st *status) float64 { return float64(st.health.Recoveries) })},
	{"seqserved_wal_records", "Write-ahead-log records a crash would replay.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.WALRecords) })},
	{"seqserved_wal_bytes", "Write-ahead-log bytes retained on disk.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.WALBytes) })},
	{"seqserved_wal_segments", "Write-ahead-log segment files retained.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.WALSegments) })},
	{"seqserved_wal_syncs_total", "Write-ahead-log data fsyncs since boot (appends per fsync is the group-commit size).", "counter", durable, one(func(st *status) float64 { return float64(st.walSyncs) })},
	{"seqserved_checkpoint_failures_total", "Checkpoints that failed since boot.", "counter", durable, one(func(st *status) float64 { return float64(st.health.CheckpointFailures) })},
	{"seqserved_last_checkpoint_age_seconds", "Seconds since the last completed checkpoint.", "gauge", checkpointed, one(func(st *status) float64 { return *st.health.LastCheckpointAgeSeconds })},
	{"seqserved_segment_count", "On-disk segment files in the checkpoint tier.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.SegmentCount) })},
	{"seqserved_segment_entries", "Entries across the segment files.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.SegmentEntries) })},
	{"seqserved_segment_tombstones", "Tombstones the next compaction drops.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.SegmentTombstones) })},
	{"seqserved_segment_bytes", "Bytes of the segment tier on disk.", "gauge", durable, one(func(st *status) float64 { return float64(st.health.SegmentBytes) })},
	{"seqserved_segment_compactions_total", "Segment-tier compactions since boot.", "counter", durable, one(func(st *status) float64 { return float64(st.health.Compactions) })},
	{"seqserved_resident_records", "Record payloads currently resident in RAM.", "gauge", paged, one(func(st *status) float64 { return float64(st.health.ResidentRecords) })},
	{"seqserved_resident_bytes", "Accounted bytes of the resident record payloads.", "gauge", paged, one(func(st *status) float64 { return float64(st.health.ResidentBytes) })},
	{"seqserved_memory_budget_bytes", "Byte budget for resident record payloads.", "gauge", paged, one(func(st *status) float64 { return float64(st.health.MemoryBudget) })},
	{"seqserved_resident_pinned", "Records pinned resident until a checkpoint makes them durable.", "gauge", paged, one(func(st *status) float64 { return float64(st.health.ResidentPinned) })},
	{"seqserved_evictions_total", "Payloads paged out to the segment tier since boot.", "counter", paged, one(func(st *status) float64 { return float64(st.health.Evictions) })},
	{"seqserved_cold_hits_total", "Reads that paged a payload back in from the segment tier.", "counter", paged, one(func(st *status) float64 { return float64(st.health.ColdHits) })},
}

func cached(st *status) bool       { return st.cache != nil }
func admitting(st *status) bool    { return st.health.Admission != nil }
func durable(st *status) bool      { return st.health.Durable }
func checkpointed(st *status) bool { return st.health.LastCheckpointAgeSeconds != nil }
func paged(st *status) bool        { return st.health.MemoryBudget > 0 }

// one is the samples of an unlabeled family: its single value.
func one(value func(*status) float64) func([]byte, string, *status) []byte {
	return func(b []byte, name string, st *status) []byte { return sample(b, value(st), name) }
}

// requestSamples writes each endpoint's responses by status code.
func requestSamples(b []byte, name string, st *status) []byte {
	for _, r := range st.routes {
		r.mu.Lock()
		for code, n := range r.codes {
			if n > 0 {
				b = sample(b, float64(n), name, "{", r.label, `,code="`, strconv.Itoa(code), `"}`)
			}
		}
		r.mu.Unlock()
	}
	return b
}

// latencySamples writes each endpoint's cumulative buckets, latency sum
// and count.
func latencySamples(b []byte, name string, st *status) []byte {
	for _, r := range st.routes {
		r.mu.Lock()
		var count uint64
		for i, le := range latencyLabels {
			count += r.buckets[i]
			b = sample(b, float64(count), name, "_bucket{", r.label, `,le="`, le, `"}`)
		}
		count += r.buckets[len(latencyBounds)]
		b = sample(b, float64(count), name, "_bucket{", r.label, `,le="+Inf"}`)
		b = sample(b, time.Duration(r.nanos).Seconds(), name, "_sum{", r.label, "}")
		b = sample(b, float64(count), name, "_count{", r.label, "}")
		r.mu.Unlock()
	}
	return b
}

// sample writes one sample line: its series, given in parts, and v.
func sample(b []byte, v float64, series ...string) []byte {
	b = appendStrings(b, series...)
	return append(strconv.AppendFloat(append(b, ' '), v, 'f', -1, 64), '\n')
}

// appendStrings appends every part to b.
func appendStrings(b []byte, parts ...string) []byte {
	for _, part := range parts {
		b = append(b, part...)
	}
	return b
}

// statusRecorder captures the status code a handler writes, for the
// metrics middleware. It starts at 200: a handler that writes a body
// without a header, or nothing at all, answers 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers
// (/v1/query/stream) can push NDJSON frames through the middleware.
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}
