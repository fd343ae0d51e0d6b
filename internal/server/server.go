// Package server exposes a seqrep database over HTTP/JSON: the querylang
// surface (/v1/query, including EXPLAIN), worker-pool batch ingestion,
// record CRUD, checkpoint-on-demand, health, and Prometheus metrics. Wire
// types live in package api; a typed Go client in package client.
//
// The server holds one *seqrep.DB for its whole life and an LRU result
// cache keyed on each statement's canonical form. The cache is
// invalidated by the database's mutation generation: every committed
// Ingest/Remove bumps the generation, every cache entry remembers the
// generation it was computed at, and an entry is served only while
// those agree. Canonicalization makes the key sound — spelling
// variants of one statement share an entry — and the generation makes it
// fresh without the cache knowing which entries a write affected.
//
// Per docs/ARCHITECTURE.md, this layer calls the façade (package seqrep)
// only; it never reaches into core internals.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqrep"
	"seqrep/api"
)

// DefaultCacheSize is the result-cache capacity when Config.CacheSize is
// zero.
const DefaultCacheSize = 256

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero: large enough for six-figure batch ingests, small enough that a
// hostile POST cannot exhaust server memory.
const DefaultMaxBodyBytes = 32 << 20

// DefaultAdmissionLimit is the weighted concurrency the server admits
// when Config.AdmissionLimit is zero: 64 weight units — e.g. sixteen
// concurrent similarity queries, or eight query streams alongside
// thirty-two ingests.
const DefaultAdmissionLimit = 64

// DefaultAdmissionQueue bounds the weighted work waiting for admission
// when Config.AdmissionQueue is zero. Beyond it the server sheds load
// with 429 rather than queueing without bound.
const DefaultAdmissionQueue = 256

// DefaultCheckpointFailLimit is how many consecutive checkpoint
// failures /healthz tolerates (when Config.CheckpointFailLimit is zero)
// before reporting the node unhealthy with 503.
const DefaultCheckpointFailLimit = 3

// Config parameterizes a Server.
type Config struct {
	// DB is the database to serve (required).
	DB *seqrep.DB
	// Snapshotter enables /v1/snapshot/save; nil disables it.
	Snapshotter Snapshotter
	// CacheSize bounds the result cache in entries: 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// MaxBodyBytes caps each request body: 0 means DefaultMaxBodyBytes,
	// negative disables the cap. Oversized requests answer 413.
	MaxBodyBytes int64
	// QueryTimeout caps the execution time of each /v1/query and
	// /v1/query/stream statement (0 = no cap). A non-streamed query that
	// exceeds it answers 504; a stream emits an error frame.
	QueryTimeout time.Duration
	// QueryLimit caps the number of results any single statement may
	// return (0 = no cap): statements without their own LIMIT are
	// tightened to it server-side. Capped answers report
	// stats.truncated.
	QueryLimit int
	// AdmissionLimit bounds the weighted work served concurrently: 0
	// means DefaultAdmissionLimit, negative disables admission control.
	// Requests beyond the limit wait in a bounded queue; beyond the
	// queue they answer 429 with a Retry-After.
	AdmissionLimit int
	// AdmissionQueue bounds the weighted work waiting for admission: 0
	// means DefaultAdmissionQueue, negative means no queue (immediate
	// 429 past the limit).
	AdmissionQueue int
	// CheckpointFailLimit is the consecutive-checkpoint-failure streak
	// at which /healthz starts answering 503: 0 means
	// DefaultCheckpointFailLimit, negative disables the check.
	CheckpointFailLimit int
}

// Server is the HTTP serving layer. Create with New, mount via Handler.
// It is safe for any number of concurrent requests.
type Server struct {
	db           *seqrep.DB // fixed for the server's life
	snap         Snapshotter
	cache        *resultCache // nil when disabled
	metrics      *metricsRegistry
	mux          *http.ServeMux
	bodyLimit    int64 // 0 = unlimited
	queryTimeout time.Duration
	queryLimit   int
	admit        *admission // nil when disabled
	ckptFailMax  uint64     // 0 = streak check disabled
}

// New builds a server around cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	limit := cfg.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	if limit < 0 {
		limit = 0
	}
	s := &Server{
		db:           cfg.DB,
		snap:         cfg.Snapshotter,
		metrics:      newMetricsRegistry(),
		mux:          http.NewServeMux(),
		bodyLimit:    limit,
		queryTimeout: cfg.QueryTimeout,
		queryLimit:   cfg.QueryLimit,
	}
	if size > 0 {
		s.cache = newResultCache(size)
	}
	if cfg.AdmissionLimit >= 0 {
		al := cfg.AdmissionLimit
		if al == 0 {
			al = DefaultAdmissionLimit
		}
		aq := cfg.AdmissionQueue
		if aq == 0 {
			aq = DefaultAdmissionQueue
		}
		if aq < 0 {
			aq = 0
		}
		s.admit = newAdmission(al, aq)
	}
	switch {
	case cfg.CheckpointFailLimit == 0:
		s.ckptFailMax = DefaultCheckpointFailLimit
	case cfg.CheckpointFailLimit > 0:
		s.ckptFailMax = uint64(cfg.CheckpointFailLimit)
	}
	s.route("POST /v1/query", weightQuery, s.handleQuery)
	s.route("POST /v1/query/stream", weightStream, s.handleQueryStream)
	s.route("POST /v1/ingest", weightIngest, s.handleIngest)
	s.route("POST /v1/ingest/batch", weightBatch, s.handleIngestBatch)
	s.route("GET /v1/records/{id}", weightRecord, s.handleGetRecord)
	s.route("DELETE /v1/records/{id}", weightRecord, s.handleRemoveRecord)
	s.route("POST /v1/snapshot/save", weightSnapshot, s.handleSnapshotSave)
	s.route("GET /healthz", 0, s.handleHealth)
	s.route("GET /metrics", 0, s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// DB returns the served database.
func (s *Server) DB() *seqrep.DB { return s.db }

// Snapshot saves the current database through the configured
// snapshotter — the graceful-shutdown path of cmd/seqserved.
func (s *Server) Snapshot() error {
	if s.snap == nil {
		return fmt.Errorf("server: no snapshotter configured")
	}
	return s.snap.Save(s.DB())
}

// route mounts handler under pattern with the admission and metrics
// middleware, labeling observations by the route pattern so cardinality
// stays bounded. weight is the request's admission cost; 0 bypasses
// admission control entirely (health and metrics must answer even — and
// especially — while the server is saturated).
func (s *Server) route(pattern string, weight int, handler http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		if s.bodyLimit > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.bodyLimit)
		}
		if s.admit != nil && weight > 0 {
			release, after, err := s.admit.acquire(r.Context(), pattern, weight)
			switch {
			case errors.Is(err, errOverloaded):
				rec.Header().Set("Retry-After", strconv.Itoa(after))
				writeError(rec, http.StatusTooManyRequests, err)
			case err != nil:
				// The client hung up while queued: nobody will read the
				// response, but the metrics should not call it ours.
				writeError(rec, 499, err)
			default:
				func() {
					defer release()
					handler(rec, r)
				}()
			}
		} else {
			handler(rec, r)
		}
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.metrics.observe(pattern, rec.code, time.Since(start))
	})
}

// ---- JSON plumbing ----

// encodeJSON renders v as one line of JSON with HTML characters left
// unescaped: the form of every JSON response body. Query answers, the
// large and frequent ones, are written by wireEncoder in the same form.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON encodes v before the status line goes out, so a value JSON
// cannot represent (a non-finite float) answers 500 with the encoder's
// message rather than an empty body under code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = encodeJSON(api.ErrorResponse{Error: err.Error()}) // a string always encodes
	}
	writeBody(w, code, body)
}

// writeBody sends an encoded JSON body, given in parts, under an
// explicit Content-Length.
func writeBody(w http.ResponseWriter, code int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(code)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // the client is gone
		}
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.ErrorResponse{Error: err.Error()})
}

// decodeJSON reads one JSON body strictly (unknown fields rejected, no
// trailing garbage).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid JSON body: trailing data")
	}
	return nil
}

// decodeStatus classifies a decodeJSON failure: an oversized body (the
// route middleware's MaxBytesReader tripped) is 413, everything else 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusOf maps a database error onto an HTTP status: unknown ids are
// 404, duplicates 409, storage faults (a stored record whose comparison
// form cannot be read — the request was fine, the data layer was not)
// 500, a query that outran the server's -query-timeout 504, a request
// whose client hung up mid-query 499 (the nginx convention — nobody
// receives the response, but the metrics should not call it a client or
// server fault), everything else a client-side 422 (the request was
// well-formed JSON but the engine rejected it).
func statusOf(err error) int {
	switch {
	case errors.Is(err, seqrep.ErrDegraded):
		// Storage-fault read-only mode: not the request's fault and not a
		// bug — the node is telling load balancers and retrying clients to
		// go elsewhere until the disk recovers.
		return http.StatusServiceUnavailable
	case errors.Is(err, seqrep.ErrStorage):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, seqrep.ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, seqrep.ErrDuplicateID):
		return http.StatusConflict
	default:
		return http.StatusUnprocessableEntity
	}
}

// ---- /v1/query ----

// queryCtx derives a statement's execution context from the request:
// client disconnects cancel it, and the configured QueryTimeout bounds
// it.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.queryTimeout)
	}
	return context.WithCancel(r.Context())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	q, err := seqrep.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := q.String() // canonical form: the cache key (before the server cap)
	db := s.DB()
	// The generation is read before executing: a write committing during
	// execution bumps it, so the entry stored below can never be served
	// after that write — lookups compare against the then-current value.
	gen := db.Generation()
	if s.cache != nil {
		if body := s.cache.get(key, gen); body != nil {
			writeBody(w, http.StatusOK, body, hitValue)
			return
		}
	}
	// The server-wide result cap is a constant of this server instance,
	// so caching the capped answer under the uncapped canonical form is
	// sound: every request through this cache gets the same cap.
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	res, err := seqrep.RunQueryCtx(ctx, db, seqrep.LimitQuery(q, s.queryLimit))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	var enc wireEncoder
	body, err := enc.response(nil, toQueryResponse(res, key, gen))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if s.cache != nil && bytes.HasSuffix(body, missTail) {
		s.cache.put(key, gen, body[:len(body)-len(missValue)])
	}
	writeBody(w, http.StatusOK, body)
}

// A /v1/query body ends in Cached, the last field of api.QueryResponse:
// a miss writes missTail, the cache keeps the body up to that field's
// value, and a hit completes the stored bytes with hitValue.
const missValue = "false}\n"

var (
	missTail = []byte(`"cached":` + missValue)
	hitValue = []byte("true}\n")
)

// toQueryResponse converts an engine result into its wire form.
func toQueryResponse(res *seqrep.QueryResult, canonical string, gen uint64) *api.QueryResponse {
	resp := &api.QueryResponse{
		Kind:       res.Kind,
		Canonical:  canonical,
		IDs:        res.IDs,
		Explain:    res.Explain,
		Generation: gen,
	}
	if resp.IDs == nil {
		resp.IDs = []string{}
	}
	resp.Matches = slices.Grow(resp.Matches, len(res.Matches))
	for _, m := range res.Matches {
		resp.Matches = append(resp.Matches, api.Match{ID: m.ID, Exact: m.Exact, Deviations: m.Deviations})
	}
	resp.Hits = slices.Grow(resp.Hits, len(res.Hits))
	for _, h := range res.Hits {
		resp.Hits = append(resp.Hits, api.PatternHit{
			ID: h.ID, SegLo: h.SegLo, SegHi: h.SegHi, TimeLo: h.TimeLo, TimeHi: h.TimeHi,
		})
	}
	resp.Intervals = slices.Grow(resp.Intervals, len(res.Intervals))
	for _, iv := range res.Intervals {
		resp.Intervals = append(resp.Intervals, api.IntervalMatch{
			ID: iv.ID, Positions: iv.Positions, Intervals: iv.Intervals,
		})
	}
	if res.Stats != nil {
		resp.Stats = toAPIStats(res.Stats)
	}
	return resp
}

// toAPIStats converts engine query stats into their wire form.
func toAPIStats(st *seqrep.QueryStats) *api.QueryStats {
	return &api.QueryStats{
		Query:        st.Query,
		Metric:       st.Metric,
		Plan:         st.Plan,
		Examined:     st.Examined,
		Candidates:   st.Candidates,
		Pruned:       st.Pruned,
		Matches:      st.Matches,
		Sketched:     st.Sketched,
		BandAccepted: st.BandAccepted,
		Truncated:    st.Truncated,
	}
}

// ---- /v1/ingest ----

// toSequence builds the engine sequence an IngestRequest describes.
func toSequence(item api.IngestRequest) (seqrep.Sequence, error) {
	if item.Times == nil {
		return seqrep.NewSequence(item.Values), nil
	}
	return seqrep.NewSequenceFromSamples(item.Times, item.Values)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req api.IngestRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	seqv, err := toSequence(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	db := s.DB()
	rec, err := db.IngestRecord(req.ID, seqv)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, api.IngestResponse{
		ID:         req.ID,
		Samples:    rec.N,
		Segments:   rec.NumSegments(),
		Symbols:    rec.Profile.Symbols,
		Generation: db.Generation(),
	})
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	// Items whose sequence cannot even be constructed (times/values
	// length mismatch) fail up front; the rest go through the worker
	// pool. Indexes in the response always refer to the request order.
	items := make([]seqrep.BatchItem, 0, len(req.Items))
	requestIndex := make([]int, 0, len(req.Items))
	var failed []api.BatchItemError
	for i, item := range req.Items {
		sv, err := toSequence(item)
		if err != nil {
			failed = append(failed, api.BatchItemError{Index: i, ID: item.ID, Error: err.Error()})
			continue
		}
		items = append(items, seqrep.BatchItem{ID: item.ID, Seq: sv})
		requestIndex = append(requestIndex, i)
	}
	db := s.DB()
	n, itemErrs := db.IngestBatchItems(items)
	for _, ie := range itemErrs {
		failed = append(failed, api.BatchItemError{
			Index: requestIndex[ie.Index],
			ID:    ie.ID,
			Error: ie.Err.Error(),
		})
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Index < failed[j].Index })
	resp := api.BatchResponse{
		Requested:  len(req.Items),
		Ingested:   n,
		Failed:     failed,
		Generation: db.Generation(),
	}
	code := http.StatusOK
	if len(failed) > 0 {
		code = http.StatusMultiStatus
	}
	writeJSON(w, code, resp)
}

// ---- /v1/records/{id} ----

func (s *Server) handleGetRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.DB().Record(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", seqrep.ErrUnknownID, id))
		return
	}
	writeJSON(w, http.StatusOK, api.RecordResponse{
		ID:        rec.ID,
		Samples:   rec.N,
		Segments:  rec.NumSegments(),
		Peaks:     len(rec.Profile.Peaks),
		Symbols:   rec.Profile.Symbols,
		Intervals: rec.Profile.Intervals,
	})
}

func (s *Server) handleRemoveRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	db := s.DB()
	if err := db.Remove(id); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, api.RemoveResponse{
		ID:         id,
		Sequences:  db.Len(),
		Generation: db.Generation(),
	})
}

// ---- /v1/snapshot ----

func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	if s.snap == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("no snapshot store configured"))
		return
	}
	db := s.DB()
	if err := s.snap.Save(db); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := api.SnapshotResponse{
		Op:         "save",
		Sequences:  db.Len(),
		Generation: db.Generation(),
	}
	// Against a durable database the save ran as a checkpoint: name it,
	// and report the (freshly truncated) log depth.
	if st, ok := db.WALStats(); ok {
		resp.Op = "checkpoint"
		resp.WALRecords = st.Records
		resp.WALBytes = st.Bytes
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- health + metrics ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	resp := api.HealthResponse{
		Status:     "ok",
		Sequences:  db.Len(),
		Generation: db.Generation(),
	}
	code := http.StatusOK
	if st, ok := db.WALStats(); ok {
		resp.Durable = true
		resp.WALRecords = st.Records
		resp.WALBytes = st.Bytes
		resp.WALSegments = st.Segments
		resp.CheckpointFailures = st.CheckpointFailures
		resp.CheckpointFailStreak = st.CheckpointFailStreak
		resp.LastCheckpointError = st.LastCheckpointError
		if !st.LastCheckpoint.IsZero() {
			age := checkpointAge(st.LastCheckpoint)
			resp.LastCheckpointAgeSeconds = &age
		}
		// A checkpoint-failure streak means the log is no longer being
		// truncated: the node still serves, but it must stop reporting
		// healthy before the disk fills.
		if s.ckptFailMax > 0 && st.CheckpointFailStreak >= s.ckptFailMax {
			resp.Status = "unhealthy"
			code = http.StatusServiceUnavailable
		}
	}
	deg := db.DegradedStatus()
	resp.Recoveries = deg.Recoveries
	if deg.Degraded {
		resp.Status = "degraded"
		resp.Degraded = true
		resp.DegradedCause = deg.Cause
		if !deg.Since.IsZero() {
			since := checkpointAge(deg.Since)
			resp.DegradedSince = &since
		}
		code = http.StatusServiceUnavailable
	}
	if s.admit != nil {
		st := s.admit.stats()
		resp.Admission = &st
	}
	if st, ok := db.SegmentStats(); ok {
		resp.SegmentCount = st.Segments
		resp.SegmentEntries = st.Entries
		resp.SegmentTombstones = st.Tombstones
		resp.SegmentBytes = st.Bytes
		resp.Compactions = st.Compactions
	}
	if st, ok := db.ResidencyStats(); ok {
		resp.MemoryBudget = st.MemoryBudget
		resp.ResidentRecords = st.ResidentRecords
		resp.ResidentBytes = st.ResidentBytes
		resp.ResidentPinned = st.Pinned
		resp.Evictions = st.Evictions
		resp.ColdHits = st.ColdHits
	}
	// Load balancers and probes read the status code; humans and tests
	// read the body — both are always present.
	writeJSON(w, code, resp)
}

// boolGauge renders a boolean as a 0/1 Prometheus gauge value.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkpointAge is time.Since clamped at zero: boot stamps the last
// checkpoint from a file's modification time, which a restore-from-backup
// or clock skew can place in the future — a negative age would read as
// nonsense (and trip naive freshness alerts), so it floors to "just now".
func checkpointAge(t time.Time) float64 {
	age := time.Since(t).Seconds()
	if age < 0 {
		return 0
	}
	return age
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	var b strings.Builder
	s.metrics.render(&b)
	if s.cache != nil {
		st := s.cache.stats()
		fmt.Fprintf(&b, "# HELP seqserved_cache_hits_total Result cache hits.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_cache_hits_total counter\n")
		fmt.Fprintf(&b, "seqserved_cache_hits_total %d\n", st.hits)
		fmt.Fprintf(&b, "seqserved_cache_misses_total %d\n", st.misses)
		fmt.Fprintf(&b, "seqserved_cache_invalidations_total %d\n", st.invalidations)
		fmt.Fprintf(&b, "seqserved_cache_entries %d\n", st.entries)
	}
	fmt.Fprintf(&b, "seqserved_generation %d\n", db.Generation())
	fmt.Fprintf(&b, "seqserved_sequences %d\n", db.Len())
	if s.admit != nil {
		st := s.admit.stats()
		fmt.Fprintf(&b, "# HELP seqserved_admission_inflight Weighted work currently admitted.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_admission_inflight gauge\n")
		fmt.Fprintf(&b, "seqserved_admission_inflight %d\n", st.Inflight)
		fmt.Fprintf(&b, "seqserved_admission_limit %d\n", st.Limit)
		fmt.Fprintf(&b, "# HELP seqserved_admission_queued Weighted work waiting for admission.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_admission_queued gauge\n")
		fmt.Fprintf(&b, "seqserved_admission_queued %d\n", st.Queued)
		fmt.Fprintf(&b, "# HELP seqserved_admission_rejected_total Requests shed with 429 since boot.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_admission_rejected_total counter\n")
		fmt.Fprintf(&b, "seqserved_admission_rejected_total %d\n", st.Rejected)
	}
	deg := db.DegradedStatus()
	fmt.Fprintf(&b, "# HELP seqserved_degraded Storage-fault read-only mode (1 while writes are disabled).\n")
	fmt.Fprintf(&b, "# TYPE seqserved_degraded gauge\n")
	fmt.Fprintf(&b, "seqserved_degraded %d\n", boolGauge(deg.Degraded))
	fmt.Fprintf(&b, "seqserved_degraded_transitions_total %d\n", deg.Transitions)
	fmt.Fprintf(&b, "seqserved_degraded_recoveries_total %d\n", deg.Recoveries)
	if st, ok := db.WALStats(); ok {
		fmt.Fprintf(&b, "# HELP seqserved_wal_records Write-ahead-log records a crash would replay.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_wal_records gauge\n")
		fmt.Fprintf(&b, "seqserved_wal_records %d\n", st.Records)
		fmt.Fprintf(&b, "seqserved_wal_bytes %d\n", st.Bytes)
		fmt.Fprintf(&b, "seqserved_wal_segments %d\n", st.Segments)
		fmt.Fprintf(&b, "# HELP seqserved_checkpoint_failures_total Checkpoints that failed since boot.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_checkpoint_failures_total counter\n")
		fmt.Fprintf(&b, "seqserved_checkpoint_failures_total %d\n", st.CheckpointFailures)
		if !st.LastCheckpoint.IsZero() {
			fmt.Fprintf(&b, "seqserved_last_checkpoint_age_seconds %g\n", checkpointAge(st.LastCheckpoint))
		}
	}
	if st, ok := db.SegmentStats(); ok {
		fmt.Fprintf(&b, "# HELP seqserved_segment_count On-disk segment files in the checkpoint tier.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_segment_count gauge\n")
		fmt.Fprintf(&b, "seqserved_segment_count %d\n", st.Segments)
		fmt.Fprintf(&b, "seqserved_segment_entries %d\n", st.Entries)
		fmt.Fprintf(&b, "seqserved_segment_tombstones %d\n", st.Tombstones)
		fmt.Fprintf(&b, "seqserved_segment_bytes %d\n", st.Bytes)
		fmt.Fprintf(&b, "# HELP seqserved_segment_compactions_total Segment-tier compactions since boot.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_segment_compactions_total counter\n")
		fmt.Fprintf(&b, "seqserved_segment_compactions_total %d\n", st.Compactions)
		fmt.Fprintf(&b, "seqserved_segment_cache_hits_total %d\n", st.Cache.Hits)
		fmt.Fprintf(&b, "seqserved_segment_cache_misses_total %d\n", st.Cache.Misses)
		fmt.Fprintf(&b, "seqserved_segment_cache_bytes %d\n", st.Cache.Bytes)
	}
	if st, ok := db.ResidencyStats(); ok {
		fmt.Fprintf(&b, "# HELP seqserved_resident_records Record payloads currently resident in RAM.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_resident_records gauge\n")
		fmt.Fprintf(&b, "seqserved_resident_records %d\n", st.ResidentRecords)
		fmt.Fprintf(&b, "seqserved_resident_bytes %d\n", st.ResidentBytes)
		fmt.Fprintf(&b, "seqserved_memory_budget_bytes %d\n", st.MemoryBudget)
		fmt.Fprintf(&b, "seqserved_resident_pinned %d\n", st.Pinned)
		fmt.Fprintf(&b, "# HELP seqserved_evictions_total Payloads paged out to the segment tier since boot.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_evictions_total counter\n")
		fmt.Fprintf(&b, "seqserved_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(&b, "# HELP seqserved_cold_hits_total Reads that paged a payload back in from the segment tier.\n")
		fmt.Fprintf(&b, "# TYPE seqserved_cold_hits_total counter\n")
		fmt.Fprintf(&b, "seqserved_cold_hits_total %d\n", st.ColdHits)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
