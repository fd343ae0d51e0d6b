// Package api defines the JSON wire types of the seqrep HTTP interface.
// Both sides of the wire — the server (internal/server, cmd/seqserved)
// and the typed Go client (package client) — share these definitions, so
// the package depends on nothing but the standard library and carries no
// behavior.
//
// Endpoints (see docs/SERVER.md for examples):
//
//	POST   /v1/query          QueryRequest   -> QueryResponse
//	POST   /v1/query/stream   QueryRequest   -> NDJSON stream of StreamFrame
//	POST   /v1/ingest         IngestRequest  -> IngestResponse
//	POST   /v1/ingest/batch   BatchRequest   -> BatchResponse
//	GET    /v1/records/{id}                  -> RecordResponse
//	DELETE /v1/records/{id}                  -> RemoveResponse
//	POST   /v1/snapshot/save                 -> SnapshotResponse
//	GET    /healthz                          -> HealthResponse
//	GET    /metrics                          -> Prometheus text format
//
// Errors are returned as ErrorResponse with a non-2xx status code.
// Requests shed by admission control answer 429 with a Retry-After
// header; writes against a storage-fault degraded database answer 503,
// and /healthz keeps its JSON body while answering 503 whenever the
// server is degraded or unhealthy (docs/RELIABILITY.md).
package api

import "math"

// QueryRequest executes one query-language statement.
type QueryRequest struct {
	// Query is the statement, e.g. `MATCH DISTANCE LIKE ecg1 METRIC l2
	// EPS 3` or `EXPLAIN MATCH VALUE LIKE ecg1`.
	Query string `json:"query"`
}

// Match is one similarity-query result.
type Match struct {
	ID    string `json:"id"`
	Exact bool   `json:"exact"`
	// Deviations maps feature dimension (or metric name) to the observed
	// deviation; 0 for exact dimensions.
	Deviations map[string]float64 `json:"deviations,omitempty"`
}

// PatternHit locates one pattern occurrence inside a sequence.
type PatternHit struct {
	ID     string  `json:"id"`
	SegLo  int     `json:"seg_lo"`
	SegHi  int     `json:"seg_hi"`
	TimeLo float64 `json:"time_lo"`
	TimeHi float64 `json:"time_hi"`
}

// IntervalMatch is one result of a peak-interval query.
type IntervalMatch struct {
	ID        string    `json:"id"`
	Positions []int     `json:"positions,omitempty"`
	Intervals []float64 `json:"intervals,omitempty"`
}

// QueryStats reports how a statement executed: its plan, the work done
// and the items delivered.
type QueryStats struct {
	Query      string `json:"query"`
	Metric     string `json:"metric,omitempty"`
	Plan       string `json:"plan"`
	Examined   int    `json:"examined"`
	Candidates int    `json:"candidates"`
	Pruned     int    `json:"pruned"`
	Matches    int    `json:"matches"`
	// Sketched counts the records whose band came from their sketch (a
	// similarity statement's band tier runs under every plan).
	Sketched int `json:"sketched,omitempty"`
	// BandAccepted counts matches accepted on their error band alone,
	// without exact verification (progressive plan only).
	BandAccepted int `json:"band_accepted,omitempty"`
	// Truncated reports that a result bound (LIMIT / TOP n BY DISTANCE,
	// or the server's -query-limit cap) stopped the query early: the
	// unbounded answer may hold more matches.
	Truncated bool `json:"truncated,omitempty"`
}

// RefineFrame is one progressive refinement notice inside a
// /v1/query/stream response to a statement carrying WITHIN ERROR /
// APPROX. Each frame reports the current two-sided error band around
// one record's true distance at the quality tier that produced it:
// "candidate", the band tier (the record's sketch band, its lower edge
// lifted by the feature distance), or "exact". A record gets at most one
// band frame before its final frame. Bands for a record only ever
// tighten as the stream progresses, and the true distance always lies
// inside them. Final frames (Final true) are the record's verdict:
// accepted records additionally carry the item frame's Match in the
// same StreamFrame; rejected records end with just the band that ruled
// them out.
type RefineFrame struct {
	// ID is the record the band describes.
	ID string `json:"id"`
	// Tier is the cascade level that produced this band: "candidate"
	// or "exact".
	Tier string `json:"tier"`
	// Lo is the band's lower edge: the true distance is ≥ Lo.
	Lo float64 `json:"lo"`
	// Hi is the band's upper edge: the true distance is ≤ Hi. Nil means
	// unbounded above (no upper estimate at this tier yet).
	Hi *float64 `json:"hi,omitempty"`
	// Final marks the record's last frame: its verdict is settled and no
	// further frames for it will arrive.
	Final bool `json:"final,omitempty"`
}

// QueryResponse is the uniform answer of /v1/query.
type QueryResponse struct {
	// Kind names the query family: "pattern", "find", "peaks",
	// "interval", "value", "distance", "shape".
	Kind string `json:"kind"`
	// Canonical is the statement's canonical form — the server's cache
	// key for this result.
	Canonical string `json:"canonical"`
	// IDs are the distinct matching sequence ids.
	IDs       []string        `json:"ids"`
	Matches   []Match         `json:"matches,omitempty"`
	Hits      []PatternHit    `json:"hits,omitempty"`
	Intervals []IntervalMatch `json:"intervals,omitempty"`
	// Stats reports how the statement executed (every statement).
	Stats   *QueryStats `json:"stats,omitempty"`
	Explain bool        `json:"explain,omitempty"`
	// Generation is the database mutation generation the answer was
	// computed at; Cached reports whether it was served from the result
	// cache (always at the current generation — a mutation invalidates).
	// Cached stays the last field: the server caches each body up to its
	// value.
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
}

// StreamFrame is one NDJSON line of the /v1/query/stream response. A
// stream is: one header frame (Canonical set), zero or more item frames
// (exactly one of Match, Hit, Interval or ID set), then one trailer
// frame (Done true, with Kind, Stats and Generation) — or an error frame
// (Error set) terminating the stream early. Items stream as the engine
// produces them: similarity matches nearest-first under TOP n BY
// DISTANCE and in discovery order otherwise, the feature kinds in their
// canonical order. Streamed answers bypass the server's result cache.
type StreamFrame struct {
	// Canonical marks the header frame: the statement's canonical form
	// (the same string /v1/query would use as its cache key).
	Canonical string `json:"canonical,omitempty"`

	// Item frames: exactly one field is set — except a progressive final
	// accept, where Refine (the verdict band) and Match (the result)
	// arrive together.
	Match    *Match         `json:"match,omitempty"`
	Hit      *PatternHit    `json:"hit,omitempty"`
	Interval *IntervalMatch `json:"interval,omitempty"`
	// Refine is one progressive refinement notice (statements with
	// WITHIN ERROR / APPROX only): a tier-tagged error band around one
	// record's true distance, tightening monotonically across frames.
	Refine *RefineFrame `json:"refine,omitempty"`
	// ID carries one matching id for kinds without a richer item form
	// (MATCH PATTERN).
	ID string `json:"id,omitempty"`

	// Trailer frame.
	Done bool `json:"done,omitempty"`
	// Kind names the query family (trailer only).
	Kind string `json:"kind,omitempty"`
	// Stats reports how the statement executed (trailer).
	// Stats.Truncated marks a bounded answer.
	Stats *QueryStats `json:"stats,omitempty"`
	// Generation is the database mutation generation the answer was
	// computed at (trailer only).
	Generation uint64 `json:"generation,omitempty"`
	Explain    bool   `json:"explain,omitempty"`

	// Error terminates the stream abnormally (the HTTP status is already
	// 200 by the time a mid-stream failure can occur).
	Error string `json:"error,omitempty"`
}

// Width returns the band's current width Hi − Lo, or +Inf while the
// band is still unbounded above. It is the client-side early-stop test:
// once every open record's Width is below the caller's tolerance, the
// remaining frames can only confirm what is already known and the
// stream may be abandoned.
func (f *RefineFrame) Width() float64 {
	if f.Hi == nil {
		return math.Inf(1)
	}
	return *f.Hi - f.Lo
}

// IngestRequest stores one sequence. Times may be omitted for uniformly
// sampled values (times 0, 1, 2, ...); when present it must parallel
// Values.
type IngestRequest struct {
	ID     string    `json:"id"`
	Times  []float64 `json:"times,omitempty"`
	Values []float64 `json:"values"`
}

// IngestResponse describes the stored record.
type IngestResponse struct {
	ID       string `json:"id"`
	Samples  int    `json:"samples"`
	Segments int    `json:"segments"`
	Symbols  string `json:"symbols"`
	// Generation is the database generation after the ingest committed.
	Generation uint64 `json:"generation"`
	// Duplicate is set only by the retrying client: a retried ingest that
	// answered 409 means an earlier attempt (whose response was lost)
	// already committed this id — the operation succeeded exactly once.
	Duplicate bool `json:"duplicate,omitempty"`
}

// BatchRequest ingests many sequences through the worker pool.
type BatchRequest struct {
	Items []IngestRequest `json:"items"`
}

// BatchItemError ties one failed batch item to its position in the
// request.
type BatchItemError struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Error string `json:"error"`
}

// BatchResponse reports a batch outcome: items are independent, so a
// partial failure still ingests the rest (HTTP 207) and lists each
// failure individually.
type BatchResponse struct {
	Requested  int              `json:"requested"`
	Ingested   int              `json:"ingested"`
	Failed     []BatchItemError `json:"failed,omitempty"`
	Generation uint64           `json:"generation"`
}

// RecordResponse is the stored state of one sequence.
type RecordResponse struct {
	ID        string    `json:"id"`
	Samples   int       `json:"samples"`
	Segments  int       `json:"segments"`
	Peaks     int       `json:"peaks"`
	Symbols   string    `json:"symbols"`
	Intervals []float64 `json:"intervals,omitempty"`
}

// RemoveResponse acknowledges a DELETE.
type RemoveResponse struct {
	ID string `json:"id"`
	// Sequences is the count remaining after the removal.
	Sequences  int    `json:"sequences"`
	Generation uint64 `json:"generation"`
}

// SnapshotResponse reports a /v1/snapshot/save.
type SnapshotResponse struct {
	// Op is "checkpoint" when the server runs a durable data-dir
	// database (the save flushed the dirty records into a segment and
	// truncated the write-ahead log it just covered), "save" under an
	// embedder's own Snapshotter.
	Op        string `json:"op"`
	Sequences int    `json:"sequences"`
	// Generation is the database generation after the operation.
	Generation uint64 `json:"generation"`
	// WALRecords/WALBytes report the write-ahead log's depth after a
	// checkpoint (durable servers only; normally near zero — writes
	// committed during the checkpoint remain).
	WALRecords uint64 `json:"wal_records,omitempty"`
	WALBytes   int64  `json:"wal_bytes,omitempty"`
}

// HealthResponse is /healthz.
type HealthResponse struct {
	Status     string `json:"status"`
	Sequences  int    `json:"sequences"`
	Generation uint64 `json:"generation"`
	// Durable reports a data-dir server: writes are write-ahead-logged
	// and fsync'd before acknowledgement. The WAL* fields below are only
	// set when Durable.
	Durable bool `json:"durable,omitempty"`
	// WALRecords is the log depth: records a crash right now would
	// replay (appends since the last checkpoint).
	WALRecords uint64 `json:"wal_records,omitempty"`
	// WALBytes is the retained log size on disk.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// WALSegments is the retained log segment file count.
	WALSegments int `json:"wal_segments,omitempty"`
	// LastCheckpointAgeSeconds is the time since the last completed
	// checkpoint (at boot: since the recovered segment manifest — or
	// legacy snapshot — was written). Nil when the database has never
	// checkpointed; clamped at zero against clock skew and
	// restored-from-backup file times.
	LastCheckpointAgeSeconds *float64 `json:"last_checkpoint_age_seconds,omitempty"`
	// CheckpointFailures counts checkpoints that failed since boot. A
	// growing count alongside growing WALRecords/WALBytes means the log
	// is no longer being truncated — the unbounded-disk alarm.
	CheckpointFailures uint64 `json:"checkpoint_failures,omitempty"`
	// LastCheckpointError is the most recent checkpoint failure, cleared
	// by the next success.
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// SegmentCount/SegmentEntries/SegmentTombstones/SegmentBytes report
	// the on-disk segment tier checkpoints flush into (durable servers
	// only): live segment files, entries across them, tombstone debt
	// compaction will drop, and the tier's byte footprint.
	SegmentCount      int   `json:"segment_count,omitempty"`
	SegmentEntries    int   `json:"segment_entries,omitempty"`
	SegmentTombstones int   `json:"segment_tombstones,omitempty"`
	SegmentBytes      int64 `json:"segment_bytes,omitempty"`
	// Compactions counts segment-tier compactions run since boot.
	Compactions uint64 `json:"compactions,omitempty"`
	// MemoryBudget is the byte budget for resident record payloads
	// (servers started with -memory-budget only): cold payloads are
	// evicted to the segment tier and paged back in on demand. The
	// residency fields below are present only when a budget is set.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// ResidentRecords/ResidentBytes are the payloads currently held in
	// RAM and their accounted size.
	ResidentRecords int   `json:"resident_records,omitempty"`
	ResidentBytes   int64 `json:"resident_bytes,omitempty"`
	// ResidentPinned counts records pinned resident because they are
	// dirty (WAL-covered, not yet checkpointed) — never evictable.
	ResidentPinned int `json:"resident_pinned,omitempty"`
	// Evictions counts payloads paged out since boot; ColdHits counts
	// reads that had to page a payload back in from the segment tier.
	Evictions uint64 `json:"evictions,omitempty"`
	ColdHits  uint64 `json:"cold_hits,omitempty"`
	// CheckpointFailStreak counts consecutive checkpoint failures; the
	// next success resets it. At or above the server's tolerance
	// (-checkpoint-fail-limit) /healthz answers 503.
	CheckpointFailStreak uint64 `json:"checkpoint_fail_streak,omitempty"`
	// Degraded reports storage-fault read-only mode: a write-ahead-log
	// append or fsync failed, writes are answering 503, reads keep
	// serving, and a supervised probe is retrying the disk. /healthz
	// itself answers 503 while Degraded.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedCause is the storage fault behind the current degraded
	// episode (set only while Degraded).
	DegradedCause string `json:"degraded_cause,omitempty"`
	// DegradedSince is seconds spent in the current degraded episode.
	DegradedSince *float64 `json:"degraded_since_seconds,omitempty"`
	// Recoveries counts successful returns from degraded to write
	// service since boot.
	Recoveries uint64 `json:"recoveries,omitempty"`
	// Admission reports the server's admission-control saturation.
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// AdmissionStats is the admission controller's live saturation, reported
// in /healthz. The server bounds concurrent work by weight (a streaming
// query costs more than an ingest); requests beyond the limit wait in a
// bounded queue and overflow answers 429 with a Retry-After.
type AdmissionStats struct {
	// Limit is the total weighted concurrency the server admits.
	Limit int `json:"limit"`
	// Inflight is the weighted work currently admitted.
	Inflight int `json:"inflight"`
	// Queued is the weighted work currently waiting for admission.
	Queued int `json:"queued"`
	// QueueLimit bounds Queued; beyond it requests are rejected.
	QueueLimit int `json:"queue_limit"`
	// Rejected counts 429s answered since boot.
	Rejected uint64 `json:"rejected"`
	// Saturation is Inflight/Limit, 0..1.
	Saturation float64 `json:"saturation"`
	// PerRoute is each route's share of the limit currently admitted
	// (weight/Limit), for routes with work in flight.
	PerRoute map[string]float64 `json:"per_route,omitempty"`
}

// ErrorResponse carries any non-2xx outcome.
type ErrorResponse struct {
	Error string `json:"error"`
}
