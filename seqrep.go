// Package seqrep is a sequence database built on approximate
// representations, reproducing Shatkay & Zdonik, "Approximate Queries and
// Representations for Large Data Sequences" (ICDE 1996).
//
// Instead of storing raw samples, seqrep breaks each sequence into
// meaningful subsequences (at the points where behaviour changes) and
// stores one fitted real-valued function per subsequence. Features of
// interest — slope signs, peaks, peak-to-peak intervals — are read off the
// functions, powering generalized approximate queries: queries that denote
// a whole class of sequences closed under feature-preserving
// transformations (time/amplitude shift, dilation, contraction, bounded
// noise) rather than a single sequence with a ±ε band.
//
// # Quick start
//
//	db, err := seqrep.New(seqrep.Config{})     // paper defaults
//	...
//	err = db.Ingest("patient-7", temperatures) // break + represent + index
//	ids, err := db.MatchPattern(seqrep.TwoPeakPattern()) // goal-post fever
//
// The main entry points:
//
//   - DB: the database (New in memory, OpenDir persistent); Ingest,
//     IngestBatch (built on a worker pool, one write-ahead fsync per
//     batch), Remove, Raw,
//     Reconstruct. The DB is sharded internally and safe for fully
//     concurrent use; Config.Shards and Config.Workers tune the
//     parallelism.
//   - Queries: ValueQuery (prior-art ±ε matching), DistanceQuery (any
//     named distance metric), MatchPattern / SearchPattern (slope-sign
//     regular expressions), PeakCount, IntervalQuery (inverted-index
//     interval search), ShapeQuery (generalized approximate query with
//     per-dimension tolerances). Every query reads the stored
//     representation only: ValueQuery and DistanceQuery compare against
//     its reconstruction, in every configuration. Config.Archive keeps
//     the originals for Raw(id) and answers nothing. ValueQuery and
//     DistanceQuery are routed through a query planner: metrics with a
//     DFT feature-space lower
//     bound (l2, zl2, the ±ε band) generate candidates through a
//     columnar feature store searched by vantage-point trees — sub-linear
//     in the stored population, with guaranteed zero false dismissals —
//     before exact early-abandoning verification; everything else runs
//     as a shard-parallel scan. The *Ctx variants (ValueQueryCtx,
//     DistanceQueryCtx) also report the chosen plan and its examined/
//     candidate/pruned counts; Config.IndexCoeffs sizes the index
//     (negative disables it) and Config.IndexLeaf tunes the trees
//     (negative pins the linear feature scan). See docs/PERFORMANCE.md.
//   - Bounded, cancellable, streaming queries: one QuerySpec (family,
//     exemplar, metric, pattern, tolerances) runs under a context and
//     QueryOptions — streamed through a yield callback (DB.Query), as
//     a Go 1.23 iterator (DB.QuerySeq), or, for the similarity
//     families, as a progressive cascade of tightening error bands
//     (DB.QueryProgressive); DistanceQueryCtx, ValueQueryCtx and
//     ShapeQueryCtx are the materialized per-family helpers, and
//     MatchPattern, SearchPattern, PeakCount and IntervalQuery collect
//     the feature families the same way. QueryOptions.Limit stops after
//     N matches; QueryOptions.TopK returns the K nearest, feeding the
//     best-so-far distance back into the index as a shrinking pruning
//     radius. Cancelling the context aborts the scan, tree traversal
//     and verification fan-out promptly with no goroutine leaks.
//   - Distance kernels: Metric, MetricByName, and the EuclideanMetric /
//     ManhattanMetric / ChebyshevMetric / ZEuclideanMetric constructors
//     over the internal/dist kernel layer.
//   - Breaking algorithms: NewInterpolationBreaker (the paper's preferred
//     variant, breaks at extrema), NewRegressionBreaker, NewBezierBreaker,
//     NewDPBreaker (O(n²) optimal), NewOnlineBreaker (streaming).
//   - Generators: GenerateFever, GenerateECG, GenerateSeismic,
//     GenerateStock reproduce the paper's evaluation workloads.
package seqrep

import (
	"context"

	"seqrep/internal/breaking"
	"seqrep/internal/core"
	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/filter"
	"seqrep/internal/fit"
	"seqrep/internal/pattern"
	"seqrep/internal/querylang"
	"seqrep/internal/rep"
	"seqrep/internal/resident"
	"seqrep/internal/segment"
	"seqrep/internal/seq"
	"seqrep/internal/store"
)

// Core data types, aliased from the internal packages so downstream code
// names everything through this package.
type (
	// Point is a single (time, value) sample.
	Point = seq.Point
	// Sequence is an ordered series of samples.
	Sequence = seq.Sequence
	// Config parameterizes a database; the zero value gives the paper's
	// defaults.
	Config = core.Config
	// DB is the sequence database.
	DB = core.DB
	// Record is the stored state of one ingested sequence.
	Record = core.Record
	// BatchItem names one sequence of a concurrent batch ingest
	// (DB.IngestBatch).
	BatchItem = core.BatchItem
	// ItemError ties one failed batch item to its position and id
	// (DB.IngestBatchItems; the joined error of DB.IngestBatch unwraps to
	// these via errors.As).
	ItemError = core.ItemError
	// Metric is a named distance kernel usable with DB.DistanceQuery.
	Metric = dist.Metric
	// Match is one query result with per-dimension deviations.
	Match = core.Match
	// QueryStats reports how a planner-routed query executed: the chosen
	// plan (index, scan or progressive), its examined/candidate/pruned
	// counts, and whether a result bound truncated the answer (DB.Query
	// and its variants, the *Ctx helpers, EXPLAIN statements).
	QueryStats = core.QueryStats
	// QuerySpec states one query — family (FamilyDistance, FamilyValue,
	// FamilyShape, or the paper's feature families FamilyPattern,
	// FamilyFind, FamilyPeaks, FamilyInterval), exemplar, metric,
	// pattern, counts and tolerances — for DB.Query, DB.QuerySeq and
	// (similarity families) DB.QueryProgressive.
	QuerySpec = core.QuerySpec
	// QueryOptions bounds a similarity query's answer: Limit stops after
	// N matches, TopK keeps the K nearest (ordered by distance, with
	// best-so-far pruning fed back into the index search). Accepted by
	// DB.Query, DB.QuerySeq, DB.QueryProgressive and the *Ctx helpers.
	QueryOptions = core.QueryOptions
	// Tier names one quality level of the progressive cascade: TierSketch,
	// TierCandidate, TierExact (TierNone = no cap).
	Tier = core.Tier
	// Band is a two-sided error interval around a record's true distance;
	// progressive refinement only ever tightens it.
	Band = core.Band
	// ProgressiveMatch is one frame of a progressive query: the record's
	// current band, the tier that produced it, and — on final accepted
	// frames — the Match itself.
	ProgressiveMatch = core.ProgressiveMatch
	// IntervalMatch is one result of an interval query.
	IntervalMatch = core.IntervalMatch
	// PatternHit locates a pattern occurrence inside a sequence.
	PatternHit = core.PatternHit
	// ShapeTolerance holds per-dimension tolerances for ShapeQuery.
	ShapeTolerance = core.ShapeTolerance
	// FunctionSeries is the compact representation of one sequence.
	FunctionSeries = rep.FunctionSeries
	// RepSegment is one represented subsequence.
	RepSegment = rep.Segment
	// Peak is one detected peak with its Table 1 bookkeeping.
	Peak = feature.Peak
	// Profile bundles the features extracted from one representation.
	Profile = feature.Profile
	// Breaker segments sequences.
	Breaker = breaking.Breaker
	// Segment is one subsequence produced by a Breaker.
	Segment = breaking.Segment
	// Fitter fits one curve family to points.
	Fitter = fit.Fitter
	// Curve is a fitted real-valued function of time.
	Curve = fit.Curve
	// PreprocessChain is an ordered preprocessing pipeline.
	PreprocessChain = filter.Chain
	// Archive keeps raw sequences for DB.Raw; no query reads it.
	Archive = store.Archive
)

// Sentinel errors re-exported for errors.Is branching.
var (
	// ErrDuplicateID reports an Ingest under an already-taken id.
	ErrDuplicateID = core.ErrDuplicateID
	// ErrUnknownID reports an operation on an id the database lacks.
	ErrUnknownID = core.ErrUnknownID
	// ErrStorage reports a server-side storage fault: a stored record's
	// representation could not be paged in or reconstructed for a query,
	// or an archive write or delete failed.
	ErrStorage = core.ErrStorage
	// ErrDegraded reports a write rejected because the database is in
	// storage-fault read-only mode (DB.DegradedStatus, DB.Recover).
	ErrDegraded = core.ErrDegraded
)

// New creates a database. A zero Config reproduces the paper's setup:
// interpolation breaking with ε = 0.5, slope threshold δ = 0.25, unit
// interval buckets, no preprocessing, no archive. The database lives in
// memory only; OpenDir is the persistent form.
func New(cfg Config) (*DB, error) { return core.New(cfg) }

// OpenDir opens (creating if needed) a durable database rooted at a data
// directory (layout: dir/segments/ + dir/wal/). It recovers the on-disk
// segment tier plus the write-ahead-log tail to the exact acknowledged
// pre-crash state — truncating a torn final record, skipping records the
// segments already cover — and leaves the log attached: every
// subsequent Ingest/Remove is appended and fsync'd (group-committed
// across concurrent writers) before it is acknowledged. DB.Checkpoint
// flushes only the records mutated since the last checkpoint into a new
// immutable segment (O(delta), not O(database)) and compacts the tier
// at Config.CompactThreshold; release the log and segment files with
// DB.Close. When the directory already holds a checkpoint, its stored
// scalar parameters (ε, δ, bucket width, index and sketch sizes) win
// over cfg's; breaker, representer, preprocessing and archive always
// come from cfg. See docs/DURABILITY.md and docs/STORAGE.md.
func OpenDir(dir string, cfg Config) (*DB, error) { return core.OpenDir(dir, cfg) }

// WALStats describes a durable database's write-ahead-log depth
// (DB.WALStats): records/bytes a crash would replay, the last checkpoint
// time, and the checkpoint failure counter + last error health probes
// watch for unbounded log growth.
type WALStats = core.WALStats

// SegmentStats describes a durable database's on-disk segment tier
// (DB.SegmentStats): segment/entry/tombstone counts, byte footprint,
// compactions run, and the payload cache's occupancy and hit rates.
type SegmentStats = segment.Stats

// ResidencyStats reports the residency subsystem's paging counters
// (DB.ResidencyStats, durable databases with Config.MemoryBudget > 0):
// resident payload count and bytes against the budget, pinned (dirty)
// records, and the eviction / cold-hit totals. See docs/STORAGE.md
// "Residency & paging".
type ResidencyStats = resident.Stats

// RecoveryStats reports what OpenDir's boot-time replay did
// (DB.Recovery).
type RecoveryStats = core.RecoveryStats

// DegradedStatus describes storage-fault read-only mode
// (DB.DegradedStatus): whether writes are disabled, the fault that
// caused it, and the transition counters.
type DegradedStatus = core.DegradedStatus

// QueryResult is the uniform answer of a textual query.
type QueryResult = querylang.Result

// ExecQuery parses and runs one statement of the textual query language
// against db. The language covers every query type, each optionally
// bounded by trailing LIMIT / TOP n BY DISTANCE clauses:
//
//	MATCH PATTERN "UF*D(F|D)*UF*D"
//	FIND PATTERN "U+D+"
//	MATCH PEAKS 2 TOLERANCE 1
//	MATCH INTERVAL 135 +- 2
//	MATCH VALUE LIKE ecg1 EPS 0.5
//	MATCH DISTANCE LIKE ecg1 METRIC zl2 EPS 3
//	MATCH DISTANCE LIKE ecg1 EPS 3 WITHIN ERROR 0.5
//	MATCH VALUE LIKE ecg1 EPS 0.5 APPROX sketch
//	MATCH DISTANCE LIKE ecg1 TOP 10 BY DISTANCE
//	MATCH SHAPE LIKE exemplar HEIGHT 0.25 SPACING 0.3
//	MATCH PEAKS 2 LIMIT 5
//	EXPLAIN MATCH VALUE LIKE ecg1
func ExecQuery(db *DB, src string) (*QueryResult, error) {
	return querylang.Exec(db, src)
}

// ParsedQuery is one compiled query-language statement: String() is its
// canonical form — the spelling every equivalent statement normalizes
// to, and so a sound cache key for query results — and Run executes it.
// Parsing once and reusing the value avoids re-parsing on hot paths that
// need both (the serving layer's cache key + execution).
type ParsedQuery = querylang.Query

// ParseQuery compiles one statement without running it.
func ParseQuery(src string) (ParsedQuery, error) { return querylang.Parse(src) }

// RunQueryCtx executes a compiled statement under ctx: every statement
// stops at the context's cancellation or deadline and returns ctx.Err().
func RunQueryCtx(ctx context.Context, db *DB, q ParsedQuery) (*QueryResult, error) {
	return q.Run(ctx, db)
}

// StreamQuery executes a compiled statement with incremental match
// delivery: every statement yields each match as the engine produces it
// (nearest-first under TOP n BY DISTANCE, discovery order for the other
// similarity statements, each feature statement's canonical order
// otherwise — yield may run on any goroutine, calls are serialized, and
// returning false stops the query without error). A FIND match carries
// its occurrence in Hit, an interval match its intervals in Interval, a
// pattern match its id alone. The returned result carries the kind,
// stats and EXPLAIN flag; the items travelled through yield. This is the
// serving layer's engine hook for /v1/query/stream.
func StreamQuery(ctx context.Context, db *DB, q ParsedQuery, yield func(Match) bool) (*QueryResult, error) {
	return querylang.RunStream(ctx, db, q, querylang.StreamFunc(yield))
}

// Query families (QuerySpec.Family, QueryStats.Query).
const (
	FamilyDistance = core.FamilyDistance
	FamilyValue    = core.FamilyValue
	FamilyShape    = core.FamilyShape
	FamilyPattern  = core.FamilyPattern
	FamilyFind     = core.FamilyFind
	FamilyPeaks    = core.FamilyPeaks
	FamilyInterval = core.FamilyInterval
)

// Progressive cascade tiers, re-exported for switch statements over
// ProgressiveMatch.Tier and QueryOptions.MaxTier.
const (
	TierNone      = core.TierNone
	TierSketch    = core.TierSketch
	TierCandidate = core.TierCandidate
	TierExact     = core.TierExact
)

// IsProgressiveQuery reports whether a compiled statement carries a
// WITHIN ERROR or APPROX clause (through any EXPLAIN / bound wrappers)
// and so should be served through StreamQueryProgressive.
func IsProgressiveQuery(q ParsedQuery) bool { return querylang.IsProgressive(q) }

// StreamQueryProgressive executes a progressive statement (one carrying
// WITHIN ERROR / APPROX) with frame-level delivery: every refinement
// frame — sketch-tier bands, candidate tightenings, final verdicts —
// flows through yield tagged with its quality tier. Bands for a record
// only ever tighten, the true distance always lies inside them, and a
// client may stop consuming once the bands are tight enough. This is
// the serving layer's engine hook for progressive /v1/query/stream.
func StreamQueryProgressive(ctx context.Context, db *DB, q ParsedQuery, yield func(ProgressiveMatch) bool) (*QueryResult, error) {
	return querylang.RunProgressive(ctx, db, q, querylang.ProgressiveFunc(yield))
}

// LimitQuery caps a compiled statement's result count at n (a server-side
// guard rail): statements without their own LIMIT gain one, looser LIMITs
// tighten, tighter ones win; n <= 0 returns q unchanged. The returned
// statement canonicalizes differently from the original, so cache keys
// must come from the uncapped form.
func LimitQuery(q ParsedQuery, n int) ParsedQuery { return querylang.WithLimit(q, n) }

// NewSequence builds a uniformly sampled sequence from values, with times
// 0, 1, 2, ...
func NewSequence(values []float64) Sequence { return seq.New(values) }

// NewSequenceFromSamples builds a sequence from parallel time and value
// slices.
func NewSequenceFromSamples(times, values []float64) (Sequence, error) {
	return seq.FromSamples(times, values)
}

// ---- breaking algorithms ----

// NewInterpolationBreaker returns the paper's preferred breaker: the
// recursive Figure 8 template over endpoint-interpolation lines, which
// breaks sequences at extremum points.
func NewInterpolationBreaker(epsilon float64) Breaker { return breaking.Interpolation(epsilon) }

// NewRegressionBreaker returns the Figure 8 template over least-squares
// regression lines.
func NewRegressionBreaker(epsilon float64) Breaker { return breaking.Regression(epsilon) }

// NewBezierBreaker returns the modified Schneider Bézier-fitting breaker.
func NewBezierBreaker(epsilon float64) Breaker { return breaking.Bezier(epsilon) }

// NewDPBreaker returns the O(n²) dynamic-programming segmenter minimizing
// segmentCost·(#segments) + errorWeight·Σ SSE.
func NewDPBreaker(segmentCost, errorWeight float64) Breaker {
	return &breaking.DP{SegmentCost: segmentCost, ErrorWeight: errorWeight}
}

// NewOnlineBreaker returns the streaming sliding-window breaker that
// decides breakpoints as data arrives.
func NewOnlineBreaker(epsilon float64) Breaker { return breaking.NewOnline(epsilon) }

// ---- fitters (representation families) ----

// InterpolationFitter fits lines through subsequence endpoints.
func InterpolationFitter() Fitter { return fit.InterpolationFitter{} }

// RegressionFitter fits least-squares regression lines — the family the
// paper uses to represent subsequences in its goal-post example.
func RegressionFitter() Fitter { return fit.RegressionFitter{} }

// PolynomialFitter fits least-squares polynomials of the given degree.
func PolynomialFitter(degree int) Fitter { return fit.PolynomialFitter{Degree: degree} }

// BezierFitter fits cubic Bézier curves with Schneider's algorithm.
func BezierFitter() Fitter { return fit.BezierFitter{} }

// ---- patterns ----

// TwoPeakPattern returns the goal-post fever pattern of §4.4: exactly two
// peaks.
func TwoPeakPattern() string { return pattern.TwoPeak() }

// ExactlyPeaksPattern returns a pattern accepting exactly k peaks.
func ExactlyPeaksPattern(k int) string { return pattern.ExactlyPeaks(k) }

// AtLeastPeaksPattern returns a pattern accepting k or more peaks.
func AtLeastPeaksPattern(k int) string { return pattern.AtLeastPeaks(k) }

// PeakUnitPattern is a single peak in slope symbols ("U+F*D"), the
// building block for custom patterns over the U (up), F (flat), D (down)
// alphabet.
const PeakUnitPattern = pattern.PeakUnit

// PeakTable renders the paper's Table 1 for a representation: one row per
// peak with the rising/descending functions and their boundary points.
func PeakTable(fs *FunctionSeries, peaks []Peak) (string, error) {
	return feature.PeakTable(fs, peaks)
}

// ---- distance metrics ----

// MetricByName resolves a distance metric from its textual name
// ("l1", "l2", "linf", "norml1", "norml2", "zl2", plus aliases such as
// "euclidean"), for wiring user-supplied metric names into
// DB.DistanceQuery.
func MetricByName(name string) (Metric, error) { return dist.ByName(name) }

// EuclideanMetric is the L2 distance.
func EuclideanMetric() Metric { return dist.Euclidean }

// ManhattanMetric is the L1 distance.
func ManhattanMetric() Metric { return dist.Manhattan }

// ChebyshevMetric is the L∞ distance — the paper's ±ε band semantics.
func ChebyshevMetric() Metric { return dist.Chebyshev }

// ZEuclideanMetric is the z-normalized Euclidean distance, invariant to
// amplitude shift and scaling.
func ZEuclideanMetric() Metric { return dist.ZEuclidean }

// ---- archives ----

// NewMemArchive returns an in-memory raw-sequence archive. Latency fields
// on the returned value simulate slow archival media.
func NewMemArchive() *store.MemArchive { return store.NewMemArchive() }

// NewFileArchive returns a directory-backed raw-sequence archive.
func NewFileArchive(dir string) (*store.FileArchive, error) { return store.NewFileArchive(dir) }

// ---- preprocessing ----

// StandardPreprocess builds the paper's §7 pipeline: median despiking,
// moving-average smoothing and z-score normalization.
func StandardPreprocess(medianWidth, smoothWidth int) *PreprocessChain {
	return filter.Standard(medianWidth, smoothWidth)
}
