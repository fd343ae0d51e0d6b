package core

// This file is the query executor. Every query — the similarity families
// (distance, value and shape, match-level or progressive) and the paper's
// feature families (pattern, find, peaks and interval) — flows through one
// internal path, runQuery: a producer (the similarity families' one
// candidate pipeline of a source, band tiers and exact verification, see
// progressive.go; or a feature family's walk of the global query indexes)
// delivers through a collector that enforces QueryOptions (Limit, TopK),
// tightens the top-K pruning radius, and hands results to the caller's
// callback. Cancellation is cooperative: the caller's context is checked
// in shard walks and tier passes, in vantage-point-tree traversal, before
// every verification and between feature deliveries, and the worker pool
// always drains before runQuery returns — a cancelled query returns
// ctx.Err() promptly with no goroutine left behind.

import (
	"context"
	"fmt"
	"iter"
	"math"

	"seqrep/internal/dist"
	"seqrep/internal/multires"
	"seqrep/internal/pattern"
	"seqrep/internal/seq"
)

// Query families: QuerySpec.Family, and QueryStats.Query on the way out.
const (
	// FamilyDistance matches sequences within Eps of the exemplar under
	// Metric.
	FamilyDistance = "distance"
	// FamilyValue matches sequences whose every sample lies within ±Eps of
	// the exemplar's (the prior-art semantics of the paper's Figure 1).
	FamilyValue = "value"
	// FamilyShape is the generalized approximate query: the exemplar's
	// feature profile under the per-dimension Shape tolerances.
	FamilyShape = "shape"
	// The paper's feature families (§4.4, §5.2), each delivered in its
	// canonical order. FamilyPattern: symbol strings matching Pattern
	// whole, by id. FamilyFind: each occurrence of Pattern, by (id,
	// segment). FamilyPeaks: Peaks ± PeakTolerance peaks, exact first,
	// then by deviation, then id. FamilyInterval: an inter-peak interval
	// in Interval ± Eps, one match per sequence, by id.
	FamilyPattern  = "pattern"
	FamilyFind     = "find"
	FamilyPeaks    = "peaks"
	FamilyInterval = "interval"
)

// QuerySpec states one query for DB.Query, DB.QuerySeq and (similarity
// families only) DB.QueryProgressive.
type QuerySpec struct {
	Family   string
	Exemplar seq.Sequence
	// Metric is FamilyDistance's distance kernel.
	Metric dist.Metric
	// Eps is the tolerance of FamilyDistance, FamilyValue and
	// FamilyInterval; math.Inf(1) is allowed for the first two (pure
	// nearest-neighbour search under TopK, band every length-matching
	// record under progressive delivery).
	Eps float64
	// Shape holds FamilyShape's per-dimension tolerances.
	Shape ShapeTolerance
	// Pattern is the U/F/D regular expression of FamilyPattern and
	// FamilyFind (see package pattern).
	Pattern              string
	Peaks, PeakTolerance int     // FamilyPeaks' count and tolerance
	Interval             float64 // FamilyInterval's centre
}

// querySpec is a QuerySpec compiled for runQuery: the stats labels, the
// candidate filter, the optional index route, and the verification
// kernel.
type querySpec struct {
	kind   string
	metric string
	// values is the exemplar's comparison form, taken once per query; n
	// is its length, and > 0 restricts candidates to records of that
	// length (and selects the feature-index group).
	values []float64
	n      int
	// devKey is the Match.Deviations key holding the distance the radius
	// bounds ("value", or the metric name); empty for families without one,
	// which therefore have no progressive form and no top-K radius
	// feedback.
	devKey string
	// lb is the feature-space pruning rule; its zero value forces the
	// linear source. qsk is the exemplar's sketch for the band tier; nil
	// when no record could be banded against it.
	lb  lowerBound
	qsk *multires.Sketch
	// initEps is the starting verification radius (+Inf = unbounded).
	initEps float64
	// verify compares one record's exact samples at the given radius.
	verify func(rec *Record, radius float64) (Match, bool, error)

	// produce, set for the feature families, replaces candidate
	// generation and verification: it delivers the answer through col in
	// the family's canonical order. plan names its access path; q and pat
	// are its inputs.
	produce func(db *DB, spec *querySpec, col *collector) (examined, candidates int)
	plan    string
	q       QuerySpec
	pat     *pattern.Pattern
}

// runQuery executes spec under opts. It is the single execution path of
// every query, and the one place that knows the run protocol: validate,
// produce, verify, collect, resolve cancellation into the result.
//
// At most one of yield (match-level delivery) and frames (progressive
// delivery, which turns on the pipeline's band frames; see
// progressive.go) is set; with neither, the matches are collected into
// the returned slice. Either callback runs on the query's goroutines —
// never concurrently, never under a lock a writer takes — and returning
// false stops the query early (not an error). Matches arrive as Query
// documents. On cancellation runQuery returns ctx.Err(); matches already
// delivered are valid members of the full answer.
func (db *DB) runQuery(ctx context.Context, spec *querySpec, opts QueryOptions, yield func(Match) bool, frames func(ProgressiveMatch) bool) ([]Match, QueryStats, error) {
	if err := opts.validate(); err != nil {
		return nil, QueryStats{}, err
	}
	if frames != nil && opts.TopK > 0 {
		return nil, QueryStats{}, fmt.Errorf("core: top-k is incompatible with progressive execution")
	}
	if frames != nil && spec.devKey == "" {
		return nil, QueryStats{}, fmt.Errorf("core: %s queries have no progressive form", spec.kind)
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	if spec.produce != nil && opts.TopK > 0 {
		// A feature family delivers in its canonical order, nearest-first
		// for the ranked one (peaks): the first K are the K nearest.
		opts.Limit, opts.TopK = opts.bound(), 0
	}
	stats := QueryStats{Query: spec.kind, Metric: spec.metric}
	col := newCollector(ctx.Done(), spec, opts, yield, frames)
	if spec.produce != nil {
		stats.Plan = spec.plan
		stats.Examined, stats.Candidates = spec.produce(db, spec, col)
	} else {
		db.produceSimilarity(spec, opts, col, &stats)
	}
	if err := col.err(); err != nil {
		return nil, QueryStats{}, err
	}
	if col.aborted.Load() {
		if err := ctx.Err(); err != nil {
			return nil, QueryStats{}, err
		}
		return nil, QueryStats{}, context.Canceled
	}
	col.drain()
	col.mu.Lock()
	stats.Matches = col.emitted
	stats.Truncated = col.truncated
	col.mu.Unlock()
	return col.out, stats, nil
}

// candidate is one record on its way from a source to verification.
type candidate struct {
	rec *Record
	// fd is the feature distance to the exemplar that the index computed
	// while generating the candidate; negative when nothing did (an
	// unindexed record, or the linear source).
	fd float64
}

// ---- spec builders ----

// checkExemplar refuses an empty exemplar and one whose samples exceed
// twice MaxMagnitude (see there).
func checkExemplar(exemplar seq.Sequence) error {
	if len(exemplar) == 0 {
		return fmt.Errorf("core: empty exemplar")
	}
	if err := checkMagnitude(exemplar, 2*MaxMagnitude); err != nil {
		return fmt.Errorf("core: exemplar: %w", err)
	}
	return nil
}

func checkEps(eps float64) error {
	if math.IsNaN(eps) {
		return fmt.Errorf("core: tolerance is NaN")
	}
	if eps < 0 {
		return fmt.Errorf("core: negative tolerance %g", eps)
	}
	return nil
}

// distanceSpec compiles a DistanceQuery. eps may be +Inf (pure nearest-
// neighbour search under TopK).
func (db *DB) distanceSpec(exemplar seq.Sequence, m dist.Metric, eps float64) (*querySpec, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil metric")
	}
	return db.exactSpec(FamilyDistance, m.Name(), m.Name(), m, exemplar, eps)
}

// valueSpec compiles a ValueQuery: the ±eps band is Chebyshev's kernel,
// reported under "value" and bounded by featureScale as "band".
func (db *DB) valueSpec(exemplar seq.Sequence, eps float64) (*querySpec, error) {
	return db.exactSpec(FamilyValue, "band", "value", dist.Chebyshev, exemplar, eps)
}

// exactSpec compiles a similarity query whose exact tier is m's kernel
// over the exemplar's values: the stats label metric, the Deviations key
// devKey, and the prefilters metric bounds.
func (db *DB) exactSpec(kind, metric, devKey string, m dist.Metric, exemplar seq.Sequence, eps float64) (*querySpec, error) {
	if err := checkExemplar(exemplar); err != nil {
		return nil, err
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	spec := &querySpec{
		kind:    kind,
		metric:  metric,
		values:  exemplar.Values(),
		n:       len(exemplar),
		devKey:  devKey,
		initEps: eps,
	}
	spec.verify = func(rec *Record, radius float64) (Match, bool, error) {
		return db.distanceVerify(rec, spec, m, radius)
	}
	spec.lb, spec.qsk = db.prefilters(metric, spec.values)
	return spec, nil
}

// shapeSpec compiles a ShapeQuery: a full scan with fixed per-dimension
// tolerances (no distance radius, so top-K bounds memory and output but
// cannot feed pruning back). Every record is scored from its resident
// features; none is paged in.
func (db *DB) shapeSpec(exemplar seq.Sequence, tol ShapeTolerance) (*querySpec, error) {
	if tol.Peaks < 0 || tol.Height < 0 || tol.Spacing < 0 || math.IsNaN(tol.Height) || math.IsNaN(tol.Spacing) {
		return nil, fmt.Errorf("core: negative or NaN shape tolerance %+v", tol)
	}
	if err := checkExemplar(exemplar); err != nil {
		return nil, err
	}
	q, err := db.shapeSignatureOf(exemplar)
	if err != nil {
		return nil, err
	}
	return &querySpec{
		kind:    FamilyShape,
		initEps: math.Inf(1),
		verify: func(rec *Record, _ float64) (Match, bool, error) {
			m, ok := q.score(rec, tol)
			return m, ok, nil
		},
	}, nil
}

// ---- entry points ----

// compile validates q and builds its executable form.
func (db *DB) compile(q QuerySpec) (*querySpec, error) {
	switch q.Family {
	case FamilyDistance:
		return db.distanceSpec(q.Exemplar, q.Metric, q.Eps)
	case FamilyValue:
		return db.valueSpec(q.Exemplar, q.Eps)
	case FamilyShape:
		return db.shapeSpec(q.Exemplar, q.Shape)
	}
	spec := &querySpec{kind: q.Family, initEps: math.Inf(1), q: q}
	var err error
	switch q.Family {
	case FamilyPattern:
		spec.pat, err = pattern.Compile(q.Pattern)
		spec.plan, spec.produce = PlanSymbolIndex, producePattern
	case FamilyFind:
		spec.pat, err = pattern.Compile(q.Pattern)
		spec.plan, spec.produce = PlanSymbolIndex, produceFind
	case FamilyPeaks:
		if q.Peaks < 0 || q.PeakTolerance < 0 {
			err = fmt.Errorf("negative peak count %d or tolerance %d", q.Peaks, q.PeakTolerance)
		}
		spec.plan, spec.produce = PlanRecordScan, producePeaks
	case FamilyInterval:
		if err = checkEps(q.Eps); err != nil {
			return nil, err
		}
		spec.plan, spec.produce = PlanInvertedIndex, produceInterval
	default:
		return nil, fmt.Errorf("core: unknown query family %q", q.Family)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return spec, nil
}

// Query runs one query, streaming its matches through yield as they are
// produced: calls are serialized but arrive on unspecified goroutines,
// and returning false stops the query without error. A similarity
// family's matches arrive unordered unless opts.TopK is set (then
// nearest-first); a feature family's arrive in its canonical order, so a
// bounded feature query keeps a prefix of the unbounded answer. The query
// also stops at ctx's deadline or cancellation (returning ctx.Err()) and
// after opts.Limit matches; with opts.TopK it keeps the K nearest,
// feeding the best-so-far distance back into the index search as a
// shrinking pruning radius. The returned stats describe the work actually
// performed, including early termination.
func (db *DB) Query(ctx context.Context, q QuerySpec, opts QueryOptions, yield func(Match) bool) (QueryStats, error) {
	spec, err := db.compile(q)
	if err != nil {
		return QueryStats{}, err
	}
	_, stats, err := db.runQuery(ctx, spec, opts, yield, nil)
	return stats, err
}

// QueryProgressive runs a distance or value query as a progressive
// cascade: frames stream through yield (under Query's callback contract)
// with per-record error bands that tighten from the band tier (sketch
// band and feature bound) to exact verification — see ProgressiveMatch
// for the frame contract and progressive.go for the guarantee.
// opts.MaxError and opts.MaxTier control how early answers may finalize;
// opts.TopK and shape queries are rejected. For value queries the bands
// bound the maximum per-sample deviation, the "value" deviation exact
// verification reports.
func (db *DB) QueryProgressive(ctx context.Context, q QuerySpec, opts QueryOptions, yield func(ProgressiveMatch) bool) (QueryStats, error) {
	spec, err := db.compile(q)
	if err != nil {
		return QueryStats{}, err
	}
	_, stats, err := db.runQuery(ctx, spec, opts, nil, yield)
	return stats, err
}

// QuerySeq is Query as a Go 1.23 range-over-func iterator whose body runs
// on the consumer's goroutine: a bridge goroutine executes the query and
// feeds a channel. A query failure or cancellation arrives as the final
// pair's non-nil error; breaking out of the loop cancels the query and
// waits for it to unwind, so no goroutine outlives the loop.
//
//	for m, err := range db.QuerySeq(ctx, spec, opts) {
//		if err != nil { ... }
//	}
func (db *DB) QuerySeq(ctx context.Context, q QuerySpec, opts QueryOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := make(chan Match)
		errc := make(chan error, 1)
		go func() {
			_, err := db.Query(ctx, q, opts, func(m Match) bool {
				select {
				case ch <- m:
					return true
				case <-ctx.Done():
					return false
				}
			})
			close(ch)
			errc <- err
		}()
		stopped := false
		for m := range ch {
			if stopped {
				continue // drain after the consumer broke out
			}
			if !yield(m, nil) {
				stopped = true
				cancel()
			}
		}
		if err := <-errc; err != nil && !stopped {
			yield(Match{}, err)
		}
	}
}

// collectSorted materializes a query in its canonical order, sorting a
// similarity family's matches.
func (db *DB) collectSorted(ctx context.Context, spec *querySpec, opts QueryOptions) ([]Match, QueryStats, error) {
	out, stats, err := db.runQuery(ctx, spec, opts, nil, nil)
	if err != nil {
		return nil, QueryStats{}, err
	}
	if spec.produce == nil {
		SortMatches(out)
	}
	return out, stats, nil
}

// querySorted is Query materialized in the canonical order — the body of
// the per-family helpers below and of the feature methods in query.go.
func (db *DB) querySorted(ctx context.Context, q QuerySpec, opts QueryOptions) ([]Match, QueryStats, error) {
	spec, err := db.compile(q)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return db.collectSorted(ctx, spec, opts)
}

// DistanceQueryCtx is DistanceQuery with a context, result bounds and
// execution statistics (see Query). The planner routes every metric with
// a featureScale entry (all the built-in ones) through the index —
// pruning candidates whose scaled feature distance already exceeds the
// tolerance, then verifying survivors exactly — and falls back to the
// shard-parallel scan for a custom metric or a database without the
// index; both plans return byte-identical match sets.
func (db *DB) DistanceQueryCtx(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions) ([]Match, QueryStats, error) {
	return db.querySorted(ctx, QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: m, Eps: eps}, opts)
}

// ValueQueryCtx is ValueQuery with a context, result bounds and execution
// statistics (see Query). The ±ε band semantics admit an L2 detour: a
// sequence inside the band satisfies L∞ ≤ ε, hence L2 ≤ ε·√n, hence
// feature distance ≤ ε·√n (featureScale's "band" entry) — so the index
// prunes with the scaled bound and verifies survivors with the same
// early-abandoning band kernel as the scan.
func (db *DB) ValueQueryCtx(ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions) ([]Match, QueryStats, error) {
	return db.querySorted(ctx, QuerySpec{Family: FamilyValue, Exemplar: exemplar, Eps: eps}, opts)
}

// ShapeQueryCtx is ShapeQuery with a context, result bounds and execution
// statistics (see Query; the shape dimensions admit no pruning radius, so
// TopK bounds the answer without accelerating the scan).
func (db *DB) ShapeQueryCtx(ctx context.Context, exemplar seq.Sequence, tol ShapeTolerance, opts QueryOptions) ([]Match, QueryStats, error) {
	return db.querySorted(ctx, QuerySpec{Family: FamilyShape, Exemplar: exemplar, Shape: tol}, opts)
}

// DistanceQueryProgressive is QueryProgressive for a distance query.
func (db *DB) DistanceQueryProgressive(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions, yield func(ProgressiveMatch) bool) (QueryStats, error) {
	return db.QueryProgressive(ctx, QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: m, Eps: eps}, opts, yield)
}
