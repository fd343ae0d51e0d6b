package core

// This file is the query executor. Every query — the similarity families
// (distance, value and shape, match-level or progressive) and the paper's
// feature families (pattern, find, peaks and interval) — flows through one
// internal path, runQuery: a producer (the feature index, the shard scan,
// the progressive cascade's sketch and candidate tiers, or a feature
// family's walk of the global query indexes) delivers through a collector
// that enforces QueryOptions (Limit, TopK), tightens the top-K pruning
// radius, and hands results to the caller's callback. Cancellation is
// cooperative: the caller's context is checked in shard scans, in
// vantage-point-tree traversal, before every verification and between
// feature deliveries, and the worker pool always drains before runQuery
// returns — a cancelled query returns ctx.Err() promptly with no
// goroutine left behind.

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
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
	// exemplar is the query sequence; n is its length, and > 0 restricts
	// candidates to records of that length (and selects the feature-index
	// group).
	exemplar seq.Sequence
	n        int
	// devKey is the Match.Deviations key holding the distance the radius
	// bounds ("value", or the metric name); empty for families without one,
	// which therefore have no progressive form.
	devKey string
	// lb is the feature-space pruning rule; nil forces the scan plan.
	lb *lowerBound
	// boundOf maps a verification radius onto the feature-space bound —
	// consulted mid-traversal when top-K shrinks the radius.
	boundOf func(radius float64) float64
	// initEps is the starting verification radius (+Inf = unbounded).
	initEps float64
	// prunes marks query kinds whose match deviation equals the distance
	// the radius bounds, so the top-K best-so-far feedback is sound.
	prunes bool
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
// delivery, which selects the cascade producer; see progressive.go) is
// set; with neither, the matches are collected into the returned slice.
// Either callback runs on the query's goroutines — never concurrently,
// never under a lock a writer takes — and returning false stops the
// query early (not an error). Matches arrive as Query documents. On
// cancellation runQuery returns ctx.Err(); matches already delivered
// are valid members of the full answer.
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
	indexed := db.findex != nil && spec.lb != nil
	switch {
	case frames != nil:
		stats.Plan = PlanProgressive
		db.produceCascade(spec, opts, indexed, col, &stats)
	case spec.produce != nil:
		stats.Plan = spec.plan
		stats.Examined, stats.Candidates = spec.produce(db, spec, col)
	case indexed && opts.TopK > 0:
		stats.Plan = PlanIndex
		db.produceIndexedTopK(spec, col, &stats)
	case indexed:
		stats.Plan = PlanIndex
		db.produceIndexed(spec, col, &stats)
	default:
		stats.Plan = PlanScan
		db.produceScan(spec, col, &stats)
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

// produceScan is the shard-parallel full-scan producer: workers claim
// whole shard snapshots and verify every length-matching record, checking
// the stop conditions between records.
func (db *DB) produceScan(spec *querySpec, col *collector, stats *QueryStats) {
	shardRecs := db.snapshotRecords()
	var examined, candidates atomic.Int64
	db.forEachClaimed(len(shardRecs), func(i int) {
		var ex, cand int64
		for _, rec := range shardRecs[i] {
			if col.stopped() {
				break
			}
			ex++
			if spec.n > 0 && rec.N != spec.n {
				continue
			}
			cand++
			col.verify(rec, Band{})
		}
		examined.Add(ex)
		candidates.Add(cand)
	})
	stats.Examined = int(examined.Load())
	stats.Candidates = int(candidates.Load())
}

// candidate is one record on its way from a producer to verification.
type candidate struct {
	rec *Record
	// fd is the feature distance to the exemplar that the index computed
	// while generating the candidate; negative when nothing did (an
	// unindexed record, or the cascade's linear source).
	fd float64
	// band is the band the cascade has refined the record to; zero outside
	// progressive delivery.
	band Band
}

// verifyAll fans the exact verification of a materialized candidate set
// across the worker pool, outside every lock (it is the part that
// reconstructs, and under a memory budget pages in, representations).
func (db *DB) verifyAll(col *collector, cands []candidate) {
	db.forEachClaimed(len(cands), func(i int) {
		if col.stopped() {
			return
		}
		col.verify(cands[i].rec, cands[i].band)
	})
}

// collectIndexed generates the feature index's candidates at the query's
// fixed bound — no radius feedback — into pooled scratch, and records the
// traversal's Examined and Pruned. The length group's read lock is held
// only inside: whatever the caller then does with the candidates (band
// tiers, frame delivery, verification) cannot stall a mutation of the
// group. The caller hands the scratch back with releaseCands.
func (db *DB) collectIndexed(spec *querySpec, col *collector, stats *QueryStats) *[]candidate {
	scratch := candPool.Get().(*[]candidate)
	cands := (*scratch)[:0]
	fixed := spec.boundOf(spec.initEps)
	bound := func() float64 {
		if col.stopped() {
			return -1
		}
		return fixed
	}
	stats.Examined, stats.Pruned, _ = db.findex.collect(spec.n, *spec.lb, bound, func(rec *Record, fd float64) bool {
		cands = append(cands, candidate{rec: rec, fd: fd})
		return true
	})
	*scratch = cands
	return scratch
}

// releaseCands returns collectIndexed's scratch to the pool. It clears
// the slice at the length collectIndexed left it, so callers may compact
// it in place but not grow it.
func releaseCands(scratch *[]candidate) {
	clear(*scratch) // drop record pointers before pooling the scratch
	*scratch = (*scratch)[:0]
	candPool.Put(scratch)
}

// produceIndexed is the two-phase index producer used when no radius
// feedback is possible: candidates are generated under the length group's
// read lock into pooled scratch at the query's fixed bound, then verified
// by the worker pool.
func (db *DB) produceIndexed(spec *querySpec, col *collector, stats *QueryStats) {
	scratch := db.collectIndexed(spec, col, stats)
	stats.Candidates = len(*scratch)
	db.verifyAll(col, *scratch)
	releaseCands(scratch)
}

// produceIndexedTopK is the interleaved index producer behind top-K:
// candidate generation streams rows to a verification fan-out while the
// vantage-point-tree traversal re-reads the pruning bound at every node,
// so the best K verified so far shrink the search mid-flight — the
// search examines strictly fewer vectors than the equivalent unbounded
// query whenever the K-th best distance drops below the tolerance.
func (db *DB) produceIndexedTopK(spec *querySpec, col *collector, stats *QueryStats) {
	workers := db.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	candCh := make(chan *Record, 4*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rec := range candCh {
				if !col.stopped() { // else drain
					col.verify(rec, Band{})
				}
			}
		}()
	}
	var shrunk atomic.Bool
	bound := func() float64 {
		if col.stopped() {
			return -1
		}
		r := col.radius()
		if r < spec.initEps {
			shrunk.Store(true)
		}
		return spec.boundOf(r)
	}
	// The workers drain candCh to its close however the run stops, so a
	// send blocks only until a worker is free.
	emit := func(rec *Record, _ float64) bool {
		if col.stopped() {
			return false
		}
		select {
		case candCh <- rec:
			return true
		case <-col.done:
			col.abort()
			return false
		}
	}
	stats.Examined, stats.Pruned, stats.Candidates = db.findex.collect(spec.n, *spec.lb, bound, emit)
	close(candCh)
	wg.Wait()
	// A feature-pruned row under a tightened bound may have been an
	// unbounded match (by Parseval a true match's feature distance never
	// exceeds its real distance, so only a shrunken bound can prune one):
	// the answer is then possibly short of the unbounded one.
	if shrunk.Load() && stats.Pruned > 0 {
		col.noteTruncated()
	}
}

// ---- spec builders ----

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
	if len(exemplar) == 0 {
		return nil, fmt.Errorf("core: empty exemplar")
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil metric")
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	spec := &querySpec{
		kind:     FamilyDistance,
		metric:   m.Name(),
		exemplar: exemplar,
		n:        len(exemplar),
		devKey:   m.Name(),
		initEps:  eps,
		prunes:   true,
		verify: func(rec *Record, radius float64) (Match, bool, error) {
			return db.distanceVerify(rec, exemplar, m, radius)
		},
	}
	if db.findex != nil {
		if lb, boundOf, ok := db.distanceLowerBound(exemplar, m); ok {
			spec.lb, spec.boundOf = lb, boundOf
		}
	}
	return spec, nil
}

// valueSpec compiles a ValueQuery (±eps band semantics; the L2 detour
// eps·√n admits the feature bound).
func (db *DB) valueSpec(exemplar seq.Sequence, eps float64) (*querySpec, error) {
	if len(exemplar) == 0 {
		return nil, fmt.Errorf("core: empty exemplar")
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	spec := &querySpec{
		kind:     FamilyValue,
		metric:   "band",
		exemplar: exemplar,
		n:        len(exemplar),
		devKey:   "value",
		initEps:  eps,
		prunes:   true,
		verify: func(rec *Record, radius float64) (Match, bool, error) {
			return db.valueVerify(rec, exemplar, radius)
		},
	}
	if db.findex != nil {
		if qf, err := dft.Features(exemplar.Values(), db.findex.k); err == nil {
			scale := math.Sqrt(float64(len(exemplar)))
			boundOf := func(r float64) float64 { return lbSlack(r * scale) }
			spec.lb = &lowerBound{qf: qf}
			spec.boundOf = boundOf
		}
	}
	return spec, nil
}

// shapeSpec compiles a ShapeQuery: a full scan with fixed per-dimension
// tolerances (no distance radius, so top-K bounds memory and output but
// cannot feed pruning back).
func (db *DB) shapeSpec(exemplar seq.Sequence, tol ShapeTolerance) (*querySpec, error) {
	if tol.Peaks < 0 || tol.Height < 0 || tol.Spacing < 0 {
		return nil, fmt.Errorf("core: negative shape tolerance %+v", tol)
	}
	qf, err := db.profileOf(exemplar)
	if err != nil {
		return nil, err
	}
	qSig, err := shapeSignature(qf.peaks, qf.span, qf.base)
	if err != nil {
		return nil, fmt.Errorf("core: exemplar: %w", err)
	}
	return &querySpec{
		kind:    FamilyShape,
		initEps: math.Inf(1),
		verify: func(rec *Record, _ float64) (Match, bool, error) {
			// Shape verification reads segment boundaries, so the
			// representation must be resident; a record removed mid-scan
			// is skipped like every other verification path.
			fs, err := db.materialize(rec)
			if err != nil {
				if err = db.verifyReadError(rec, err); err != nil {
					return Match{}, false, fmt.Errorf("core: shape query reading %q: %w", rec.ID, err)
				}
				return Match{}, false, nil
			}
			return shapeVerify(rec, fs, qSig, tol)
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
// with per-record error bands that tighten from the sketch tier through
// candidate pruning to exact verification — see ProgressiveMatch for the
// frame contract and progressive.go for the guarantee. opts.MaxError and
// opts.MaxTier control how early answers may finalize; opts.TopK and
// shape queries are rejected. For value queries the bands bound the
// maximum per-sample deviation, the "value" deviation exact verification
// reports.
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
// execution statistics (see Query). The planner routes metrics with a
// feature-space lower bound (l2, zl2) through the index — pruning
// candidates whose feature distance already exceeds the tolerance, then
// verifying survivors exactly — and falls back to the shard-parallel scan
// for everything else; both plans return byte-identical match sets.
func (db *DB) DistanceQueryCtx(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions) ([]Match, QueryStats, error) {
	return db.querySorted(ctx, QuerySpec{Family: FamilyDistance, Exemplar: exemplar, Metric: m, Eps: eps}, opts)
}

// ValueQueryCtx is ValueQuery with a context, result bounds and execution
// statistics (see Query). The ±ε band semantics admit an L2 detour: a
// sequence inside the band satisfies L∞ ≤ ε, hence L2 ≤ ε·√n, hence
// feature distance ≤ ε·√n — so the index prunes with the scaled bound and
// verifies survivors with the same early-abandoning band kernel as the
// scan.
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
