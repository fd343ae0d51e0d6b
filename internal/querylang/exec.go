package querylang

import (
	"context"
	"fmt"
	"math"
	"strings"

	"seqrep/internal/core"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// Database is the engine surface the language executes against; *core.DB
// satisfies it. Defined as an interface so the language can be tested with
// fakes and reused over facades. The similarity queries are exposed in
// their spec-taking streaming form — the language's materialized
// statements collect and sort, its streamed statements pass the caller's
// callback through.
type Database interface {
	MatchPattern(pattern string) ([]string, error)
	SearchPattern(pattern string) ([]core.PatternHit, error)
	PeakCount(k, tol int) ([]core.Match, error)
	IntervalQuery(n, eps float64) ([]core.IntervalMatch, error)
	Query(ctx context.Context, spec core.QuerySpec, opts core.QueryOptions, yield func(core.Match) bool) (core.QueryStats, error)
	QueryProgressive(ctx context.Context, spec core.QuerySpec, opts core.QueryOptions, yield func(core.ProgressiveMatch) bool) (core.QueryStats, error)
	Reconstruct(id string) (seq.Sequence, error)
	Config() core.Config
}

var _ Database = (*core.DB)(nil)

// Result is the uniform answer of every query kind: the distinct matching
// ids plus the kind-specific detail.
type Result struct {
	Kind      string // "pattern", "find", "peaks", "interval", "value", "distance", "shape"
	IDs       []string
	Matches   []core.Match         // peaks / value / distance / shape queries
	Hits      []core.PatternHit    // FIND queries
	Intervals []core.IntervalMatch // interval queries
	// Stats reports the execution plan for planner-routed statements
	// (MATCH VALUE, MATCH DISTANCE, MATCH SHAPE) and for every EXPLAIN'ed
	// statement. Stats.Truncated marks an answer a LIMIT or TOP bound cut
	// short.
	Stats *core.QueryStats
	// Explain marks a statement run under EXPLAIN: Stats is then always
	// set, synthesized for query kinds with a fixed access path.
	Explain bool
	// Dropped counts materialized results a LIMIT clause discarded, when
	// that number is known exactly (the fixed-path kinds, which compute
	// the full answer before truncating). Streamed kinds stop early
	// instead and report Stats.Truncated without a count.
	Dropped int
}

// Exec parses and runs src against db in one call, without cancellation
// (see ExecContext).
func Exec(db Database, src string) (*Result, error) {
	return ExecContext(context.Background(), db, src)
}

// ExecContext parses and runs one statement under ctx: the similarity
// statements (MATCH VALUE / DISTANCE / SHAPE) stop at the context's
// cancellation or deadline and return ctx.Err().
func ExecContext(ctx context.Context, db Database, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Run(ctx, db)
}

// Canonical parses src and returns its canonical rendering: the one
// spelling every equivalent statement normalizes to (keyword casing,
// default clauses, quoting, bound-clause order). Two statements with
// equal canonical forms execute identically, which makes the canonical
// form a sound cache key for query results — the property the fuzzer's
// parse → print → reparse round trip pins. EXPLAIN and the LIMIT /
// TOP n BY DISTANCE bounds are part of the form: a bounded statement
// answers differently and canonicalizes differently.
func Canonical(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// StreamFunc receives one similarity match at a time from a streamed
// statement. Calls are serialized but may arrive on any goroutine;
// returning false stops the statement early without error.
type StreamFunc func(m core.Match) bool

// similarity is what the three similarity statements (MATCH VALUE /
// DISTANCE / SHAPE) contribute to the shared runners below.
type similarity interface {
	Query
	// spec loads the exemplar and states the statement as an engine query;
	// Eps is as written (negative = absent, see engineSpec).
	spec(db Database) (core.QuerySpec, error)
	// quality returns the WITHIN ERROR bound (negative = absent) and the
	// APPROX tier ("" = absent); either one present routes the statement
	// through the progressive cascade.
	quality() (maxErr float64, approx string)
}

// asSimilarity unwraps q — through a BoundedQuery, whose bounds become
// engine options — to its similarity statement.
func asSimilarity(q Query) (similarity, core.QueryOptions, bool) {
	var opts core.QueryOptions
	if b, ok := q.(*BoundedQuery); ok {
		q, opts = b.Inner, b.opts()
	}
	s, ok := q.(similarity)
	return s, opts, ok
}

func progressive(s similarity) bool {
	maxErr, approx := s.quality()
	return maxErr >= 0 || approx != ""
}

// RunStream executes q with incremental match delivery: similarity
// statements (bounded or not, under EXPLAIN or not) yield each match as
// the engine verifies it; all other statements materialize normally, then
// deliver their matches (if the kind has any) through yield for a uniform
// consumption model. In both cases the returned Result has Matches and
// IDs stripped — matches travelled through yield — while kind-specific
// payloads without a streamed form (pattern ids, FIND hits, interval
// matches) stay on the Result.
func RunStream(ctx context.Context, db Database, q Query, yield StreamFunc) (*Result, error) {
	if e, ok := q.(*ExplainQuery); ok {
		res, err := RunStream(ctx, db, e.Inner, yield)
		if err != nil {
			return nil, err
		}
		return explain(res), nil
	}
	if s, opts, ok := asSimilarity(q); ok {
		return streamMatches(ctx, db, s, opts, yield)
	}
	res, err := q.Run(ctx, db)
	if err != nil {
		return nil, err
	}
	return drainMatches(res, yield), nil
}

// ProgressiveFunc receives one progressive refinement frame at a time:
// sketch-tier bands first, then candidate-tier tightenings, then final
// verdicts (Final set; Match set on accepts). Calls are serialized but
// may arrive on any goroutine; returning false stops the query early
// without error.
type ProgressiveFunc func(core.ProgressiveMatch) bool

// IsProgressive reports whether q carries a WITHIN ERROR or APPROX
// clause (through any EXPLAIN / bound wrappers) and so answers through
// the progressive cascade. Progressive and exact spellings of the same
// MATCH body canonicalize differently, keeping canonical-form caches
// sound.
func IsProgressive(q Query) bool {
	if e, ok := q.(*ExplainQuery); ok {
		return IsProgressive(e.Inner)
	}
	s, _, ok := asSimilarity(q)
	return ok && progressive(s)
}

// RunProgressive executes a progressive statement with frame-level
// delivery: every refinement frame — not just final matches — flows
// through yield, tagged with its quality tier. Only statements
// IsProgressive reports true for qualify; everything else errors. The
// returned Result carries kind, stats and the EXPLAIN flag with Matches
// and IDs left empty (matches travelled through yield inside their
// final frames).
func RunProgressive(ctx context.Context, db Database, q Query, yield ProgressiveFunc) (*Result, error) {
	if e, ok := q.(*ExplainQuery); ok {
		res, err := RunProgressive(ctx, db, e.Inner, yield)
		if err != nil {
			return nil, err
		}
		return explain(res), nil
	}
	if s, opts, ok := asSimilarity(q); ok && progressive(s) {
		return streamFrames(ctx, db, s, opts, yield)
	}
	return nil, fmt.Errorf("querylang: statement %q is not progressive (no WITHIN ERROR or APPROX clause)", q.String())
}

// streamFrames runs a progressive similarity statement through the
// cascade with frame-level delivery.
func streamFrames(ctx context.Context, db Database, s similarity, opts core.QueryOptions, yield ProgressiveFunc) (*Result, error) {
	opts = progressiveOpts(opts, s)
	spec, err := engineSpec(db, s, opts)
	if err != nil {
		return nil, err
	}
	stats, err := db.QueryProgressive(ctx, spec, opts, yield)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: spec.Family, Stats: &stats}, nil
}

// streamMatches runs a similarity statement with match-level delivery.
// Under a quality clause the cascade's intermediate band frames are
// dropped and only final accepted matches flow through — the view a
// non-progressive-aware consumer expects.
func streamMatches(ctx context.Context, db Database, s similarity, opts core.QueryOptions, yield StreamFunc) (*Result, error) {
	if progressive(s) {
		return streamFrames(ctx, db, s, opts, func(pm core.ProgressiveMatch) bool {
			if pm.Final && pm.Match != nil {
				return yield(*pm.Match)
			}
			return true
		})
	}
	spec, err := engineSpec(db, s, opts)
	if err != nil {
		return nil, err
	}
	stats, err := db.Query(ctx, spec, opts, yield)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: spec.Family, Stats: &stats}, nil
}

// materialize runs a similarity statement to a complete Result: collect,
// sort into the canonical order.
func materialize(ctx context.Context, db Database, s similarity, opts core.QueryOptions) (*Result, error) {
	var matches []core.Match
	res, err := streamMatches(ctx, db, s, opts, func(m core.Match) bool {
		matches = append(matches, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	core.SortMatches(matches)
	res.IDs, res.Matches = matchIDs(matches), matches
	return res, nil
}

// progressiveOpts folds a statement's quality clauses into the engine
// options: WITHIN ERROR sets the acceptance band width, APPROX caps the
// cascade depth.
func progressiveOpts(opts core.QueryOptions, s similarity) core.QueryOptions {
	maxErr, approx := s.quality()
	if maxErr > 0 {
		opts.MaxError = maxErr
	}
	if approx != "" {
		t, err := core.ParseTier(approx)
		if err == nil {
			opts.MaxTier = t
		}
	}
	return opts
}

// drainMatches pushes a materialized result's matches through yield and
// strips them (and the ids mirroring them) from the result. The match
// count is preserved in Stats before the strip — an EXPLAIN wrapper (or
// the stream trailer) synthesizing stats afterwards would otherwise see
// an empty result and report matches=0 for frames it just delivered.
func drainMatches(res *Result, yield StreamFunc) *Result {
	for _, m := range res.Matches {
		if !yield(m) {
			break
		}
	}
	if len(res.Matches) > 0 {
		if res.Stats == nil {
			res.Stats = &core.QueryStats{
				Query:   res.Kind,
				Plan:    fixedPlans[res.Kind],
				Matches: len(res.Matches),
			}
		} else if res.Stats.Matches == 0 {
			res.Stats.Matches = len(res.Matches)
		}
		res.Matches, res.IDs = nil, nil
	}
	return res
}

// WithLimit caps q's result count at n (a server-side guard rail): a
// statement without its own LIMIT gains one, a statement with a looser
// LIMIT is tightened, a tighter LIMIT wins. n <= 0 returns q unchanged.
// The wrapper is inserted inside any EXPLAIN so the canonical structure
// (EXPLAIN outermost, bounds innermost) is preserved; note the returned
// query's String() differs from the original statement's, so cache keys
// must be computed before applying the cap.
func WithLimit(q Query, n int) Query {
	if n <= 0 {
		return q
	}
	switch t := q.(type) {
	case *ExplainQuery:
		return &ExplainQuery{Inner: WithLimit(t.Inner, n)}
	case *BoundedQuery:
		if t.Limit > 0 && t.Limit <= n {
			return t
		}
		nb := *t
		nb.Limit = n
		return &nb
	default:
		return &BoundedQuery{Inner: q, Limit: n}
	}
}

// MatchPatternQuery is MATCH PATTERN "...": whole symbol strings matching
// a slope-sign regular expression.
type MatchPatternQuery struct {
	Pattern string
}

// String implements Query.
func (q *MatchPatternQuery) String() string { return "MATCH PATTERN " + quoteString(q.Pattern) }

// Run implements Query.
func (q *MatchPatternQuery) Run(ctx context.Context, db Database) (*Result, error) {
	ids, err := db.MatchPattern(q.Pattern)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "pattern", IDs: ids}, nil
}

// FindPatternQuery is FIND PATTERN "...": occurrences anywhere within each
// sequence.
type FindPatternQuery struct {
	Pattern string
}

// String implements Query.
func (q *FindPatternQuery) String() string { return "FIND PATTERN " + quoteString(q.Pattern) }

// Run implements Query.
func (q *FindPatternQuery) Run(ctx context.Context, db Database) (*Result, error) {
	hits, err := db.SearchPattern(q.Pattern)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "find", IDs: distinctHitIDs(hits), Hits: hits}, nil
}

// PeaksQuery is MATCH PEAKS k [TOLERANCE t].
type PeaksQuery struct {
	Count     int
	Tolerance int
}

// String implements Query.
func (q *PeaksQuery) String() string {
	if q.Tolerance > 0 {
		return fmt.Sprintf("MATCH PEAKS %d TOLERANCE %d", q.Count, q.Tolerance)
	}
	return fmt.Sprintf("MATCH PEAKS %d", q.Count)
}

// Run implements Query.
func (q *PeaksQuery) Run(ctx context.Context, db Database) (*Result, error) {
	matches, err := db.PeakCount(q.Count, q.Tolerance)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "peaks", IDs: matchIDs(matches), Matches: matches}, nil
}

// IntervalQuery is MATCH INTERVAL n [+- eps].
type IntervalQuery struct {
	N   float64
	Eps float64
}

// String implements Query.
func (q *IntervalQuery) String() string {
	return fmt.Sprintf("MATCH INTERVAL %g +- %g", q.N, q.Eps)
}

// Run implements Query.
func (q *IntervalQuery) Run(ctx context.Context, db Database) (*Result, error) {
	matches, err := db.IntervalQuery(q.N, q.Eps)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, m.ID)
	}
	return &Result{Kind: "interval", IDs: ids, Intervals: matches}, nil
}

// engineSpec states s as an engine query under opts, resolving its
// tolerance: an explicit EPS wins; without one, TOP n BY DISTANCE means
// pure nearest-neighbour search (unbounded radius) and everything else
// inherits the database's ε.
func engineSpec(db Database, s similarity, opts core.QueryOptions) (core.QuerySpec, error) {
	spec, err := s.spec(db)
	if err != nil {
		return spec, err
	}
	if !(spec.Eps >= 0) { // absent (or NaN)
		spec.Eps = db.Config().Epsilon
		if opts.TopK > 0 {
			spec.Eps = math.Inf(1)
		}
	}
	return spec, nil
}

// appendProgressive renders the canonical progressive clauses: WITHIN
// ERROR first, then APPROX.
func appendProgressive(b *strings.Builder, maxErr float64, approx string) {
	if maxErr >= 0 {
		fmt.Fprintf(b, " WITHIN ERROR %g", maxErr)
	}
	if approx != "" {
		fmt.Fprintf(b, " APPROX %s", quoteIdent(approx))
	}
}

// ValueQuery is MATCH VALUE LIKE id [EPS e] [WITHIN ERROR w] [APPROX t]:
// the prior-art ±ε query with a stored sequence as the exemplar. Eps < 0
// means "use the database's ε". MaxError ≥ 0 (WITHIN ERROR) or a
// non-empty Approx (APPROX) routes execution through the progressive
// cascade — note the parser constructs MaxError as -1 when the clause is
// absent, so a zero-valued struct literal reads as WITHIN ERROR 0 (the
// exact-equivalent progressive run).
type ValueQuery struct {
	ExemplarID string
	Eps        float64
	// MaxError is the WITHIN ERROR bound (-1 = clause absent): accept a
	// record once its error band is at most this wide.
	MaxError float64
	// Approx caps the cascade depth ("" = absent): "sketch", "candidate"
	// or "exact".
	Approx string
}

// String implements Query.
func (q *ValueQuery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MATCH VALUE LIKE %s", quoteIdent(q.ExemplarID))
	if q.Eps >= 0 {
		fmt.Fprintf(&b, " EPS %g", q.Eps)
	}
	appendProgressive(&b, q.MaxError, q.Approx)
	return b.String()
}

// Run implements Query.
func (q *ValueQuery) Run(ctx context.Context, db Database) (*Result, error) {
	return materialize(ctx, db, q, core.QueryOptions{})
}

func (q *ValueQuery) spec(db Database) (core.QuerySpec, error) {
	exemplar, err := loadExemplar(db, q.ExemplarID)
	return core.QuerySpec{Family: core.FamilyValue, Exemplar: exemplar, Eps: q.Eps}, err
}

func (q *ValueQuery) quality() (float64, string) { return q.MaxError, q.Approx }

// DistanceQuery is MATCH DISTANCE LIKE id [METRIC m] [EPS e]: a
// whole-sequence similarity query under a named distance metric, routed
// through the query planner (feature-index pruning for l2/zl2, full scan
// otherwise). Metric defaults to "l2". Eps < 0 means "use the database's
// ε" — except under TOP n BY DISTANCE, where it means an unbounded
// search radius (the K nearest whatever their distance).
type DistanceQuery struct {
	ExemplarID string
	Metric     string
	Eps        float64
	// MaxError is the WITHIN ERROR bound (-1 = clause absent); see
	// ValueQuery.MaxError for the zero-value caveat.
	MaxError float64
	// Approx caps the cascade depth ("" = absent): "sketch", "candidate"
	// or "exact".
	Approx string
}

// String implements Query.
func (q *DistanceQuery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MATCH DISTANCE LIKE %s METRIC %s", quoteIdent(q.ExemplarID), quoteIdent(q.Metric))
	if q.Eps >= 0 {
		fmt.Fprintf(&b, " EPS %g", q.Eps)
	}
	appendProgressive(&b, q.MaxError, q.Approx)
	return b.String()
}

// Run implements Query.
func (q *DistanceQuery) Run(ctx context.Context, db Database) (*Result, error) {
	return materialize(ctx, db, q, core.QueryOptions{})
}

func (q *DistanceQuery) spec(db Database) (core.QuerySpec, error) {
	m, err := dist.ByName(q.Metric)
	if err != nil {
		return core.QuerySpec{}, fmt.Errorf("querylang: %w", err)
	}
	exemplar, err := loadExemplar(db, q.ExemplarID)
	return core.QuerySpec{Family: core.FamilyDistance, Exemplar: exemplar, Metric: m, Eps: q.Eps}, err
}

func (q *DistanceQuery) quality() (float64, string) { return q.MaxError, q.Approx }

// ShapeQuery is MATCH SHAPE LIKE id [PEAKS p] [HEIGHT h] [SPACING s]: the
// generalized approximate query anchored at a stored sequence.
type ShapeQuery struct {
	ExemplarID string
	PeaksTol   int
	HeightTol  float64
	SpacingTol float64
}

// String implements Query.
func (q *ShapeQuery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MATCH SHAPE LIKE %s", quoteIdent(q.ExemplarID))
	if q.PeaksTol > 0 {
		fmt.Fprintf(&b, " PEAKS %d", q.PeaksTol)
	}
	if q.HeightTol > 0 {
		fmt.Fprintf(&b, " HEIGHT %g", q.HeightTol)
	}
	if q.SpacingTol > 0 {
		fmt.Fprintf(&b, " SPACING %g", q.SpacingTol)
	}
	return b.String()
}

// Run implements Query.
func (q *ShapeQuery) Run(ctx context.Context, db Database) (*Result, error) {
	return materialize(ctx, db, q, core.QueryOptions{})
}

func (q *ShapeQuery) spec(db Database) (core.QuerySpec, error) {
	exemplar, err := loadExemplar(db, q.ExemplarID)
	tol := core.ShapeTolerance{Peaks: q.PeaksTol, Height: q.HeightTol, Spacing: q.SpacingTol}
	return core.QuerySpec{Family: core.FamilyShape, Exemplar: exemplar, Shape: tol}, err
}

// quality: the shape statement has no quality clauses.
func (q *ShapeQuery) quality() (float64, string) { return -1, "" }

// BoundedQuery wraps a statement with the result bounds of its trailing
// clauses: TOP n BY DISTANCE (the n nearest matches, nearest-first, with
// best-so-far pruning pushed into the engine) and LIMIT n (stop after n
// matches). For the similarity statements the bounds execute inside the
// engine; for the other match-producing kinds (MATCH PEAKS) the full
// answer is computed, ordered and truncated. Parse only attaches bounds
// to statements that support them.
type BoundedQuery struct {
	Inner Query
	// TopK is the TOP n BY DISTANCE clause (0 = absent).
	TopK int
	// Limit is the LIMIT n clause (0 = absent).
	Limit int
}

// String implements Query.
func (q *BoundedQuery) String() string {
	var b strings.Builder
	b.WriteString(q.Inner.String())
	if q.TopK > 0 {
		fmt.Fprintf(&b, " TOP %d BY DISTANCE", q.TopK)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

func (q *BoundedQuery) opts() core.QueryOptions {
	return core.QueryOptions{Limit: q.Limit, TopK: q.TopK}
}

// Run implements Query.
func (q *BoundedQuery) Run(ctx context.Context, db Database) (*Result, error) {
	if s, ok := q.Inner.(similarity); ok {
		return materialize(ctx, db, s, q.opts())
	}
	res, err := q.Inner.Run(ctx, db)
	if err != nil {
		return nil, err
	}
	return q.truncate(res), nil
}

// truncate applies the bounds to a materialized fixed-path result. The
// kind's primary item list is cut (matches already arrive in the
// exact-first, smallest-deviation order, so TOP n is literally the first
// n) and the id list rebuilt from what remains.
func (q *BoundedQuery) truncate(res *Result) *Result {
	keep := q.Limit
	if q.TopK > 0 && (keep == 0 || q.TopK < keep) {
		keep = q.TopK
	}
	if keep <= 0 {
		return res
	}
	cut := func(have int) int {
		if have > keep {
			res.Dropped += have - keep
			return keep
		}
		return have
	}
	switch {
	case res.Matches != nil:
		res.Matches = res.Matches[:cut(len(res.Matches))]
		res.IDs = matchIDs(res.Matches)
	case res.Hits != nil:
		res.Hits = res.Hits[:cut(len(res.Hits))]
		res.IDs = distinctHitIDs(res.Hits)
	case res.Intervals != nil:
		res.Intervals = res.Intervals[:cut(len(res.Intervals))]
		ids := make([]string, 0, len(res.Intervals))
		for _, m := range res.Intervals {
			ids = append(ids, m.ID)
		}
		res.IDs = ids
	default:
		res.IDs = res.IDs[:cut(len(res.IDs))]
	}
	if res.Dropped > 0 {
		if res.Stats == nil {
			res.Stats = &core.QueryStats{
				Query:   res.Kind,
				Plan:    fixedPlans[res.Kind],
				Matches: len(res.IDs),
			}
		}
		res.Stats.Truncated = true
	}
	return res
}

// ExplainQuery wraps any statement under EXPLAIN: the inner query runs
// normally and the result additionally carries its execution plan. Query
// kinds the planner does not route report their fixed access path.
type ExplainQuery struct {
	Inner Query
}

// String implements Query.
func (q *ExplainQuery) String() string { return "EXPLAIN " + q.Inner.String() }

// fixedPlans names the access path of every statement the planner has no
// routing decision for.
var fixedPlans = map[string]string{
	"pattern":  "symbol-index",
	"find":     "symbol-index",
	"peaks":    "record-scan",
	"interval": "inverted-index",
}

// explain marks a result as EXPLAIN'ed, synthesizing stats for kinds
// with a fixed access path.
func explain(res *Result) *Result {
	res.Explain = true
	if res.Stats == nil {
		res.Stats = &core.QueryStats{
			Query:   res.Kind,
			Plan:    fixedPlans[res.Kind],
			Matches: len(res.IDs),
		}
	}
	return res
}

// Run implements Query.
func (q *ExplainQuery) Run(ctx context.Context, db Database) (*Result, error) {
	res, err := q.Inner.Run(ctx, db)
	if err != nil {
		return nil, err
	}
	return explain(res), nil
}

// keywords every statement position may consume; identifiers spelled like
// one must be quoted to round-trip.
var reservedWords = map[string]bool{
	"explain": true, "match": true, "find": true, "pattern": true,
	"peaks": true, "tolerance": true, "interval": true, "value": true,
	"distance": true, "shape": true, "like": true, "eps": true,
	"metric": true, "height": true, "spacing": true,
	"limit": true, "top": true, "by": true,
	"within": true, "error": true, "approx": true,
}

// quoteString renders a pattern string in lexer syntax: raw content
// between quotes (the lexer has no escape sequences), choosing the quote
// kind the content does not contain. A string parsed from a statement
// never contains its own delimiter, so this always round-trips.
func quoteString(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// quoteIdent renders an identifier so it re-parses as the same identifier:
// bare when the lexer would read it back as one word, quoted otherwise
// (spaces, keyword spellings, leading digit/dash — which would lex as a
// number — and the empty string).
func quoteIdent(id string) string {
	bare := id != "" && !reservedWords[strings.ToLower(id)]
	if bare {
		if c := id[0]; c == '-' || c == '.' || (c >= '0' && c <= '9') {
			bare = false
		}
	}
	if bare {
		for i := 0; i < len(id); i++ {
			c := id[i]
			if !(c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				bare = false
				break
			}
		}
	}
	if bare {
		return id
	}
	if strings.Contains(id, `"`) {
		return "'" + id + "'" // a parsed id never contains both quote kinds
	}
	return `"` + id + `"`
}

// loadExemplar reconstructs a stored sequence from its representation:
// the same form the query verifies against, so LIKE id at EPS 0 finds id
// as an exact match.
func loadExemplar(db Database, id string) (seq.Sequence, error) {
	s, err := db.Reconstruct(id)
	if err != nil {
		return nil, fmt.Errorf("querylang: exemplar %q: %w", id, err)
	}
	return s, nil
}

func matchIDs(matches []core.Match) []string {
	ids := make([]string, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, m.ID)
	}
	return ids
}

// distinctHitIDs lists each hit's id once. Hits arrive in (id, segment)
// order, so an id's hits are adjacent.
func distinctHitIDs(hits []core.PatternHit) []string {
	var ids []string
	for i, h := range hits {
		if i == 0 || h.ID != hits[i-1].ID {
			ids = append(ids, h.ID)
		}
	}
	return ids
}
