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
// satisfies it. Every statement states one core.QuerySpec and runs through
// the streaming Query (or QueryProgressive): materialized statements
// collect, streamed ones pass the caller's callback through.
type Database interface {
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
	// Stats reports how the statement executed; Stats.Truncated marks an
	// answer a LIMIT or TOP bound cut short.
	Stats *core.QueryStats
	// Explain marks a statement run under EXPLAIN.
	Explain bool
}

// Exec parses and runs src against db in one call, without cancellation
// (see ExecContext).
func Exec(db Database, src string) (*Result, error) {
	return ExecContext(context.Background(), db, src)
}

// ExecContext parses and runs one statement under ctx: every statement
// stops at the context's cancellation or deadline and returns ctx.Err().
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

// StreamFunc receives one match at a time from a streamed statement, in
// delivery order (see core.Match for each kind's fields). Calls are
// serialized but may arrive on any goroutine; returning false stops the
// statement early without error.
type StreamFunc func(m core.Match) bool

// statement is what every MATCH and FIND body contributes to the shared
// runners below: itself, stated as an engine query under the bounds opts
// (the similarity statements load their exemplar).
type statement interface {
	Query
	spec(db Database, opts core.QueryOptions) (core.QuerySpec, error)
}

// qualified is a statement with quality clauses (MATCH VALUE, MATCH
// DISTANCE): quality returns the WITHIN ERROR bound (negative = absent)
// and the APPROX tier ("" = absent); either one present routes the
// statement through the progressive cascade.
type qualified interface {
	quality() (maxErr float64, approx string)
}

func progressive(s statement) bool {
	q, ok := s.(qualified)
	if !ok {
		return false
	}
	maxErr, approx := q.quality()
	return maxErr >= 0 || approx != ""
}

// unwrap takes q apart — EXPLAIN outermost, then the bounds, which become
// engine options — down to its statement.
func unwrap(q Query) (s statement, opts core.QueryOptions, explain bool, err error) {
	if e, ok := q.(*ExplainQuery); ok {
		q, explain = e.Inner, true
	}
	if b, ok := q.(*BoundedQuery); ok {
		q, opts = b.Inner, core.QueryOptions{Limit: b.Limit, TopK: b.TopK}
	}
	s, ok := q.(statement)
	if !ok {
		return nil, opts, explain, fmt.Errorf("querylang: %q is not an executable statement", q.String())
	}
	return s, opts, explain, nil
}

// RunStream executes q with incremental delivery: every statement
// (bounded or not, under EXPLAIN or not) yields each match as the engine
// produces it. The returned Result carries the kind, stats and EXPLAIN
// flag; the items travelled through yield.
func RunStream(ctx context.Context, db Database, q Query, yield StreamFunc) (*Result, error) {
	s, opts, explain, err := unwrap(q)
	if err != nil {
		return nil, err
	}
	return streamMatches(ctx, db, s, opts, explain, yield)
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
	s, _, _, err := unwrap(q)
	return err == nil && progressive(s)
}

// RunProgressive executes a statement IsProgressive reports true for (and
// rejects any other) with frame-level delivery: every refinement frame —
// not just final matches — flows through yield, tagged with its quality
// tier. The returned Result carries the kind, stats and EXPLAIN flag; the
// matches travelled through yield inside their final frames.
func RunProgressive(ctx context.Context, db Database, q Query, yield ProgressiveFunc) (*Result, error) {
	s, opts, explain, err := unwrap(q)
	if err != nil || !progressive(s) {
		return nil, fmt.Errorf("querylang: statement %q is not progressive (no WITHIN ERROR or APPROX clause)", q.String())
	}
	return streamFrames(ctx, db, s, opts, explain, yield)
}

// streamFrames runs a progressive similarity statement through the
// cascade with frame-level delivery.
func streamFrames(ctx context.Context, db Database, s statement, opts core.QueryOptions, explain bool, yield ProgressiveFunc) (*Result, error) {
	opts = progressiveOpts(opts, s.(qualified))
	spec, err := s.spec(db, opts)
	if err != nil {
		return nil, err
	}
	stats, err := db.QueryProgressive(ctx, spec, opts, yield)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: spec.Family, Stats: &stats, Explain: explain}, nil
}

// streamMatches runs a statement with match-level delivery. Under a
// quality clause the cascade's intermediate band frames are dropped and
// only final accepted matches flow through — the view a
// non-progressive-aware consumer expects.
func streamMatches(ctx context.Context, db Database, s statement, opts core.QueryOptions, explain bool, yield StreamFunc) (*Result, error) {
	if progressive(s) {
		return streamFrames(ctx, db, s, opts, explain, func(pm core.ProgressiveMatch) bool {
			if pm.Final && pm.Match != nil {
				return yield(*pm.Match)
			}
			return true
		})
	}
	spec, err := s.spec(db, opts)
	if err != nil {
		return nil, err
	}
	stats, err := db.Query(ctx, spec, opts, yield)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: spec.Family, Stats: &stats, Explain: explain}, nil
}

// materialize is every statement's Run: the statement run to a complete
// Result. The feature kinds' items are laid out as they arrive, in their
// canonical order; the unordered similarity families are sorted into
// theirs.
func materialize(ctx context.Context, db Database, q Query) (*Result, error) {
	s, opts, explain, err := unwrap(q)
	if err != nil {
		return nil, err
	}
	var out Result
	res, err := streamMatches(ctx, db, s, opts, explain, func(m core.Match) bool {
		if n := len(out.IDs); m.Key == "" && (n == 0 || out.IDs[n-1] != m.ID) {
			out.IDs = append(out.IDs, m.ID) // a FIND id's occurrences are adjacent
		}
		switch {
		case m.Hit != nil:
			out.Hits = append(out.Hits, *m.Hit)
		case m.Interval != nil:
			out.Intervals = append(out.Intervals, *m.Interval)
		case m.Key != "":
			out.Matches = append(out.Matches, m)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if res.Kind != core.FamilyPeaks {
		core.SortMatches(out.Matches)
	}
	if out.Matches != nil {
		out.IDs = matchIDs(out.Matches)
	}
	res.IDs, res.Matches, res.Hits, res.Intervals = out.IDs, out.Matches, out.Hits, out.Intervals
	return res, nil
}

// progressiveOpts folds a statement's quality clauses into the engine
// options: WITHIN ERROR sets the acceptance band width, APPROX caps the
// cascade depth.
func progressiveOpts(opts core.QueryOptions, s qualified) core.QueryOptions {
	maxErr, approx := s.quality()
	if maxErr > 0 {
		opts.MaxError = maxErr
	}
	if t, err := core.ParseTier(approx); err == nil { // "" (absent) is no tier
		opts.MaxTier = t
	}
	return opts
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
	return materialize(ctx, db, q)
}

func (q *MatchPatternQuery) spec(Database, core.QueryOptions) (core.QuerySpec, error) {
	return core.QuerySpec{Family: core.FamilyPattern, Pattern: q.Pattern}, nil
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
	return materialize(ctx, db, q)
}

func (q *FindPatternQuery) spec(Database, core.QueryOptions) (core.QuerySpec, error) {
	return core.QuerySpec{Family: core.FamilyFind, Pattern: q.Pattern}, nil
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
	return materialize(ctx, db, q)
}

func (q *PeaksQuery) spec(Database, core.QueryOptions) (core.QuerySpec, error) {
	return core.QuerySpec{Family: core.FamilyPeaks, Peaks: q.Count, PeakTolerance: q.Tolerance}, nil
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
	return materialize(ctx, db, q)
}

func (q *IntervalQuery) spec(Database, core.QueryOptions) (core.QuerySpec, error) {
	return core.QuerySpec{Family: core.FamilyInterval, Interval: q.N, Eps: q.Eps}, nil
}

// tolerance resolves the EPS clause of MATCH VALUE and MATCH DISTANCE: as
// written when present; absent (negative, or NaN), an unbounded radius
// under TOP n BY DISTANCE — pure nearest-neighbour search — and the
// database's ε otherwise.
func tolerance(db Database, eps float64, opts core.QueryOptions) float64 {
	switch {
	case eps >= 0:
		return eps
	case opts.TopK > 0:
		return math.Inf(1)
	}
	return db.Config().Epsilon
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
	// Approx caps the cascade depth ("" = absent): "candidate", the band
	// tier (APPROX sketch parses to it), or "exact".
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
	return materialize(ctx, db, q)
}

func (q *ValueQuery) spec(db Database, opts core.QueryOptions) (core.QuerySpec, error) {
	exemplar, err := loadExemplar(db, q.ExemplarID)
	return core.QuerySpec{Family: core.FamilyValue, Exemplar: exemplar, Eps: tolerance(db, q.Eps, opts)}, err
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
	// Approx caps the cascade depth ("" = absent): "candidate", the band
	// tier (APPROX sketch parses to it), or "exact".
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
	return materialize(ctx, db, q)
}

func (q *DistanceQuery) spec(db Database, opts core.QueryOptions) (core.QuerySpec, error) {
	m, err := dist.ByName(q.Metric)
	if err != nil {
		return core.QuerySpec{}, fmt.Errorf("querylang: %w", err)
	}
	exemplar, err := loadExemplar(db, q.ExemplarID)
	return core.QuerySpec{Family: core.FamilyDistance, Exemplar: exemplar, Metric: m, Eps: tolerance(db, q.Eps, opts)}, err
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
	return materialize(ctx, db, q)
}

func (q *ShapeQuery) spec(db Database, _ core.QueryOptions) (core.QuerySpec, error) {
	exemplar, err := loadExemplar(db, q.ExemplarID)
	tol := core.ShapeTolerance{Peaks: q.PeaksTol, Height: q.HeightTol, Spacing: q.SpacingTol}
	return core.QuerySpec{Family: core.FamilyShape, Exemplar: exemplar, Shape: tol}, err
}

// BoundedQuery wraps a statement with the result bounds of its trailing
// clauses: TOP n BY DISTANCE (the n nearest matches, nearest-first, with
// best-so-far pruning pushed into the engine) and LIMIT n (stop after n
// items: ids, matches, FIND hits or interval matches). The bounds execute
// inside the engine, which stops at them; a feature statement keeps the
// first n items of its unbounded answer. Parse only attaches bounds to
// statements that support them.
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

// Run implements Query.
func (q *BoundedQuery) Run(ctx context.Context, db Database) (*Result, error) {
	return materialize(ctx, db, q)
}

// ExplainQuery wraps any statement under EXPLAIN: the inner query runs
// normally and the result is marked, its Stats reporting the access path
// and the work done.
type ExplainQuery struct {
	Inner Query
}

// String implements Query.
func (q *ExplainQuery) String() string { return "EXPLAIN " + q.Inner.String() }

// Run implements Query.
func (q *ExplainQuery) Run(ctx context.Context, db Database) (*Result, error) {
	return materialize(ctx, db, q)
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
	ids := make([]string, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
	}
	return ids
}
