package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
)

// Match is one query result. Exact matches are members of the query's
// sequence set (§2.2 item 4); approximate matches deviate from it along
// named feature dimensions, each within its tolerance. Deviations maps
// dimension name to the observed deviation (0 for exact dimensions).
//
// The ranked families (distance, value, shape, peaks) set Deviations; the
// others leave it nil. A FamilyPattern match is the id alone, a FamilyFind
// match one occurrence (Hit), a FamilyInterval match the record's
// intervals in range (Interval).
type Match struct {
	ID         string
	Exact      bool
	Deviations map[string]float64
	Hit        *PatternHit
	Interval   *IntervalMatch
}

// matchCompare orders matches: exact first, then by total deviation, then
// id.
func matchCompare(a, b Match) int {
	return keyedCompare(keyedMatch{a, totalDeviation(a)}, keyedMatch{b, totalDeviation(b)})
}

func totalDeviation(m Match) float64 {
	t := 0.0
	for _, d := range m.Deviations {
		t += d
	}
	return t
}

// keyedMatch is a match with its total deviation computed once, so a sort
// does not range over two Deviations maps per comparison.
type keyedMatch struct {
	m   Match
	dev float64
}

// keyedCompare is matchCompare on precomputed total deviations.
func keyedCompare(a, b keyedMatch) int {
	if a.m.Exact != b.m.Exact {
		if a.m.Exact {
			return -1
		}
		return 1
	}
	if a.dev != b.dev {
		if a.dev < b.dev {
			return -1
		}
		return 1
	}
	return strings.Compare(a.m.ID, b.m.ID)
}

// SortMatches orders matches the way every materialized query returns
// them: exact matches first, then by total deviation, ties broken by id.
// Callers of the streaming query forms (which yield in discovery order
// unless TopK is set) use it to restore the canonical order.
func SortMatches(matches []Match) {
	if len(matches) < 2 {
		return
	}
	keyed := make([]keyedMatch, len(matches))
	for i, m := range matches {
		keyed[i] = keyedMatch{m, totalDeviation(m)}
	}
	slices.SortFunc(keyed, keyedCompare)
	for i := range keyed {
		matches[i] = keyed[i].m
	}
}

// valuesPool recycles the exact tier's buffers: a candidate's values are
// reconstructed into pooled scratch, compared, and the buffer goes back,
// so steady-state verification allocates nothing per candidate. Nothing a
// verification returns may alias the buffer — which is why dist.Metric
// implementations must not retain their arguments.
var valuesPool = sync.Pool{New: func() any { return new([]float64) }}

// storedValues reads the comparison form of a record into *buf (reused
// and grown as needed, and left holding the result): the values of its
// stored representation at its sample times, in every configuration.
// Under a memory budget the representation may be cold — materialize
// pages it back in from the segment tier, so this is the one place the
// query verification fan-out touches disk. A failure here is a storage
// fault, not a bad query — the record is committed but its comparison
// form is unreadable — so the fault-in's error wraps ErrStorage for
// callers (the serving layer) to classify; a record removed mid-scan
// surfaces the fault-in's ErrUnknownID, which verifyReadError turns into
// a skip. The series was validated where it was created (build, or the
// decode a fault-in runs), so it reconstructs without being checked
// again.
func (db *DB) storedValues(rec *Record, buf *[]float64) ([]float64, error) {
	fs, err := db.materialize(rec)
	if err != nil {
		return nil, err
	}
	*buf = fs.AppendValuesUnchecked((*buf)[:0])
	return *buf, nil
}

// ValueQuery implements the prior-art semantics the paper generalizes away
// from (their Figure 1): a stored sequence matches when every sample lies
// within ±eps of the exemplar's corresponding sample. Only sequences of
// the exemplar's length participate; comparison is against the stored
// representation's reconstruction.
//
// The query is routed through the planner (see ValueQueryCtx, which also
// reports the plan): when the feature index is enabled, candidates are
// pruned by the DFT lower bound before the early-abandoning band
// verification; otherwise the query runs as a shard-parallel scan.
func (db *DB) ValueQuery(exemplar seq.Sequence, eps float64) ([]Match, error) {
	matches, _, err := db.ValueQueryCtx(context.Background(), exemplar, eps, QueryOptions{})
	return matches, err
}

// DistanceQuery queries the database under an arbitrary distance metric
// (see package dist): a stored sequence matches when m's distance from
// the exemplar is at most eps. Like ValueQuery it compares against
// reconstructions and skips sequences whose length differs from the
// exemplar's.
//
// The query is routed through the planner (see DistanceQueryCtx, which
// also reports the plan): metrics with a feature-space lower bound (l2,
// zl2) run through the DFT feature index, everything else as a
// shard-parallel scan.
func (db *DB) DistanceQuery(exemplar seq.Sequence, m dist.Metric, eps float64) ([]Match, error) {
	matches, _, err := db.DistanceQueryCtx(context.Background(), exemplar, m, eps, QueryOptions{})
	return matches, err
}

// MatchPattern returns the ids of sequences whose whole slope-sign symbol
// string matches the pattern — the §4.4 query mechanism — in id order.
// The pattern uses the U/F/D alphabet (see package pattern; helpers such
// as pattern.TwoPeak() build the paper's canned queries).
func (db *DB) MatchPattern(src string) ([]string, error) {
	return featureItems(db, QuerySpec{Family: FamilyPattern, Pattern: src}, func(m Match) string { return m.ID })
}

// PatternHit locates one occurrence of a pattern inside a sequence's
// symbol string, mapped back to the time span of the matched segments.
type PatternHit struct {
	ID             string
	SegLo, SegHi   int     // matched segment range [SegLo, SegHi)
	TimeLo, TimeHi float64 // time span covered by those segments
}

// SearchPattern finds every occurrence of the pattern within each stored
// symbol string (leftmost-longest, non-overlapping), for queries like the
// seismic "sudden vigorous activity" that target subsequences rather than
// whole sequences. Hits are ordered by (id, segment).
func (db *DB) SearchPattern(src string) ([]PatternHit, error) {
	return featureItems(db, QuerySpec{Family: FamilyFind, Pattern: src}, func(m Match) PatternHit { return *m.Hit })
}

// PeakCount answers "sequences with exactly k peaks" with a tolerance on
// the count dimension: matches with |peaks - k| == 0 are exact; deviations
// up to tol are approximate (§2.2's example of deviating "in the number of
// peaks" dimension). Matches come exact first, then by deviation, then id.
func (db *DB) PeakCount(k, tol int) ([]Match, error) {
	matches, _, err := db.querySorted(context.Background(), QuerySpec{Family: FamilyPeaks, Peaks: k, PeakTolerance: tol}, QueryOptions{})
	return matches, err
}

// IntervalMatch is one result of an interval query: the sequence and the
// positions (gap numbers) whose peak-to-peak interval fell in range.
type IntervalMatch struct {
	ID        string
	Positions []int
	Intervals []float64
}

// IntervalQuery answers the paper's §5.2 R-R query "find all sequences
// with an inter-peak interval of n ± eps" through the inverted index
// (Figure 10). Results are ordered by id.
func (db *DB) IntervalQuery(n, eps float64) ([]IntervalMatch, error) {
	return featureItems(db, QuerySpec{Family: FamilyInterval, Interval: n, Eps: eps}, func(m Match) IntervalMatch { return *m.Interval })
}

// featureItems runs a feature-family query to completion and lays its
// matches out as the family's items (nil when there are none).
func featureItems[T any](db *DB, q QuerySpec, item func(Match) T) ([]T, error) {
	matches, _, err := db.querySorted(context.Background(), q, QueryOptions{})
	if err != nil || len(matches) == 0 {
		return nil, err
	}
	out := make([]T, len(matches))
	for i, m := range matches {
		out[i] = item(m)
	}
	return out, nil
}

// ---- feature-family producers ----
//
// Each reads the global query indexes under an imu read hold that copies
// out only what delivery needs — no callback runs under imu, as a yield
// may itself ingest — then delivers in its family's canonical order
// (find may take a further hold to walk on; see produceFind),
// polling the collector between items, so a bound, a declining callback
// or cancellation stops it with a prefix of the unbounded answer.

// producePattern delivers the ids whose group's symbol string matches
// the pattern, in id order: each distinct string is evaluated once, and
// one pass over the sorted id column lists the members.
func producePattern(db *DB, spec *querySpec, col *collector) (examined, candidates int) {
	c := &db.syms
	db.imu.RLock()
	accept := spec.pat.MatchEach(c.symbols, make([]bool, 0, len(c.symbols)))
	n := 0
	for g, ok := range accept {
		if ok {
			n += int(c.members[g])
		}
	}
	ids := make([]string, 0, n)
	for i, g := range db.idGroup {
		if accept[g] {
			ids = append(ids, db.ids[i])
		}
	}
	examined = len(db.ids)
	db.imu.RUnlock()
	col.reserve(len(ids))
	for _, id := range ids {
		if col.stopped() {
			break
		}
		col.found(Match{ID: id, Exact: true})
	}
	return examined, len(ids)
}

// produceFind delivers every occurrence of the pattern, in (id, segment)
// order. It walks the sorted id column under one imu read hold, finding a
// group's spans the first time the walk meets one of its members, and
// stops the walk once the hits it holds reach what the collector still
// takes: FIND … LIMIT n walks only as far as its n-th hit. After the
// hold the spans are mapped to time through each member's own
// representation, which may need paging in — the one feature producer
// that can touch disk, so it polls the collector before every record and
// every hit. When delivery skips a member (removed, or re-ingested with
// another shape), the hits fall short of the limit, and the walk resumes
// past the last id it reached, in a fresh hold: group ordinals, and so
// the memo of found spans, are good for one hold only.
func produceFind(db *DB, spec *querySpec, col *collector) (examined, candidates int) {
	type member struct {
		id, symbols string
		lo, hi      int32 // its spans are spans[lo:hi]
	}
	var (
		spans   [][2]int
		members []member
		// memo[g] is {lo, hi+1} once group g's spans are spans[lo:hi];
		// zero while the group is unseen in this hold.
		memo      [][2]int32
		delivered int
		// after is the last id walked; a resumed walk starts past it.
		after   string
		resumed bool
	)
	c := &db.syms
	for {
		want := math.MaxInt
		if col.limit > 0 {
			want = col.limit - delivered
		}
		spans, members = spans[:0], members[:0]
		hits := 0
		db.imu.RLock()
		memo = slices.Grow(memo[:0], len(c.symbols))[:len(c.symbols)]
		clear(memo)
		if col.limit == 0 {
			// Unbounded, the walk meets every member: every live group's
			// spans are found up front, which sizes members exactly.
			n := 0
			for g, count := range c.members {
				if count == 0 {
					continue
				}
				lo := len(spans)
				spans = spec.pat.AppendFindAll(spans, c.symbols[g])
				memo[g] = [2]int32{int32(lo), int32(len(spans)) + 1}
				if len(spans) > lo {
					n += int(count)
				}
			}
			members = slices.Grow(members, n)
		}
		start := 0
		if resumed {
			var found bool
			if start, found = slices.BinarySearch(db.ids, after); found {
				start++
			}
		}
		i := start
		for ; i < len(db.ids) && hits < want; i++ {
			g := db.idGroup[i]
			if memo[g][1] == 0 {
				lo := len(spans)
				spans = spec.pat.AppendFindAll(spans, c.symbols[g])
				memo[g] = [2]int32{int32(lo), int32(len(spans)) + 1}
			}
			if lo, hi := memo[g][0], memo[g][1]-1; hi > lo {
				members = append(members, member{db.ids[i], c.symbols[g], lo, hi})
				hits += int(hi - lo)
			}
		}
		examined += i - start
		walked := i == len(db.ids)
		if !walked {
			after, resumed = db.ids[i-1], true
		}
		db.imu.RUnlock()
		col.reserve(hits)
		for _, m := range members {
			if col.stopped() {
				break
			}
			candidates++
			// The spans index the group's symbol string: a record that no
			// longer carries it (removed, or removed and re-ingested with
			// another shape) is skipped.
			rec, ok := db.Record(m.id)
			if !ok || rec.Profile.Symbols != m.symbols {
				continue
			}
			// A record removed mid-walk is skipped, a genuine read fault
			// aborts the search.
			fs, err := db.materialize(rec)
			if err != nil {
				if err = db.verifyReadError(rec, err); err != nil {
					col.fail(fmt.Errorf("core: pattern search reading %q: %w", m.id, err))
					break
				}
				continue
			}
			occ := make([]PatternHit, m.hi-m.lo) // one allocation per record
			for j, span := range spans[m.lo:m.hi] {
				if col.stopped() {
					break
				}
				lo, hi := span[0], span[1]
				occ[j] = PatternHit{ID: m.id, SegLo: lo, SegHi: hi, TimeLo: fs.Segments[lo].StartT, TimeHi: fs.Segments[hi-1].EndT}
				col.found(Match{ID: m.id, Exact: true, Hit: &occ[j]})
				delivered++
			}
		}
		if walked || col.stopped() {
			return examined, candidates
		}
	}
}

// producePeaks delivers the records within PeakTolerance of Peaks peaks
// in the canonical order — exact first, then by deviation, then id — from
// a counting sort over the symbol groups' stored counts and one pass over
// the sorted id column.
func producePeaks(db *DB, spec *querySpec, col *collector) (examined, candidates int) {
	k, tol := spec.q.Peaks, spec.q.PeakTolerance
	c := &db.syms
	db.imu.RLock()
	examined = len(db.ids)
	// The deviations present span at most the range of peak counts, so
	// the sort counts from the smallest one within tolerance to the
	// largest, however large tol or k is.
	lo, hi := -1, -1
	for g, n := range c.members {
		if d := peakDeviation(c.peaks[g], k); n > 0 && d <= tol {
			if lo < 0 || d < lo {
				lo = d
			}
			hi = max(hi, d)
		}
	}
	if lo < 0 {
		db.imu.RUnlock()
		return examined, 0
	}
	// ends[d-lo] counts the hits of deviation d, then, summed, where they
	// end: after the pass below, ends[d-lo] is where they begin.
	var small [16]int // the usual few deviations stay off the heap
	ends := append(small[:0], make([]int, hi-lo+1)...)
	for g, n := range c.members {
		if d := peakDeviation(c.peaks[g], k); n > 0 && d <= tol {
			ends[d-lo] += int(n)
		}
	}
	for i := 1; i < len(ends); i++ {
		ends[i] += ends[i-1]
	}
	ids := make([]string, ends[len(ends)-1])
	// Walking the id column backwards fills each deviation's run from its
	// end, so every run is in id order.
	for i := len(db.idGroup) - 1; i >= 0; i-- {
		if d := peakDeviation(c.peaks[db.idGroup[i]], k); d <= tol {
			ends[d-lo]--
			ids[ends[d-lo]] = db.ids[i]
		}
	}
	db.imu.RUnlock()
	col.reserve(len(ids))
	o := 0
	for i, id := range ids {
		if col.stopped() {
			break
		}
		for o+1 < len(ends) && i >= ends[o+1] {
			o++
		}
		dev := lo + o
		col.found(Match{ID: id, Exact: dev == 0, Deviations: map[string]float64{"peaks": float64(dev)}})
	}
	return examined, len(ids)
}

// peakDeviation is |peaks - k|.
func peakDeviation(peaks int32, k int) int {
	if d := int(peaks) - k; d >= 0 {
		return d
	}
	return k - int(peaks)
}

// produceInterval delivers, in id order, one match per record holding an
// inter-peak interval in Interval ± Eps, carrying every such interval and
// its position: the inverted file answers for the buckets, and each
// posting is checked against the record read afterwards.
func produceInterval(db *DB, spec *querySpec, col *collector) (examined, candidates int) {
	lo, hi := spec.q.Interval-spec.q.Eps, spec.q.Interval+spec.q.Eps
	db.imu.RLock()
	refs, err := db.rrIndex.Query(lo, hi)
	db.imu.RUnlock()
	if err != nil {
		col.fail(fmt.Errorf("core: %w", err))
		return 0, 0
	}
	var cur *IntervalMatch
	for i, ref := range refs {
		// The record read now may not be the one the index answered for:
		// removed and re-ingested meanwhile, it carries other intervals.
		// A position that no longer holds an interval in the queried
		// buckets is skipped.
		rec, ok := db.Record(ref.ID)
		if pos := int(ref.Pos); ok && pos >= 0 && pos < len(rec.Profile.Intervals) && db.rrIndex.Covers(lo, hi, rec.Profile.Intervals[pos]) {
			if cur == nil {
				cur = &IntervalMatch{ID: ref.ID}
			}
			cur.Positions = append(cur.Positions, pos)
			cur.Intervals = append(cur.Intervals, rec.Profile.Intervals[pos])
		}
		if cur != nil && (i+1 == len(refs) || refs[i+1].ID != ref.ID) {
			if col.stopped() {
				break
			}
			candidates++
			col.found(Match{ID: cur.ID, Exact: true, Interval: cur})
			cur = nil
		}
	}
	return len(refs), candidates
}

// ShapeTolerance sets the per-dimension error tolerances of a generalized
// approximate query (§2.2: "The error tolerance must be a metric function
// defined over each dimension"). Zero tolerances demand exact feature
// agreement.
type ShapeTolerance struct {
	// Peaks tolerates a difference in peak count.
	Peaks int
	// Height tolerates relative deviation of peak heights above baseline
	// (0.2 = 20%).
	Height float64
	// Spacing tolerates relative deviation of normalized peak spacing
	// (dilation-invariant).
	Spacing float64
}

// ShapeQuery is the generalized approximate query: the exemplar denotes
// the whole equivalence class of sequences sharing its feature profile
// under feature-preserving transformations (time/amplitude shift, scaling,
// dilation). The exemplar is pushed through the same representation
// pipeline as stored data; candidates are compared feature-wise with
// per-dimension tolerances. The candidate scan is shard-parallel across
// the configured worker pool; ShapeQueryCtx adds cancellation and result
// bounds.
func (db *DB) ShapeQuery(exemplar seq.Sequence, tol ShapeTolerance) ([]Match, error) {
	matches, _, err := db.ShapeQueryCtx(context.Background(), exemplar, tol, QueryOptions{})
	return matches, err
}

// shapeSig is the exemplar's transformation-invariant signature: peak
// heights above the baseline normalized by the tallest peak (invariant to
// amplitude shift and scaling), and peak spacing as fractions of the time
// span (invariant to time shift and dilation).
type shapeSig struct {
	heights []float64
	spacing []float64
}

// shapeSignatureOf runs the exemplar through the ingestion pipeline
// (without storing it) and normalizes its peaks.
func (db *DB) shapeSignatureOf(exemplar seq.Sequence) (shapeSig, error) {
	work := exemplar
	if db.cfg.Preprocess != nil {
		pre, err := db.cfg.Preprocess.Run(exemplar)
		if err != nil {
			return shapeSig{}, fmt.Errorf("core: preprocessing exemplar: %w", err)
		}
		work = pre
	}
	segs, err := db.cfg.Breaker.Break(work)
	if err != nil {
		return shapeSig{}, fmt.Errorf("core: breaking exemplar: %w", err)
	}
	fs, err := rep.Build(work, segs, db.cfg.Representer)
	if err != nil {
		return shapeSig{}, fmt.Errorf("core: representing exemplar: %w", err)
	}
	profile, err := feature.Extract(fs, db.cfg.Delta)
	if err != nil {
		return shapeSig{}, fmt.Errorf("core: extracting exemplar features: %w", err)
	}
	peaks, span, base := profile.Peaks, spanOf(fs), baselineOf(fs)
	tallest, ok := peakScale(peaks, span, base)
	if !ok {
		return shapeSig{}, fmt.Errorf("core: exemplar: no peak above the baseline over a positive time span")
	}
	q := shapeSig{heights: make([]float64, len(peaks)), spacing: make([]float64, len(peaks)-1)}
	for i := range peaks {
		q.heights[i] = (peaks[i].Value - base) / tallest
		if i > 0 {
			q.spacing[i-1] = (peaks[i].Time - peaks[i-1].Time) / span
		}
	}
	return q, nil
}

// score compares one record's peaks against the signature — ShapeQuery's
// verification kernel. It reads only what stays resident (the profile's
// peaks and the span and baseline setRep cached), so no payload is paged
// in, and it allocates only a match's Deviations.
func (q *shapeSig) score(rec *Record, tol ShapeTolerance) (Match, bool) {
	peaks, span, base := rec.Profile.Peaks, rec.repSpan, rec.repBase
	devPeaks := math.Abs(float64(len(peaks)) - float64(len(q.heights)))
	if devPeaks > float64(tol.Peaks) {
		return Match{}, false
	}
	tallest, ok := peakScale(peaks, span, base)
	if !ok {
		return Match{}, false // featureless sequence cannot match a shaped exemplar
	}
	devHeight, devSpacing := 0.0, 0.0
	if devPeaks == 0 {
		for i := range peaks {
			if d := math.Abs(q.heights[i] - (peaks[i].Value-base)/tallest); d > devHeight {
				devHeight = d
			}
		}
		for i := 1; i < len(peaks); i++ {
			if d := math.Abs(q.spacing[i-1] - (peaks[i].Time-peaks[i-1].Time)/span); d > devSpacing {
				devSpacing = d
			}
		}
		if devHeight > tol.Height+1e-12 || devSpacing > tol.Spacing+1e-12 {
			return Match{}, false
		}
	}
	const exactSlack = 1e-9
	return Match{
		ID:    rec.ID,
		Exact: devPeaks == 0 && devHeight <= exactSlack && devSpacing <= exactSlack,
		Deviations: map[string]float64{
			"peaks":   devPeaks,
			"height":  devHeight,
			"spacing": devSpacing,
		},
	}, true
}

// peakScale returns the tallest peak's height above base, and whether the
// peaks can be normalized at all: at least one of them, over a positive
// time span, standing above the baseline.
func peakScale(peaks []feature.Peak, span, base float64) (float64, bool) {
	if len(peaks) == 0 || span <= 0 {
		return 0, false
	}
	tallest := 0.0
	for i := range peaks {
		if h := peaks[i].Value - base; h > tallest {
			tallest = h
		}
	}
	return tallest, tallest > 0
}

// spanOf is the time span a representation covers.
func spanOf(fs *rep.FunctionSeries) float64 {
	if len(fs.Segments) == 0 {
		return 0
	}
	return fs.Segments[len(fs.Segments)-1].EndT - fs.Segments[0].StartT
}

// baselineOf estimates a sequence's resting level from its representation:
// the minimum boundary value across segments.
func baselineOf(fs *rep.FunctionSeries) float64 {
	base := math.Inf(1)
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		if sg.StartV < base {
			base = sg.StartV
		}
		if sg.EndV < base {
			base = sg.EndV
		}
	}
	return base
}
