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

// reconPool recycles the verification tiers' reconstruction buffers: a
// candidate is reconstructed into pooled scratch, compared, and the
// buffer goes back, so steady-state verification allocates nothing per
// candidate. Nothing a verification returns may alias the buffer — which
// is why dist.Metric implementations must not retain their arguments.
var reconPool = sync.Pool{New: func() any { return new(seq.Sequence) }}

// storedSequence reads the comparison form of a record into *buf (reused
// and grown as needed, and left holding the result): the reconstruction
// of its stored representation, in every configuration. Under a memory budget the
// representation may be cold — materialize pages it back in from the
// segment tier, so this is the one place the query verification fan-out
// touches disk. A failure here is a storage fault, not a bad query — the
// record is committed but its comparison form is unreadable — so the
// error wraps ErrStorage for callers (the serving layer) to classify; a
// record removed mid-scan surfaces the fault-in's ErrUnknownID, which
// verifyReadError turns into a skip.
func (db *DB) storedSequence(rec *Record, buf *seq.Sequence) (seq.Sequence, error) {
	fs, err := db.materialize(rec)
	if err != nil {
		return nil, err
	}
	s, err := fs.AppendReconstruction((*buf)[:0])
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrStorage, err)
	}
	*buf = s
	return s, nil
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
// Each reads the global query indexes under one imu read hold that copies
// out only what delivery needs — no callback runs under imu, as a yield
// may itself ingest — then delivers in its family's canonical order,
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
// order. Each symbol string's spans are found once, in segment order;
// they are mapped to time through each member's own representation,
// which may need paging in — the one feature producer that can touch
// disk, so it polls the collector before every record and every hit.
func produceFind(db *DB, spec *querySpec, col *collector) (examined, candidates int) {
	type member struct {
		id      string
		symbols string
		spans   [][2]int
	}
	c := &db.syms
	db.imu.RLock()
	// Group g's spans are spans[bounds[g]:bounds[g+1]].
	spans, bounds := spec.pat.FindEach(c.symbols, nil, append(make([]int, 0, len(c.symbols)+1), 0))
	n, hits := 0, 0
	for g, m := range c.members {
		if found := bounds[g+1] - bounds[g]; found > 0 {
			n += int(m)
			hits += int(m) * found
		}
	}
	members := make([]member, 0, n)
	for i, g := range db.idGroup {
		if lo, hi := bounds[g], bounds[g+1]; hi > lo {
			members = append(members, member{db.ids[i], c.symbols[g], spans[lo:hi]})
		}
	}
	examined = len(db.ids)
	db.imu.RUnlock()
	col.reserve(hits)
	for _, m := range members {
		if col.stopped() {
			break
		}
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
		occ := make([]PatternHit, len(m.spans)) // one allocation per record
		for j, span := range m.spans {
			if col.stopped() {
				break
			}
			lo, hi := span[0], span[1]
			occ[j] = PatternHit{ID: m.id, SegLo: lo, SegHi: hi, TimeLo: fs.Segments[lo].StartT, TimeHi: fs.Segments[hi-1].EndT}
			col.found(Match{ID: m.id, Exact: true, Hit: &occ[j]})
		}
	}
	return examined, len(members)
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

// shapeVerify compares one record's feature signature against the
// exemplar's — ShapeQuery's verification kernel. fs is the record's
// materialized representation (span and baseline read segment
// boundaries, which are not part of the resident profile).
func shapeVerify(rec *Record, fs *rep.FunctionSeries, qSig sig, tol ShapeTolerance) (Match, bool, error) {
	span := fs.Segments[len(fs.Segments)-1].EndT - fs.Segments[0].StartT
	base := baselineOf(fs)
	rSig, err := shapeSignature(peakPoints(rec.Profile), span, base)
	if err != nil {
		return Match{}, false, nil // featureless sequence cannot match a shaped exemplar
	}

	devPeaks := math.Abs(float64(len(rSig.spacing)+1) - float64(len(qSig.spacing)+1))
	if devPeaks > float64(tol.Peaks) {
		return Match{}, false, nil
	}
	devHeight, devSpacing := 0.0, 0.0
	if devPeaks == 0 {
		devHeight = relDeviation(qSig.heights, rSig.heights)
		devSpacing = relDeviation(qSig.spacing, rSig.spacing)
		if devHeight > tol.Height+1e-12 || devSpacing > tol.Spacing+1e-12 {
			return Match{}, false, nil
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
	}, true, nil
}

// queryProfile carries the exemplar's extracted features.
type queryProfile struct {
	peaks []peakPoint
	span  float64
	base  float64
}

type peakPoint struct {
	t, v float64
}

// profileOf runs the exemplar through the ingestion pipeline (without
// storing it) and extracts peak features.
func (db *DB) profileOf(exemplar seq.Sequence) (*queryProfile, error) {
	if len(exemplar) == 0 {
		return nil, fmt.Errorf("core: empty exemplar")
	}
	work := exemplar
	if db.cfg.Preprocess != nil {
		pre, err := db.cfg.Preprocess.Run(exemplar)
		if err != nil {
			return nil, fmt.Errorf("core: preprocessing exemplar: %w", err)
		}
		work = pre
	}
	segs, err := db.cfg.Breaker.Break(work)
	if err != nil {
		return nil, fmt.Errorf("core: breaking exemplar: %w", err)
	}
	fs, err := rep.Build(work, segs, db.cfg.Representer)
	if err != nil {
		return nil, fmt.Errorf("core: representing exemplar: %w", err)
	}
	profile, err := feature.Extract(fs, db.cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: extracting exemplar features: %w", err)
	}
	span := fs.Segments[len(fs.Segments)-1].EndT - fs.Segments[0].StartT
	return &queryProfile{peaks: peakPoints(profile), span: span, base: baselineOf(fs)}, nil
}

// shapeSignature normalizes peaks into transformation-invariant vectors:
// spacing as fractions of the time span (invariant to time shift and
// dilation) and heights above baseline normalized by the tallest peak
// (invariant to amplitude shift and scaling).
type sig struct {
	spacing []float64
	heights []float64
}

func shapeSignature(peaks []peakPoint, span, base float64) (sig, error) {
	if len(peaks) == 0 {
		return sig{}, fmt.Errorf("no peaks")
	}
	if span <= 0 {
		return sig{}, fmt.Errorf("empty time span")
	}
	s := sig{heights: make([]float64, len(peaks))}
	tallest := 0.0
	for i, p := range peaks {
		h := p.v - base
		s.heights[i] = h
		if h > tallest {
			tallest = h
		}
	}
	if tallest <= 0 {
		return sig{}, fmt.Errorf("peaks not above baseline")
	}
	for i := range s.heights {
		s.heights[i] /= tallest
	}
	for i := 1; i < len(peaks); i++ {
		s.spacing = append(s.spacing, (peaks[i].t-peaks[i-1].t)/span)
	}
	return s, nil
}

// relDeviation returns the largest absolute difference between paired
// entries, as a fraction relative to a unit-normalized signature.
func relDeviation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func peakPoints(p *feature.Profile) []peakPoint {
	out := make([]peakPoint, 0, len(p.Peaks))
	for _, pk := range p.Peaks {
		out = append(out, peakPoint{t: pk.Time, v: pk.Value})
	}
	return out
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
