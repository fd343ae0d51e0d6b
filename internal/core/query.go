package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/pattern"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
)

// Match is one query result. Exact matches are members of the query's
// sequence set (§2.2 item 4); approximate matches deviate from it along
// named feature dimensions, each within its tolerance. Deviations maps
// dimension name to the observed deviation (0 for exact dimensions).
type Match struct {
	ID         string
	Exact      bool
	Deviations map[string]float64
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
// of its stored representation, in every configuration (the archive keeps
// originals for Raw and answers no query). Under a memory budget the
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
// string matches the pattern — the §4.4 query mechanism. The pattern uses
// the U/F/D alphabet (see package pattern; helpers such as
// pattern.TwoPeak() build the paper's canned queries). Each distinct
// symbol string in the database is evaluated once, however many sequences
// share it.
func (db *DB) MatchPattern(src string) ([]string, error) {
	p, err := pattern.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var out []string
	db.imu.RLock()
	for symbols, g := range db.symIndex {
		if p.Match(symbols) {
			out = append(out, g.ids...)
		}
	}
	db.imu.RUnlock()
	slices.Sort(out)
	return out, nil
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
// whole sequences. Occurrence spans are computed once per distinct symbol
// string and mapped back to each sharing sequence's own time axis. Hits
// are ordered by (id, segment).
func (db *DB) SearchPattern(src string) ([]PatternHit, error) {
	p, err := pattern.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Each matching symbol string's spans are found once; its members'
	// ids, sorted together, then emit the hits in (id, segment) order,
	// since each group's spans are already in segment order.
	type groupHits struct {
		symbols string
		spans   [][2]int
	}
	type member struct {
		id    string
		group int
	}
	var (
		groups  []groupHits
		members []member
	)
	db.imu.RLock()
	for symbols, g := range db.symIndex {
		if spans := p.FindAll(symbols); len(spans) > 0 {
			// Copy the ids out: insertSorted/removeSorted shift them in
			// place under the write lock.
			for _, id := range g.ids {
				members = append(members, member{id, len(groups)})
			}
			groups = append(groups, groupHits{symbols, spans})
		}
	}
	db.imu.RUnlock()
	slices.SortFunc(members, func(a, b member) int { return strings.Compare(a.id, b.id) })
	var out []PatternHit
	for _, m := range members {
		g := groups[m.group]
		// The spans index the group's symbol string: a record that no
		// longer carries it (removed, or removed and re-ingested with
		// another shape) is skipped.
		rec, ok := db.Record(m.id)
		if !ok || rec.Profile.Symbols != g.symbols {
			continue
		}
		// The hit spans are mapped to time through the representation,
		// which may need paging in; a record removed mid-walk is
		// skipped, a genuine read fault aborts the search.
		fs, err := db.materialize(rec)
		if err != nil {
			if err = db.verifyReadError(rec, err); err != nil {
				return nil, fmt.Errorf("core: pattern search reading %q: %w", m.id, err)
			}
			continue
		}
		for _, span := range g.spans {
			lo, hi := span[0], span[1]
			out = append(out, PatternHit{
				ID:     m.id,
				SegLo:  lo,
				SegHi:  hi,
				TimeLo: fs.Segments[lo].StartT,
				TimeHi: fs.Segments[hi-1].EndT,
			})
		}
	}
	return out, nil
}

// PeakCount answers "sequences with exactly k peaks" with a tolerance on
// the count dimension: matches with |peaks - k| == 0 are exact; deviations
// up to tol are approximate (§2.2's example of deviating "in the number of
// peaks" dimension).
func (db *DB) PeakCount(k, tol int) ([]Match, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative peak count %d", k)
	}
	if tol < 0 {
		return nil, fmt.Errorf("core: negative tolerance %d", tol)
	}
	type hit struct {
		dev int
		id  string
	}
	var hits []hit
	db.imu.RLock()
	for _, g := range db.symIndex {
		dev := g.peaks - k
		if dev < 0 {
			dev = -dev
		}
		if dev <= tol {
			for _, id := range g.ids {
				hits = append(hits, hit{dev, id})
			}
		}
	}
	db.imu.RUnlock()
	// The canonical order: exact first, then by deviation, then id.
	slices.SortFunc(hits, func(a, b hit) int {
		if a.dev != b.dev {
			return cmp.Compare(a.dev, b.dev)
		}
		return strings.Compare(a.id, b.id)
	})
	var out []Match
	for _, h := range hits {
		out = append(out, Match{ID: h.id, Exact: h.dev == 0, Deviations: map[string]float64{"peaks": float64(h.dev)}})
	}
	return out, nil
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
	if eps < 0 {
		return nil, fmt.Errorf("core: negative tolerance %g", eps)
	}
	db.imu.RLock()
	refs, err := db.rrIndex.Query(n-eps, n+eps)
	db.imu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var out []IntervalMatch
	for _, ref := range refs {
		rec, ok := db.Record(ref.ID)
		if !ok {
			continue
		}
		pos := int(ref.Pos)
		if pos < 0 || pos >= len(rec.Profile.Intervals) {
			continue
		}
		if len(out) == 0 || out[len(out)-1].ID != ref.ID {
			out = append(out, IntervalMatch{ID: ref.ID})
		}
		m := &out[len(out)-1]
		m.Positions = append(m.Positions, pos)
		m.Intervals = append(m.Intervals, rec.Profile.Intervals[pos])
	}
	return out, nil
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
