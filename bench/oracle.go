package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"

	"seqrep"
	"seqrep/api"
	"seqrep/internal/breaking"
	"seqrep/internal/feature"
	"seqrep/internal/rep"
)

// The oracle recomputes answers from the benchmark's own copies: plain
// loops for distances, the record profiles for peak counts and intervals,
// Go's regexp for the slope patterns. It never asks the server under test
// what the right answer is. Only MATCH SHAPE, whose predicate has no
// short independent form, is compared with the same engine run in-process
// on the pristine corpus.

const (
	distTol     = 1e-6 // a record this close to a threshold may fall either way
	recentNew   = 20   // recall over run-written ids is checked on this many most recent ones
	presentYes  = 1
	presentNo   = -1
	presentMayb = 0
)

// write is one acknowledged or attempted mutation of an id, on the run clock.
type write struct {
	seq        *newSeq
	sent, done float64
	acked      bool
	delSent    float64 // 0 when never deleted
	delDone    float64
	delAcked   bool
	probed     bool // a durability drill has already looked for it
}

type oracle struct {
	c      *corpus
	refDB  *seqrep.DB // pristine in-process copy; SHAPE reference only
	writes map[string]*write
	order  []*write // acknowledged ingests in acknowledgement order
	regexs map[string]*regexp.Regexp
	shapes map[string]map[string]bool
}

func newOracle(c *corpus, refDB *seqrep.DB) *oracle {
	return &oracle{c: c, refDB: refDB, writes: map[string]*write{}, regexs: map[string]*regexp.Regexp{}, shapes: map[string]map[string]bool{}}
}

// observe folds a phase's mutations into the event log.
func (o *oracle) observe(p *phase) {
	for i := range p.samples {
		s := &p.samples[i]
		for _, ns := range s.op.wrote {
			w := &write{seq: ns, sent: s.sent, done: s.done, acked: s.ok}
			o.writes[ns.id] = w
			if s.ok {
				o.order = append(o.order, w)
			}
		}
		if s.op.delID != "" {
			if w := o.writes[s.op.delID]; w != nil {
				w.delSent, w.delDone, w.delAcked = s.sent, s.done, s.ok
			}
		}
	}
	sort.SliceStable(o.order, func(i, j int) bool { return o.order[i].done < o.order[j].done })
}

// presence says whether id was in the database for the whole of a
// request's flight, for none of it, or for an unknowable part.
func (o *oracle) presence(id string, q *sample) int {
	if _, base := o.c.byID[id]; base {
		return presentYes // the workloads never delete corpus records
	}
	w := o.writes[id]
	if w == nil || w.sent > q.done {
		return presentNo
	}
	if w.delAcked && w.delDone < q.sent {
		return presentNo
	}
	if w.acked && w.done < q.sent && (w.delSent == 0 || w.delSent > q.done) {
		return presentYes
	}
	return presentMayb
}

// resolve returns the oracle's record for id, running the benchmark's own
// break → represent → extract call for a run-written sequence on first use.
func (o *oracle) resolve(id string) (*record, error) {
	if r, ok := o.c.byID[id]; ok {
		return r, nil
	}
	w := o.writes[id]
	if w == nil {
		return nil, fmt.Errorf("id %q was never written", id)
	}
	if w.seq.rec != nil {
		return w.seq.rec, nil
	}
	s := seqrep.NewSequence(w.seq.vals)
	segs, err := breaking.Interpolation(o.c.cfg.Epsilon).Break(s)
	if err != nil {
		return nil, err
	}
	fs, err := rep.Build(s, segs, nil)
	if err != nil {
		return nil, err
	}
	prof, err := feature.Extract(fs, o.c.cfg.Delta)
	if err != nil {
		return nil, err
	}
	recon, err := fs.Reconstruct()
	if err != nil {
		return nil, err
	}
	w.seq.rec = &record{id: id, family: "new", seq: s, recon: recon.Values(), profile: prof}
	return w.seq.rec, nil
}

// candidates are the records a recall check ranges over: every corpus
// record plus the most recent run-written ids surely present.
func (o *oracle) candidates(q *sample) []*record {
	out := append([]*record(nil), o.c.recs...)
	n := 0
	for i := len(o.order) - 1; i >= 0 && n < recentNew; i-- {
		w := o.order[i]
		if o.presence(w.seq.id, q) != presentYes {
			continue
		}
		if r, err := o.resolve(w.seq.id); err == nil {
			out = append(out, r)
			n++
		}
	}
	return out
}

// checkSet verifies a returned id set against a predicate: no duplicates,
// no id that was surely absent, no id failing the predicate, and every
// surely-present candidate that satisfies it returned — or, under a
// LIMIT, exactly `limit` answers whenever that many exist.
func (o *oracle) checkSet(q *sample, returned []string, limit int, pred func(*record) (bool, error)) error {
	seen := make(map[string]bool, len(returned))
	for _, id := range returned {
		if seen[id] {
			return fmt.Errorf("id %s returned twice", id)
		}
		seen[id] = true
		if o.presence(id, q) == presentNo {
			return fmt.Errorf("id %s returned but not in the database", id)
		}
		r, err := o.resolve(id)
		if err != nil {
			return err
		}
		ok, err := pred(r)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("id %s returned but does not satisfy the statement", id)
		}
	}
	must := 0
	for _, r := range o.candidates(q) {
		ok, err := pred(r)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		must++
		if limit == 0 && !seen[r.id] {
			return fmt.Errorf("id %s satisfies the statement but was not returned", r.id)
		}
	}
	if limit > 0 {
		if len(returned) > limit {
			return fmt.Errorf("%d answers exceed LIMIT %d", len(returned), limit)
		}
		if len(returned) < min(limit, must) {
			return fmt.Errorf("%d answers where at least %d exist", len(returned), min(limit, must))
		}
	}
	return nil
}

// distance is the oracle's own distance between an exemplar and a record
// in the comparison form, or ok=false when lengths differ.
func distance(family string, ex, r *record) (float64, bool) {
	if len(ex.recon) != len(r.recon) {
		return 0, false
	}
	switch family {
	case "zl2":
		return l2(znormalize(ex.recon), znormalize(r.recon)), true
	case "value":
		return linf(ex.recon, r.recon), true
	default:
		return l2(ex.recon, r.recon), true
	}
}

func (o *oracle) regex(pat string, whole bool) (*regexp.Regexp, error) {
	key := pat
	if whole {
		key = "^(?:" + pat + ")$"
	}
	if re, ok := o.regexs[key]; ok {
		return re, nil
	}
	re, err := regexp.Compile(key)
	if err != nil {
		return nil, err
	}
	re.Longest()
	o.regexs[key] = re
	return re, nil
}

// verify checks one kept response and returns nil when it is right.
func (o *oracle) verify(q *sample) error {
	st := q.op.stmt
	if st.family == "prog" {
		return o.verifyStream(q)
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(q.body, &resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	switch st.family {
	case "l2", "zl2", "value":
		return o.checkSet(q, resp.IDs, 0, func(r *record) (bool, error) {
			d, ok := distance(st.family, st.exemplar, r)
			if !ok {
				return false, nil
			}
			if math.Abs(d-st.eps) <= distTol {
				// Either verdict is right this close to the threshold.
				return contains(resp.IDs, r.id), nil
			}
			return d <= st.eps, nil
		})
	case "top":
		// The ten nearest among the records within ε (fewer when fewer
		// are that near).
		var ds []float64
		for _, r := range o.candidates(q) {
			if d, ok := distance("l2", st.exemplar, r); ok && d <= st.eps {
				ds = append(ds, d)
			}
		}
		sort.Float64s(ds)
		k := min(topK, len(ds))
		if len(resp.IDs) != k {
			return fmt.Errorf("TOP %d returned %d where %d lie within ε", topK, len(resp.IDs), len(ds))
		}
		if k == 0 {
			return nil
		}
		kth := ds[k-1]
		return o.checkSet(q, resp.IDs, k, func(r *record) (bool, error) {
			d, ok := distance("l2", st.exemplar, r)
			return ok && d <= kth+distTol, nil
		})
	case "peaks":
		return o.checkSet(q, resp.IDs, st.limit, func(r *record) (bool, error) {
			dev := len(r.profile.Peaks) - st.k
			return dev >= -st.tol && dev <= st.tol, nil
		})
	case "interval":
		width := o.c.cfg.BucketWidth
		lo, hi := math.Floor((st.n-st.eps)/width), math.Floor((st.n+st.eps)/width)
		return o.checkSet(q, resp.IDs, 0, func(r *record) (bool, error) {
			for _, iv := range r.profile.Intervals {
				if b := math.Floor(iv / width); b >= lo && b <= hi {
					return true, nil
				}
			}
			return false, nil
		})
	case "pattern":
		re, err := o.regex(st.pattern, true)
		if err != nil {
			return err
		}
		return o.checkSet(q, resp.IDs, 0, func(r *record) (bool, error) {
			return re.MatchString(r.profile.Symbols), nil
		})
	case "find":
		re, err := o.regex(st.pattern, false)
		if err != nil {
			return err
		}
		if len(resp.Hits) > st.limit {
			return fmt.Errorf("%d hits exceed LIMIT %d", len(resp.Hits), st.limit)
		}
		// Hits are per occurrence; ids repeat. The predicate is at least
		// one non-empty occurrence, and every hit must be an occurrence.
		occ := func(r *record) [][]int {
			var out [][]int
			for _, m := range re.FindAllStringIndex(r.profile.Symbols, -1) {
				if m[1] > m[0] {
					out = append(out, m)
				}
			}
			return out
		}
		for _, h := range resp.Hits {
			if o.presence(h.ID, q) == presentNo {
				return fmt.Errorf("hit in %s, which is not in the database", h.ID)
			}
			r, err := o.resolve(h.ID)
			if err != nil {
				return err
			}
			found := false
			for _, m := range occ(r) {
				if m[0] == h.SegLo && m[1] == h.SegHi {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("hit %s[%d,%d) is not an occurrence of %q in %q", h.ID, h.SegLo, h.SegHi, st.pattern, r.profile.Symbols)
			}
		}
		total := 0
		for _, r := range o.c.recs {
			total += len(occ(r))
		}
		if len(resp.Hits) < min(st.limit, total) {
			return fmt.Errorf("%d hits where at least %d exist", len(resp.Hits), min(st.limit, total))
		}
		return nil
	case "shape":
		want, ok := o.shapes[st.text]
		if !ok {
			res, err := seqrep.ExecQuery(o.refDB, st.text)
			if err != nil {
				return fmt.Errorf("reference engine: %w", err)
			}
			want = make(map[string]bool, len(res.IDs))
			for _, id := range res.IDs {
				want[id] = true
			}
			o.shapes[st.text] = want
		}
		got := map[string]bool{}
		for _, id := range resp.IDs {
			got[id] = true
			if _, base := o.c.byID[id]; base && !want[id] {
				return fmt.Errorf("id %s returned but absent from the reference answer", id)
			}
		}
		for id := range want {
			if !got[id] {
				return fmt.Errorf("id %s in the reference answer but not returned", id)
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for family %q", st.family)
}

// verifyStream checks a progressive stream: every band must contain the
// brute-force distance, everything within ε must be accepted, and
// everything accepted must lie within ε + the declared error.
func (o *oracle) verifyStream(q *sample) error {
	st := q.op.stmt
	var accepted []string
	sc := bufio.NewScanner(bytes.NewReader(q.body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var f api.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("undecodable frame: %w", err)
		}
		if f.Refine != nil {
			r, err := o.resolve(f.Refine.ID)
			if err != nil {
				return err
			}
			d, ok := distance("l2", st.exemplar, r)
			if !ok {
				return fmt.Errorf("band for %s, which is not comparable", r.id)
			}
			if d < f.Refine.Lo-distTol || (f.Refine.Hi != nil && d > *f.Refine.Hi+distTol) {
				return fmt.Errorf("band [%g,%v] of %s at tier %s excludes the true distance %g", f.Refine.Lo, f.Refine.Hi, r.id, f.Refine.Tier, d)
			}
		}
		if f.Match != nil {
			accepted = append(accepted, f.Match.ID)
		}
	}
	return o.checkSet(q, accepted, 0, func(r *record) (bool, error) {
		d, ok := distance("l2", st.exemplar, r)
		if !ok {
			return false, nil
		}
		if d > st.eps+distTol && d <= st.eps+st.maxErr+distTol {
			return contains(accepted, r.id), nil // inside the declared error: either verdict
		}
		return d <= st.eps+distTol, nil
	})
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// l2 and zl2 are the oracle's own kernels: plain loops over its own copies.
func l2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func znormalize(v []float64) []float64 {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	ss := 0.0
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	std := math.Sqrt(ss / float64(len(v)))
	out := make([]float64, len(v))
	if std == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - mean) / std
	}
	return out
}

func linf(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
