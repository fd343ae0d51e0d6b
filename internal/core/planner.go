package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/multires"
)

// Plan names for QueryStats.Plan.
const (
	// PlanIndex is exact delivery from the feature-index source:
	// lower-bound candidate generation over the columnar DFT feature store
	// (through its vantage-point tree when the length group is large
	// enough), then the sketch and feature-bound tiers, then exact
	// verification of the survivors only.
	PlanIndex = "index"
	// PlanScan is exact delivery from the linear source, a shard-parallel
	// walk of every record (a custom metric, a database without the
	// index, or a shape query), with the same tiers behind it.
	PlanScan = "scan"
	// PlanProgressive is progressive delivery from either source: the
	// same pipeline with its band frames on (see progressive.go).
	PlanProgressive = "progressive"
	// The feature families' fixed access paths: the symbol catalogue
	// (pattern, find), the peak-count sort over it (peaks) and the
	// inverted file of inter-peak intervals (interval).
	PlanSymbolIndex   = "symbol-index"
	PlanRecordScan    = "record-scan"
	PlanInvertedIndex = "inverted-index"
)

// QueryStats reports how a query was executed: which source the
// similarity pipeline took (or which access path a feature family
// walked) and how much work each stage did. A similarity query's
// counters mean the same under exact and progressive delivery, which run
// one pipeline: with MaxError 0 and no tier cap the two report equal
// Examined, Pruned, Sketched and Candidates.
//
// On the index source (PlanIndex, and PlanProgressive over a metric with
// a featureScale entry: every built-in metric and the value band)
// Examined counts feature vectors actually compared — with a
// vantage-point tree up, typically far below the length group's
// population, the rest discarded wholesale by the tree's
// triangle-inequality pruning — and every examined record is accounted
// for: Examined = Pruned + BandAccepted + Candidates on a run that
// neither Limit nor the caller cut short. On the linear source (PlanScan,
// and PlanProgressive over a custom metric or without the index) Examined
// counts every record visited; the records of other lengths are in no
// other counter, and the rest are pruned by a band, band-accepted or
// verified, so the scan plan prunes too.
//
// A feature family's plan is its fixed access path: Examined counts the
// records its index walk covered (for intervals, the postings the
// inverted file returned) and Candidates the records the walk selected.
type QueryStats struct {
	// Query is the query family (one of the Family constants).
	Query string
	// Metric is the distance metric name ("band" for ValueQuery's ±ε
	// semantics).
	Metric string
	// Plan names the similarity families' source under exact delivery
	// (PlanIndex or PlanScan) or progressive delivery (PlanProgressive),
	// and the family's access path for the feature families.
	Plan string
	// Examined counts the records the plan looked at: feature vectors
	// compared (plus unindexed records) on the index source, all records
	// on the linear source. A feature family counts the ids its walk
	// covered — FamilyFind's walk stops at the record holding its
	// Limit-th hit — and FamilyInterval the postings the inverted file
	// returned.
	Examined int
	// Candidates counts the records whose exact samples were compared
	// (FamilyShape: the records scored from their resident features). A
	// feature family counts the records it selected; FamilyFind counts
	// the members whose hits delivery visited.
	Candidates int
	// Pruned counts the records eliminated without reading their samples:
	// by the index's feature bound (when it is the source), a sketch band
	// or a candidate-tier band whose lower edge exceeds the tolerance
	// (under TopK, the shrinking radius).
	Pruned int
	// Matches counts the results returned (for FamilyFind, occurrences).
	Matches int
	// Sketched counts the records banded from their sketch at the sketch
	// tier: the index's survivors when it is the source, every
	// length-matching record on the linear source (0 for FamilyShape and
	// when sketches are disabled).
	Sketched int
	// BandAccepted counts matches accepted on their error band alone —
	// finalized at a non-exact tier without reading samples.
	BandAccepted int
	// Truncated reports that a result bound (QueryOptions.Limit or TopK)
	// took effect: the query stopped before enumerating the full match
	// set, so the unbounded answer may hold more (or, under TopK, other)
	// matches. It is conservative at the boundary: a Limit run sets it the
	// moment the Limit-th match is delivered, without looking for a
	// further one, and under TopK — once the pruning radius has tightened,
	// discarded work can no longer be told apart from true non-matches —
	// so Truncated may be true even when the unbounded answer held exactly
	// Limit (or K) matches. It is never true when the answer held fewer.
	// Counts above describe only the work actually performed.
	Truncated bool
}

// String renders the stats as one EXPLAIN-style line.
func (st QueryStats) String() string {
	s := fmt.Sprintf("plan=%s query=%s metric=%s examined=%d candidates=%d pruned=%d matches=%d",
		st.Plan, st.Query, st.Metric, st.Examined, st.Candidates, st.Pruned, st.Matches)
	if st.Sketched > 0 || st.BandAccepted > 0 {
		s += fmt.Sprintf(" sketched=%d band_accepted=%d", st.Sketched, st.BandAccepted)
	}
	if st.Truncated {
		s += " truncated=true"
	}
	return s
}

// lowerBound is one metric's pruning rule on the feature index: the query
// feature vector, whether it compares against the z-normalized rows of
// the columnar store, the metric's featureScale entry, and the rounding
// contract of the values the query's features came from. Its zero value,
// with no feature vector, is the rule of a query the index cannot prune.
type lowerBound struct {
	qf    []float64
	z     bool
	scale float64
	slack dist.Slack
}

// at maps a verification radius onto the feature-space bound: a record
// within radius has scale·fd ≤ d ≤ radius, and the slack keeps the
// rounding of both feature vectors from turning that into a dismissal.
// Top-K searches call it again as the radius tightens mid-flight.
func (lb *lowerBound) at(radius float64) float64 { return lb.slack.Hi(radius / lb.scale) }

// floor maps a feature distance onto a lower edge of the metric's
// distance: the inverse of at, for the band tier's lift. A negative fd (an
// unindexed record) floors to 0.
func (lb *lowerBound) floor(fd float64) float64 { return lb.slack.Lo(fd) * lb.scale }

// prunes reports whether the rule holds a feature vector to prune with.
func (lb *lowerBound) prunes() bool { return lb.qf != nil }

// featureScale is the one table of feature bounds: the factor mapping the
// DFT feature distance F (a Euclidean lower bound by Parseval) onto a
// lower bound of the named metric over n samples, and whether the
// z-normalized vectors are the right ones. A zero scale means the metric
// admits no sound feature bound. The metric is recognized by its
// canonical name, and each entry is sound for the built-in semantics
// bearing that name ("band" is the value family's ±ε semantics):
//
//	l1:          L1 ≥ L2 ≥ F
//	l2, zl2:     L2 ≥ F
//	linf, band:  L∞ ≥ L2/√n ≥ F/√n
//	norml2:      L2/√n ≥ F/√n
//	norml1:      L1/n ≥ L2/n ≥ F/n
func featureScale(metric string, n int) (scale float64, useZ bool) {
	fn := float64(n)
	switch metric {
	case "l1", "l2":
		return 1, false
	case "zl2":
		return 1, true
	case "linf", "band", "norml2":
		return 1 / math.Sqrt(fn), false
	case "norml1":
		return 1 / fn, false
	default:
		return 0, false
	}
}

// prefilters derives a similarity query's two sample-free filters from
// the exemplar's values: the feature-space pruning rule (its zero value —
// the source is then the linear walk — when the index is off or
// featureScale has no entry for the metric) and the sketch the band tier
// compares against (nil when sketches are off or the sketch bands nothing
// under the metric, as for a custom one). The z-normalized values are
// pooled scratch.
func (db *DB) prefilters(metric string, vals []float64) (lb lowerBound, qsk *multires.Sketch) {
	sc := derivePool.Get().(*deriveScratch)
	defer derivePool.Put(sc)
	sc.zvals = dist.ZNormalizeInto(sc.zvals, vals)
	if scale, z := featureScale(metric, len(vals)); db.findex != nil && scale != 0 {
		fv := vals
		if z {
			fv = sc.zvals
		}
		if qf, err := dft.Features(fv, db.findex.k); err == nil {
			lb = lowerBound{qf: qf, z: z, scale: scale, slack: dist.QuerySlack(len(fv), dist.Norm(fv))}
		}
	}
	if db.cfg.SketchBlock > 0 {
		qsk = multires.BuildSketchZ(nil, vals, sc.zvals, db.cfg.SketchBlock)
		if _, _, ok := multires.DistanceBand(qsk, qsk, metric); !ok {
			qsk = nil
		}
	}
	return lb, qsk
}

// verifyReadError classifies a storedValues failure during query
// verification: when the record has since been removed (or replaced) the
// miss is just the scan's point-in-time snapshot outliving a concurrent
// Remove — the record is skipped, not an error. A read failure for a
// record still committed is a genuine storage fault and aborts the
// query.
func (db *DB) verifyReadError(rec *Record, err error) error {
	if cur, ok := db.Record(rec.ID); !ok || cur != rec {
		return nil
	}
	return err
}

// distanceVerify compares one record's stored values against the
// exemplar's under m at the given radius — the exact tier of every
// distance and value query, whatever the plan; the ±ε band is Chebyshev's
// kernel. The comparison runs through the metric's early-abandoning
// threshold kernel (squared-space accumulation, mid-loop bail; see
// dist.Within), which returns the same decisions and distances as a full
// evaluation. The record is reconstructed into pooled scratch, so a
// candidate allocates nothing, accepted or rejected.
func (db *DB) distanceVerify(rec *Record, spec *querySpec, m dist.Metric, radius float64) (Match, bool, error) {
	buf := valuesPool.Get().(*[]float64)
	defer valuesPool.Put(buf)
	stored, err := db.storedValues(rec, buf)
	if err != nil {
		if err = db.verifyReadError(rec, err); err != nil {
			return Match{}, false, fmt.Errorf("core: %s query reading %q: %w", spec.kind, rec.ID, err)
		}
		return Match{}, false, nil // removed mid-scan; skip
	}
	d, within, err := dist.Within(m, spec.values, stored, radius)
	if err != nil {
		if errors.Is(err, dist.ErrLengthMismatch) {
			return Match{}, false, nil // reconstruction drifted in length; incomparable
		}
		return Match{}, false, fmt.Errorf("core: %s query %q under %s: %w", spec.kind, rec.ID, m.Name(), err)
	}
	if !within {
		return Match{}, false, nil
	}
	return Match{ID: rec.ID, Exact: d == 0, Key: spec.devKey, Dev: d}, true, nil
}

// candPool recycles the planner's candidate scratch so steady-state
// queries allocate nothing for candidate generation.
var candPool = sync.Pool{
	New: func() any {
		s := make([]candidate, 0, 128)
		return &s
	},
}
