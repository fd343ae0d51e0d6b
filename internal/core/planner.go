package core

import (
	"errors"
	"fmt"
	"sync"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// Plan names for QueryStats.Plan.
const (
	// PlanIndex is the feature-index route: lower-bound candidate
	// generation over the columnar DFT feature store (through its
	// vantage-point tree when the length group is large enough), exact
	// verification of the survivors only.
	PlanIndex = "index"
	// PlanScan is the shard-parallel full scan.
	PlanScan = "scan"
	// PlanProgressive is the coarse-to-fine cascade over the feature
	// index's candidates (or, without an index route, over every record):
	// sketch bands, then the DFT feature bound, then exact verification
	// (see progressive.go).
	PlanProgressive = "progressive"
	// The feature families' fixed access paths: the symbol catalogue
	// (pattern, find), the peak-count sort over it (peaks) and the
	// inverted file of inter-peak intervals (interval).
	PlanSymbolIndex   = "symbol-index"
	PlanRecordScan    = "record-scan"
	PlanInvertedIndex = "inverted-index"
)

// QueryStats reports how a query was executed: which plan the planner
// chose and how much work each stage did. Candidates + Pruned = Examined
// on the index plan; the scan plan verifies every length-matching record
// (Pruned stays 0). On the index plan Examined counts feature vectors
// actually compared — with a vantage-point tree up, that is typically far
// below the length group's population, the rest having been discarded
// wholesale by the tree's triangle-inequality pruning.
//
// A feature family's plan is its fixed access path: Examined counts the
// records its index walk covered (for intervals, the postings the
// inverted file returned) and Candidates the records the walk selected.
//
// The progressive plan takes its records from one of two sources and
// counts accordingly. Index-driven (the metric has an index route: l2,
// zl2, value) it examines exactly what the index plan would, and every
// examined record is accounted for: Examined = Pruned + BandAccepted +
// Candidates on a run that neither Limit nor the caller cut short.
// Linear (any other metric, or no index) it visits every record like the
// scan plan; the records of other lengths are in Examined and in no
// other counter, and Sketched = Pruned + BandAccepted + Candidates when
// every record carries a sketch.
type QueryStats struct {
	// Query is the query family (one of the Family constants).
	Query string
	// Metric is the distance metric name ("band" for ValueQuery's ±ε
	// semantics).
	Metric string
	// Plan is PlanIndex, PlanScan or PlanProgressive for the similarity
	// families, the family's access path for the feature families.
	Plan string
	// Examined counts the records the plan looked at: feature vectors
	// compared (plus unindexed records) on the index plan and the
	// index-driven progressive plan, all records on the scan plan and the
	// linear progressive plan.
	Examined int
	// Candidates counts the records whose exact samples were compared.
	Candidates int
	// Pruned counts the records eliminated without reading their samples:
	// by the feature lower bound on the index plan; on the progressive plan
	// by the index's feature bound (when it is the source), a sketch band
	// or a candidate-tier band whose lower edge exceeds the tolerance.
	Pruned int
	// Matches counts the results returned (for FamilyFind, occurrences).
	Matches int
	// Sketched counts the records banded from their sketch at the
	// progressive sketch tier: the index's survivors when it is the
	// source, every length-matching record on the linear source (0 on
	// non-progressive plans and when sketches are disabled).
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
// feature vector and whether it compares against the z-normalized rows of
// the columnar store. The feature-space threshold comes from the query's
// boundOf at the current verification radius.
type lowerBound struct {
	qf []float64
	z  bool
}

// lbSlack widens a lower-bound threshold by a whisker of floating-point
// headroom: the no-false-dismissal guarantee is exact in real arithmetic,
// and the slack keeps DFT rounding at the decision boundary from ever
// turning it into a dismissal.
func lbSlack(bound float64) float64 { return bound*(1+1e-9) + 1e-12 }

// distanceLowerBound returns the feature-space pruning rule for metric m
// on this exemplar — plus the mapping from a verification radius onto
// the feature-space bound (top-K searches tighten the radius
// mid-flight) — or ok=false when m admits no valid lower bound from the
// stored features and the planner must scan.
//
// The metric is recognized by its canonical name, and the rule is sound
// for the built-in semantics bearing that name:
//
//   - "l2": feature distance lower-bounds Euclidean distance (Parseval).
//   - "zl2": the same bound over the z-normalized feature vectors.
//
// L1 and L∞ fall through — the feature distance lower-bounds L2, which
// neither bounds L∞ from below nor is worth routing for L1 — as do the
// length-normalized variants and any custom metric.
func (db *DB) distanceLowerBound(exemplar seq.Sequence, m dist.Metric) (*lowerBound, func(float64) float64, bool) {
	k := db.findex.k
	switch m.Name() {
	case dist.Euclidean.Name():
		qf, err := dft.Features(exemplar.Values(), k)
		if err != nil {
			return nil, nil, false
		}
		return &lowerBound{qf: qf}, lbSlack, true
	case dist.ZEuclidean.Name():
		qf, err := dft.Features(dist.ZNormalizeValues(exemplar.Values()), k)
		if err != nil {
			return nil, nil, false
		}
		return &lowerBound{qf: qf, z: true}, lbSlack, true
	}
	return nil, nil, false
}

// verifyReadError classifies a storedSequence failure during query
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

// distanceVerify compares one record's exact samples against the
// exemplar under m — the shared verification step of both plans. The
// comparison runs through the metric's early-abandoning threshold kernel
// (squared-space accumulation, mid-loop bail; see dist.DistanceWithin),
// which returns the same decisions and distances as a full evaluation.
// The record is reconstructed into pooled scratch, so a reject allocates
// nothing and an accept only its Deviations map.
func (db *DB) distanceVerify(rec *Record, exemplar seq.Sequence, m dist.Metric, eps float64) (Match, bool, error) {
	buf := reconPool.Get().(*seq.Sequence)
	defer reconPool.Put(buf)
	stored, err := db.storedSequence(rec, buf)
	if err != nil {
		if err = db.verifyReadError(rec, err); err != nil {
			return Match{}, false, fmt.Errorf("core: distance query reading %q: %w", rec.ID, err)
		}
		return Match{}, false, nil // removed mid-scan; skip
	}
	d, within, err := dist.DistanceWithin(m, exemplar, stored, eps)
	if err != nil {
		if errors.Is(err, dist.ErrLengthMismatch) {
			return Match{}, false, nil // reconstruction drifted in length; incomparable
		}
		return Match{}, false, fmt.Errorf("core: distance query %q under %s: %w", rec.ID, m.Name(), err)
	}
	if !within {
		return Match{}, false, nil
	}
	return Match{
		ID:         rec.ID,
		Exact:      d == 0,
		Deviations: map[string]float64{m.Name(): d},
	}, true, nil
}

// valueVerify runs the early-abandoning ±eps band check on one record —
// the shared verification step of both ValueQuery plans, on pooled
// scratch like distanceVerify.
func (db *DB) valueVerify(rec *Record, exemplar seq.Sequence, eps float64) (Match, bool, error) {
	buf := reconPool.Get().(*seq.Sequence)
	defer reconPool.Put(buf)
	stored, err := db.storedSequence(rec, buf)
	if err != nil {
		if err = db.verifyReadError(rec, err); err != nil {
			return Match{}, false, fmt.Errorf("core: value query reading %q: %w", rec.ID, err)
		}
		return Match{}, false, nil // removed mid-scan; skip
	}
	d, within, err := dist.BandDistance(exemplar, stored, eps)
	if err != nil || !within {
		return Match{}, false, nil // incomparable lengths or outside the band
	}
	return Match{
		ID:         rec.ID,
		Exact:      d == 0,
		Deviations: map[string]float64{"value": d},
	}, true, nil
}

// candPool recycles the planner's candidate scratch so steady-state
// queries allocate nothing for candidate generation.
var candPool = sync.Pool{
	New: func() any {
		s := make([]candidate, 0, 128)
		return &s
	},
}
