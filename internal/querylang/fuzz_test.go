package querylang

import (
	"context"
	"slices"
	"sync"
	"testing"

	"seqrep/internal/core"
	"seqrep/internal/store"
	"seqrep/internal/synth"
)

// queryLangSeeds is every statement form documented in docs/QUERYLANG.md
// (one worked example per statement, plus the EXPLAIN and edge spellings
// the lexer supports). The committed corpus under testdata/fuzz mirrors
// these.
var queryLangSeeds = []string{
	`MATCH PATTERN "UF*D(F|D)*UF*D"`,
	`FIND PATTERN "U+D"`,
	`MATCH PEAKS 2 TOLERANCE 1`,
	`MATCH INTERVAL 135 +- 2`,
	`MATCH INTERVAL 135 ± 2`,
	`MATCH VALUE LIKE ecg1 EPS 0.5`,
	`MATCH DISTANCE LIKE ecg1 METRIC zl2 EPS 3`,
	`MATCH SHAPE LIKE exemplar PEAKS 0 HEIGHT 0.25 SPACING 0.3`,
	`EXPLAIN MATCH VALUE LIKE ecg1`,
	`EXPLAIN MATCH DISTANCE LIKE two METRIC l1 EPS 10`,
	`match peaks = 2`,
	`MATCH SHAPE LIKE "quoted id" SPACING 0.1`,
	`MATCH VALUE LIKE two`,
	`FIND PATTERN 'U{2,4}D'`,
	`MATCH VALUE LIKE ecg1 LIMIT 5`,
	`MATCH DISTANCE LIKE ecg1 TOP 10 BY DISTANCE`,
	`MATCH DISTANCE LIKE two METRIC zl2 EPS 3 TOP 5 BY DISTANCE LIMIT 3`,
	`EXPLAIN MATCH PEAKS 2 TOP 1 BY DISTANCE`,
	`match shape like two height 0.25 top 2 by distance limit 9`,
	`MATCH VALUE LIKE "limit" LIMIT 1`,
	`MATCH VALUE LIKE ecg1 EPS 0.5 WITHIN ERROR 0.1`,
	`MATCH DISTANCE LIKE ecg1 METRIC l2 EPS 3 WITHIN ERROR 0.5 APPROX candidate`,
	`MATCH DISTANCE LIKE two EPS 2 APPROX sketch`,
	`match value like two approx exact limit 3`,
	`EXPLAIN MATCH DISTANCE LIKE two METRIC zl2 EPS 3 WITHIN ERROR 0`,
	`MATCH DISTANCE LIKE ecg1 APPROX candidate WITHIN ERROR 1.5`,
	`MATCH VALUE LIKE ecg1 EPS 0.00001`,
	`MATCH VALUE LIKE ecg1 EPS 1000000000000000000000`,
	`MATCH INTERVAL 0.00001 +- 0.5`,
	`MATCH DISTANCE LIKE two EPS 1e-05 WITHIN ERROR 2.5E+3`,
	`MATCH INTERVAL 20 +- 1e19`,
	`FIND PATTERN "U+" LIMIT 1`,
	`EXPLAIN MATCH PATTERN "U" LIMIT 2`,
}

// fuzzDB lazily builds one small database per fuzz process so statements
// that parse can also execute.
var fuzzDB = sync.OnceValue(func() Database {
	db, err := core.New(core.Config{Archive: store.NewMemArchive(), IndexCoeffs: 4})
	if err != nil {
		panic(err)
	}
	two, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		panic(err)
	}
	three, err := synth.ThreePeakFever(97)
	if err != nil {
		panic(err)
	}
	if err := db.Ingest("two", two); err != nil {
		panic(err)
	}
	if err := db.Ingest("three", three); err != nil {
		panic(err)
	}
	if err := db.Ingest("ecg1", two.ShiftValue(1)); err != nil {
		panic(err)
	}
	return db
})

// FuzzParseExec feeds arbitrary statements through the full parse → print
// → reparse → execute path. Invariants: the parser never panics; a
// statement that parses re-renders to a canonical form that parses to the
// same canonical form; execution never panics (errors are fine); and a
// bounded feature statement, which the engine answers in its canonical
// order, keeps a prefix of its unbounded form's ids.
func FuzzParseExec(f *testing.F) {
	for _, seed := range queryLangSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // bound pattern-compile work, not parser correctness
		}
		q, err := Parse(src)
		if err != nil {
			if q != nil {
				t.Errorf("Parse(%q) returned both a query and an error", src)
			}
			return
		}
		canonical := q.String()
		q2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical form %q rejected: %v", src, canonical, err)
		}
		if got := q2.String(); got != canonical {
			t.Fatalf("unstable canonical form: %q -> %q -> %q", src, canonical, got)
		}
		res, err := q.Run(context.Background(), fuzzDB()) // must not panic; errors are expected
		if e, ok := q.(*ExplainQuery); ok {
			q = e.Inner
		}
		b, ok := q.(*BoundedQuery)
		if err != nil || !ok || isSimilarity(b.Inner) {
			return
		}
		full, err := b.Inner.Run(context.Background(), fuzzDB())
		if err != nil {
			t.Fatalf("%q answers but its unbounded form fails: %v", canonical, err)
		}
		if len(res.IDs) > len(full.IDs) || !slices.Equal(res.IDs, full.IDs[:len(res.IDs)]) {
			t.Fatalf("%q kept ids %v, not a prefix of the unbounded %v", canonical, res.IDs, full.IDs)
		}
	})
}

// isSimilarity reports whether q is a MATCH VALUE, DISTANCE or SHAPE
// statement, whose bounded answer need not be a prefix of the unbounded
// one (LIMIT keeps whichever matches verify first).
func isSimilarity(q Query) bool {
	switch q.(type) {
	case *ValueQuery, *DistanceQuery, *ShapeQuery:
		return true
	}
	return false
}
