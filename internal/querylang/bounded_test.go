package querylang

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"seqrep/internal/core"
)

func TestParseBounds(t *testing.T) {
	good := map[string]string{
		`MATCH VALUE LIKE two LIMIT 5`:                      `MATCH VALUE LIKE two LIMIT 5`,
		`match value like two limit 5`:                      `MATCH VALUE LIKE two LIMIT 5`,
		`MATCH DISTANCE LIKE two TOP 3 BY DISTANCE`:         `MATCH DISTANCE LIKE two METRIC l2 TOP 3 BY DISTANCE`,
		`MATCH DISTANCE LIKE two LIMIT 2 TOP 3 BY DISTANCE`: `MATCH DISTANCE LIKE two METRIC l2 TOP 3 BY DISTANCE LIMIT 2`,
		`MATCH PEAKS 2 TOP 1 BY DISTANCE`:                   `MATCH PEAKS 2 TOP 1 BY DISTANCE`,
		`MATCH PATTERN "UFD" LIMIT 1`:                       `MATCH PATTERN "UFD" LIMIT 1`,
		`FIND PATTERN "U+D" LIMIT 2`:                        `FIND PATTERN "U+D" LIMIT 2`,
		`MATCH INTERVAL 8 +- 1 LIMIT 3`:                     `MATCH INTERVAL 8 +- 1 LIMIT 3`,
		`EXPLAIN MATCH SHAPE LIKE two TOP 2 BY DISTANCE`:    `EXPLAIN MATCH SHAPE LIKE two TOP 2 BY DISTANCE`,
	}
	for src, want := range good {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := q.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
		}
	}

	bad := []string{
		`MATCH VALUE LIKE two LIMIT`,
		`MATCH VALUE LIKE two LIMIT 0`,
		`MATCH VALUE LIKE two LIMIT -1`,
		`MATCH VALUE LIKE two LIMIT 2.5`,
		`MATCH VALUE LIKE two LIMIT 5 LIMIT 6`,
		`MATCH VALUE LIKE two TOP 3`,             // missing BY DISTANCE
		`MATCH VALUE LIKE two TOP 3 BY`,          // missing DISTANCE
		`MATCH VALUE LIKE two TOP 0 BY DISTANCE`, // zero K
		`MATCH VALUE LIKE two TOP 3 BY DISTANCE TOP 4 BY DISTANCE`,
		`MATCH PATTERN "UFD" TOP 3 BY DISTANCE`, // kind without deviations
		`FIND PATTERN "U" TOP 1 BY DISTANCE`,
		`MATCH INTERVAL 8 TOP 1 BY DISTANCE`,
		`LIMIT 5`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}

	// Identifiers spelled like the new keywords must quote to round-trip.
	for _, id := range []string{"limit", "top", "by", "within", "error", "approx"} {
		q := &ValueQuery{ExemplarID: id, Eps: -1, MaxError: -1}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of quoted %q: %v", id, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Errorf("identifier %q did not round-trip: %q -> %+v", id, q.String(), q2)
		}
	}
}

func TestExecBounds(t *testing.T) {
	db := testDB(t)
	full, err := Exec(db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25`)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) < 2 {
		t.Fatalf("unbounded answer too small: %v", full.IDs)
	}

	// TOP n ≡ sort + truncate (the unbounded result is already sorted).
	top, err := Exec(db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25 TOP 1 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top.Matches, full.Matches[:1]) {
		t.Errorf("TOP 1 = %+v, want %+v", top.Matches, full.Matches[:1])
	}
	if top.Stats == nil || !top.Stats.Truncated {
		t.Errorf("TOP 1 stats = %+v, want truncated", top.Stats)
	}

	// LIMIT keeps a subset of the unbounded answer and reports truncation.
	lim, err := Exec(db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Matches) != 1 {
		t.Fatalf("LIMIT 1 returned %d matches", len(lim.Matches))
	}
	members := map[string]bool{}
	for _, id := range full.IDs {
		members[id] = true
	}
	if !members[lim.Matches[0].ID] {
		t.Errorf("LIMIT result %q not in unbounded answer %v", lim.Matches[0].ID, full.IDs)
	}

	// TOP without EPS = pure nearest-neighbour (unbounded radius): the
	// exemplar's own record is the nearest.
	nn, err := Exec(db, `MATCH DISTANCE LIKE two TOP 1 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.IDs) != 1 || nn.IDs[0] != "two" {
		t.Errorf("TOP 1 without EPS = %v, want [two]", nn.IDs)
	}

	// Feature kinds stop at the bound too, in their canonical order: the
	// kept matches are the unbounded answer's prefix.
	allPeaks, err := Exec(db, `MATCH PEAKS 2 TOLERANCE 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(allPeaks.IDs) < 2 {
		t.Fatalf("peaks answer too small: %v", allPeaks.IDs)
	}
	cut, err := Exec(db, `MATCH PEAKS 2 TOLERANCE 1 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Stats == nil || !cut.Stats.Truncated {
		t.Errorf("peaks LIMIT 1 stats = %+v, want truncated", cut.Stats)
	}
	if !reflect.DeepEqual(cut.Matches, allPeaks.Matches[:1]) || !reflect.DeepEqual(cut.IDs, allPeaks.IDs[:1]) {
		t.Errorf("peaks LIMIT 1 kept %+v, want the prefix of %+v", cut.Matches, allPeaks.Matches)
	}
}

func TestWithLimit(t *testing.T) {
	cases := map[string]string{
		`MATCH VALUE LIKE two`:                   `MATCH VALUE LIKE two LIMIT 10`,
		`MATCH VALUE LIKE two LIMIT 3`:           `MATCH VALUE LIKE two LIMIT 3`,  // tighter wins
		`MATCH VALUE LIKE two LIMIT 50`:          `MATCH VALUE LIKE two LIMIT 10`, // looser tightened
		`MATCH VALUE LIKE two TOP 5 BY DISTANCE`: `MATCH VALUE LIKE two TOP 5 BY DISTANCE LIMIT 10`,
		`EXPLAIN MATCH PEAKS 2`:                  `EXPLAIN MATCH PEAKS 2 LIMIT 10`,
		`MATCH PATTERN "UFD"`:                    `MATCH PATTERN "UFD" LIMIT 10`,
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := WithLimit(q, 10).String(); got != want {
			t.Errorf("WithLimit(%q, 10) = %q, want %q", src, got, want)
		}
	}
	q, err := Parse(`MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if WithLimit(q, 0) != q {
		t.Error("WithLimit(q, 0) did not return q unchanged")
	}
}

func TestRunStream(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()

	// Streamed similarity statement: matches arrive via yield, the result
	// carries kind + stats only.
	q, err := Parse(`MATCH DISTANCE LIKE two METRIC l2 EPS 25 TOP 2 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []core.Match
	res, err := RunStream(ctx, db, q, func(m core.Match) bool {
		streamed = append(streamed, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "distance" || res.Stats == nil || len(res.Matches) != 0 {
		t.Fatalf("stream result = %+v", res)
	}
	want, err := Exec(db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25 TOP 2 BY DISTANCE`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, want.Matches) {
		t.Errorf("streamed %+v, want %+v", streamed, want.Matches)
	}

	// Yield returning false stops the stream without error.
	seen := 0
	if _, err := RunStream(ctx, db, q, func(core.Match) bool { seen++; return false }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("stopped stream yielded %d matches", seen)
	}

	// Materialized kinds still deliver matches through yield...
	pq, err := Parse(`MATCH PEAKS 2 TOLERANCE 1`)
	if err != nil {
		t.Fatal(err)
	}
	streamed = nil
	res, err = RunStream(ctx, db, pq, func(m core.Match) bool {
		streamed = append(streamed, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 || len(res.Matches) != 0 {
		t.Errorf("peaks stream: %d yielded, result %+v", len(streamed), res)
	}

	// ...and so do FIND's occurrences, each carrying its hit: the stream
	// delivers Exec's hits, in order.
	fq, err := Parse(`FIND PATTERN "U+F*D"`)
	if err != nil {
		t.Fatal(err)
	}
	var hits []core.PatternHit
	res, err = RunStream(ctx, db, fq, func(m core.Match) bool {
		hits = append(hits, *m.Hit)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFind, err := Exec(db, `FIND PATTERN "U+F*D"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || !reflect.DeepEqual(hits, wantFind.Hits) || len(res.Hits) != 0 {
		t.Errorf("find stream: streamed %+v, want %+v (result %+v)", hits, wantFind.Hits, res)
	}

	// EXPLAIN delegates and marks the result.
	eq, err := Parse(`EXPLAIN MATCH VALUE LIKE two EPS 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = RunStream(ctx, db, eq, func(core.Match) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explain || res.Stats == nil || res.Stats.Plan != "index" {
		t.Errorf("explain stream result = %+v", res)
	}
}

func TestExecContextCancelled(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecContext(ctx, db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exec returned %v", err)
	}
	// A generous deadline changes nothing.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := ExecContext(ctx2, db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25`); err != nil {
		t.Fatalf("deadline exec failed: %v", err)
	}
}
