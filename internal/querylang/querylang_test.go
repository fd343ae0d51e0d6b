package querylang

import (
	"reflect"
	"strings"
	"testing"

	"seqrep/internal/core"
	"seqrep/internal/synth"
)

// testDB builds a small database with the fever family.
func testDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	three, err := synth.ThreePeakFever(97)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("two", fever); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("three", three); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("shifted", fever.ShiftValue(2)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLexer(t *testing.T) {
	toks, err := lex(`MATCH PATTERN "UF*D" 135 +- 2.5 ± ecg-001 'single'`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokWord, tokWord, tokString, tokNumber, tokPlusMinus, tokNumber, tokPlusMinus, tokWord, tokString, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v (%q), want %v", i, toks[i].kind, toks[i].text, k)
		}
	}
	if toks[7].text != "ecg-001" {
		t.Errorf("dashed identifier: %q", toks[7].text)
	}
	if toks[5].text != "2.5" {
		t.Errorf("decimal: %q", toks[5].text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `'also`, `@`, `#x`} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) accepted", src)
		}
	}
}

func TestLexerNegativeNumber(t *testing.T) {
	toks, err := lex(`-3.5`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokNumber || toks[0].text != "-3.5" {
		t.Errorf("token = %+v", toks[0])
	}
	if _, err := lex(`-`); err == nil {
		t.Error("lone dash accepted")
	}
}

func TestParseCanonicalForms(t *testing.T) {
	cases := map[string]string{
		`MATCH PATTERN "UF*D"`:                      `MATCH PATTERN "UF*D"`,
		`match pattern 'UF*D'`:                      `MATCH PATTERN "UF*D"`,
		`FIND PATTERN "U+D+"`:                       `FIND PATTERN "U+D+"`,
		`MATCH PEAKS 2`:                             `MATCH PEAKS 2`,
		`MATCH PEAKS = 2 TOLERANCE 1`:               `MATCH PEAKS 2 TOLERANCE 1`,
		`MATCH INTERVAL 135 +- 2`:                   `MATCH INTERVAL 135 +- 2`,
		`MATCH INTERVAL 135 ± 2`:                    `MATCH INTERVAL 135 +- 2`,
		`MATCH INTERVAL 135`:                        `MATCH INTERVAL 135 +- 0`,
		`MATCH VALUE LIKE ecg1 EPS 0.5`:             `MATCH VALUE LIKE ecg1 EPS 0.5`,
		`MATCH VALUE LIKE ecg1`:                     `MATCH VALUE LIKE ecg1`,
		`MATCH SHAPE LIKE x PEAKS 1 HEIGHT 0.2`:     `MATCH SHAPE LIKE x PEAKS 1 HEIGHT 0.2`,
		`MATCH SHAPE LIKE x SPACING 0.3 HEIGHT 1`:   `MATCH SHAPE LIKE x HEIGHT 1 SPACING 0.3`,
		`MATCH SHAPE LIKE "quoted id" SPACING 0.1`:  `MATCH SHAPE LIKE "quoted id" SPACING 0.1`,
		`MATCH DISTANCE LIKE ecg1`:                  `MATCH DISTANCE LIKE ecg1 METRIC l2`,
		`match distance like ecg1 metric zl2 eps 3`: `MATCH DISTANCE LIKE ecg1 METRIC zl2 EPS 3`,
		`EXPLAIN MATCH PEAKS 2`:                     `EXPLAIN MATCH PEAKS 2`,
		`explain explain match peaks 2`:             `EXPLAIN MATCH PEAKS 2`,
		`EXPLAIN MATCH DISTANCE LIKE "value"`:       `EXPLAIN MATCH DISTANCE LIKE "value" METRIC l2`,
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := q.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT * FROM t`,
		`MATCH`,
		`MATCH PATTERN`,
		`MATCH PATTERN UF*D`, // unquoted pattern
		`MATCH PEAKS`,
		`MATCH PEAKS two`,
		`MATCH PEAKS 2.5`,
		`MATCH PEAKS -1`,
		`MATCH PEAKS 2 TOLERANCE`,
		`MATCH PEAKS 2 TOLERANCE -1`,
		`MATCH PEAKS 2 TOLERANCE 0.5`,
		`MATCH INTERVAL`,
		`MATCH INTERVAL 135 +-`,
		`MATCH VALUE`,
		`MATCH VALUE LIKE`,
		`MATCH VALUE LIKE id EPS`,
		`MATCH SHAPE LIKE`,
		`MATCH SHAPE LIKE id PEAKS 0.5`,
		`MATCH SHAPE LIKE id HEIGHT`,
		`FIND`,
		`FIND PATTERN`,
		`MATCH PEAKS 2 garbage`,
		`MATCH PATTERN "x" extra`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestExecPattern(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `MATCH PATTERN "[FD]*(U+F*D[FD]*)(U+F*D[FD]*)(U+F*)?"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "pattern" {
		t.Errorf("Kind = %q", res.Kind)
	}
	if len(res.IDs) != 2 { // two + shifted
		t.Errorf("IDs = %v", res.IDs)
	}
}

func TestExecFind(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `FIND PATTERN "U+F*D"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "find" {
		t.Errorf("Kind = %q", res.Kind)
	}
	if len(res.IDs) != 3 {
		t.Errorf("IDs = %v", res.IDs)
	}
	// two peaks on "two"/"shifted", three on "three" → 7 hits total.
	if len(res.Hits) != 7 {
		t.Errorf("Hits = %d", len(res.Hits))
	}
}

func TestExecPeaks(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "peaks" || len(res.IDs) != 2 {
		t.Errorf("result %+v", res)
	}
	res, err = Exec(db, `MATCH PEAKS 2 TOLERANCE 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 3 {
		t.Errorf("with tolerance: %v", res.IDs)
	}
	if len(res.Matches) != 3 {
		t.Errorf("Matches = %d", len(res.Matches))
	}
}

func TestExecInterval(t *testing.T) {
	db := testDB(t)
	// Fever peaks at 8h/16h → interval 8.
	res, err := Exec(db, `MATCH INTERVAL 8 +- 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "interval" || len(res.IDs) < 2 {
		t.Errorf("result IDs %v", res.IDs)
	}
	if len(res.Intervals) != len(res.IDs) {
		t.Errorf("Intervals = %d for %d IDs", len(res.Intervals), len(res.IDs))
	}
	// A tolerance whose range ends divide past the int64 bucket keys
	// covers every interval, like one that stays inside them.
	wide, err := Exec(db, `MATCH INTERVAL 20 +- 1e18`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.IDs) != 3 {
		t.Errorf("MATCH INTERVAL 20 +- 1e18 = %v, want all three records", wide.IDs)
	}
	for _, src := range []string{`MATCH INTERVAL 20 +- 1e19`, `MATCH INTERVAL 20 +- 1e300`, `MATCH INTERVAL 1e300 +- 1e300`} {
		res, err := Exec(db, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Intervals, wide.Intervals) {
			t.Errorf("%s = %v, want %v", src, res.IDs, wide.IDs)
		}
	}
}

func TestExecValue(t *testing.T) {
	db := testDB(t)
	// LIKE id reconstructs the exemplar — the form it is compared against —
	// so at EPS 0 a record finds exactly itself.
	res, err := Exec(db, `MATCH VALUE LIKE two EPS 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "value" || len(res.IDs) != 1 || res.IDs[0] != "two" || !res.Matches[0].Exact {
		t.Errorf("result %+v", res)
	}
	// Default EPS comes from the database config (0.5): still only "two"
	// (the shifted copy is 2 degrees away).
	res, err = Exec(db, `MATCH VALUE LIKE two`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Errorf("default eps: %v", res.IDs)
	}
	if _, err := Exec(db, `MATCH VALUE LIKE missing`); err == nil {
		t.Error("missing exemplar accepted")
	}
}

func TestExecShape(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `MATCH SHAPE LIKE two HEIGHT 0.25 SPACING 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "shape" {
		t.Errorf("Kind = %q", res.Kind)
	}
	got := map[string]bool{}
	for _, id := range res.IDs {
		got[id] = true
	}
	if !got["two"] || !got["shifted"] || got["three"] {
		t.Errorf("shape IDs = %v", res.IDs)
	}
}

// The database keeps no raw originals: a shape query's exemplar loads
// from the representation alone, even on a one-record database.
func TestExecShapeWithoutArchive(t *testing.T) {
	db, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("two", fever); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(db, `MATCH SHAPE LIKE two HEIGHT 0.3 SPACING 0.3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Errorf("IDs = %v", res.IDs)
	}
}

func TestExecDistance(t *testing.T) {
	db := testDB(t)
	// "shifted" is the fever curve moved up 2 degrees: L2 ≈ 2·√97 ≈ 19.7.
	res, err := Exec(db, `MATCH DISTANCE LIKE two METRIC l2 EPS 25`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "distance" || len(res.IDs) != 2 {
		t.Errorf("result %+v", res)
	}
	if res.Stats == nil || res.Stats.Plan != "index" {
		t.Errorf("Stats = %+v, want index plan", res.Stats)
	}
	// Under zl2 the vertical shift vanishes: "shifted" is distance ~0.
	res, err = Exec(db, `MATCH DISTANCE LIKE two METRIC zl2 EPS 0.001`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Errorf("zl2 IDs = %v", res.IDs)
	}
	// Scan-only metric still answers, with the scan plan.
	res, err = Exec(db, `MATCH DISTANCE LIKE two METRIC linf EPS 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Plan != "scan" {
		t.Errorf("linf Stats = %+v, want scan plan", res.Stats)
	}
	if _, err := Exec(db, `MATCH DISTANCE LIKE two METRIC bogus`); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := Exec(db, `MATCH DISTANCE LIKE missing`); err == nil {
		t.Error("missing exemplar accepted")
	}
}

func TestExecExplain(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `EXPLAIN MATCH VALUE LIKE two EPS 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explain || res.Stats == nil {
		t.Fatalf("EXPLAIN result: %+v", res)
	}
	if res.Stats.Plan != "index" || res.Stats.Query != "value" {
		t.Errorf("Stats = %+v", res.Stats)
	}
	if len(res.IDs) != 1 { // EXPLAIN still runs the statement
		t.Errorf("IDs = %v", res.IDs)
	}
	// Feature statements report their access path.
	res, err = Exec(db, `EXPLAIN MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Plan != "record-scan" {
		t.Errorf("peaks Stats = %+v", res.Stats)
	}
	res, err = Exec(db, `EXPLAIN MATCH INTERVAL 8 +- 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Plan != "inverted-index" {
		t.Errorf("interval Stats = %+v", res.Stats)
	}
}

func TestExecBadQuery(t *testing.T) {
	db := testDB(t)
	if _, err := Exec(db, `MATCH PATTERN "("`); err == nil {
		t.Error("bad pattern accepted at run time")
	}
	if _, err := Exec(db, `nonsense`); err == nil {
		t.Error("parse error not propagated")
	}
	if _, err := Exec(db, `MATCH INTERVAL 135 +- -1`); err == nil {
		t.Error("negative interval tolerance accepted")
	}
}

func TestQueryStringsRoundTrip(t *testing.T) {
	// Canonical forms parse back to themselves.
	for _, src := range []string{
		`MATCH PATTERN "UF*D"`,
		`FIND PATTERN "U+"`,
		`MATCH PEAKS 3 TOLERANCE 2`,
		`MATCH INTERVAL 135 +- 2`,
		`MATCH VALUE LIKE id EPS 1`,
		`MATCH SHAPE LIKE id PEAKS 1 HEIGHT 0.5 SPACING 0.25`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("round trip: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	db := testDB(t)
	for _, src := range []string{
		`match peaks 2`,
		`Match Peaks 2`,
		`MATCH peaks 2`,
	} {
		res, err := Exec(db, src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(res.IDs) != 2 {
			t.Errorf("%q: IDs %v", src, res.IDs)
		}
	}
}

func TestResultIDsSortedForFind(t *testing.T) {
	db := testDB(t)
	res, err := Exec(db, `FIND PATTERN "U"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.Join(res.IDs, ","), "shifted") {
		t.Errorf("IDs not sorted: %v", res.IDs)
	}
}
