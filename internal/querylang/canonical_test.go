package querylang

import "testing"

// TestCanonical pins the cache-key contract: spelling variants of one
// statement share a canonical form, distinct statements (including the
// EXPLAIN'ed variant) do not, and the canonical form is a fixed point.
func TestCanonical(t *testing.T) {
	equivalent := [][]string{
		{`match value like ecg1`, `MATCH VALUE LIKE ecg1`, `  MATCH   VALUE LIKE "ecg1"  `},
		{`match distance like ecg1`, `MATCH DISTANCE LIKE ecg1 METRIC l2`},
		{`explain match peaks 2`, `EXPLAIN MATCH PEAKS 2`, `EXPLAIN EXPLAIN MATCH PEAKS 2`},
		{`find pattern "U+D+"`, `FIND PATTERN 'U+D+'`},
		{`match interval 135 +- 2`, `MATCH INTERVAL 135.0 +- 2.00`},
		// Bound clauses: case-insensitive keywords, number spellings and
		// clause order all canonicalize identically (the cache-key
		// stability the server depends on).
		{`MATCH VALUE LIKE ecg1 LIMIT 5`, `match value like ecg1 limit 5`, `MATCH VALUE LIKE ecg1 LIMIT 5.0`},
		{`MATCH DISTANCE LIKE ecg1 TOP 3 BY DISTANCE`, `match distance like ecg1 top 3 by distance`},
		{`MATCH PEAKS 2 TOP 3 BY DISTANCE LIMIT 5`, `MATCH PEAKS 2 LIMIT 5 TOP 3 BY DISTANCE`},
		{`explain match value like ecg1 limit 5`, `EXPLAIN MATCH VALUE LIKE ecg1 LIMIT 5`},
	}
	for _, group := range equivalent {
		first, err := Canonical(group[0])
		if err != nil {
			t.Fatalf("Canonical(%q): %v", group[0], err)
		}
		for _, src := range group[1:] {
			got, err := Canonical(src)
			if err != nil {
				t.Fatalf("Canonical(%q): %v", src, err)
			}
			if got != first {
				t.Errorf("Canonical(%q) = %q, want %q (same as %q)", src, got, first, group[0])
			}
		}
		// Fixed point: canonicalizing the canonical form changes nothing.
		again, err := Canonical(first)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", first, err)
		}
		if again != first {
			t.Errorf("canonical form is not a fixed point: %q -> %q", first, again)
		}
	}

	distinct := []string{
		`MATCH VALUE LIKE ecg1`,
		`MATCH VALUE LIKE ecg1 EPS 0.5`,
		`EXPLAIN MATCH VALUE LIKE ecg1`,
		`MATCH DISTANCE LIKE ecg1 METRIC zl2`,
		`MATCH PEAKS 2`,
		`MATCH VALUE LIKE ecg1 LIMIT 5`,
		`MATCH VALUE LIKE ecg1 LIMIT 6`,
		`MATCH VALUE LIKE ecg1 TOP 5 BY DISTANCE`,
		`MATCH VALUE LIKE ecg1 TOP 5 BY DISTANCE LIMIT 5`,
		`EXPLAIN MATCH VALUE LIKE ecg1 LIMIT 5`,
	}
	seen := map[string]string{}
	for _, src := range distinct {
		got, err := Canonical(src)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", src, err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("distinct statements %q and %q share canonical form %q", src, prev, got)
		}
		seen[got] = src
	}

	if _, err := Canonical(`MATCH NONSENSE`); err == nil {
		t.Error("Canonical accepted an unparseable statement")
	}
}

// TestCanonicalExponentRoundTrip pins that a canonical form re-parses
// when a number renders in exponent notation (%g turns 0.00001 into
// 1e-05 and 10²¹ into 1e+21), and that exponent spellings canonicalize
// like their decimal ones.
func TestCanonicalExponentRoundTrip(t *testing.T) {
	groups := [][]string{
		{`MATCH VALUE LIKE ecg1 EPS 0.00001`, `MATCH VALUE LIKE ecg1 EPS 1e-5`, `MATCH VALUE LIKE ecg1 EPS 1E-05`},
		{`MATCH VALUE LIKE ecg1 EPS 1000000000000000000000`, `MATCH VALUE LIKE ecg1 EPS 1e21`, `MATCH VALUE LIKE ecg1 EPS 1e+21`},
		{`MATCH INTERVAL 0.00001 +- 0.5`, `MATCH INTERVAL 1e-5 +- 5e-1`},
		{`MATCH INTERVAL -0.00001 +- 0.5`, `MATCH INTERVAL -1.0e-5 +- .5`},
		{`MATCH DISTANCE LIKE ecg1 EPS 3 WITHIN ERROR 0.000002`, `MATCH DISTANCE LIKE ecg1 EPS 3e0 WITHIN ERROR 2e-6`},
		{`MATCH SHAPE LIKE x HEIGHT 0.0000003`, `MATCH SHAPE LIKE x HEIGHT 3E-7`},
	}
	for _, group := range groups {
		first, err := Canonical(group[0])
		if err != nil {
			t.Fatalf("Canonical(%q): %v", group[0], err)
		}
		again, err := Canonical(first)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", first, group[0], err)
		}
		if again != first {
			t.Errorf("canonical form is not a fixed point: %q -> %q", first, again)
		}
		for _, src := range group[1:] {
			got, err := Canonical(src)
			if err != nil {
				t.Fatalf("Canonical(%q): %v", src, err)
			}
			if got != first {
				t.Errorf("Canonical(%q) = %q, want %q", src, got, first)
			}
		}
	}

	// An 'e' with no digits after it is not an exponent: it lexes as the
	// next token, exactly as before exponents were accepted.
	for src, want := range map[string][]string{
		`5e`:    {"5", "e"},
		`5eps`:  {"5", "eps"},
		`2.5e-`: {"2.5", "e-"},
		`7E-x`:  {"7", "E-x"},
	} {
		toks, err := lex(src)
		if err != nil {
			t.Fatalf("lex(%q): %v", src, err)
		}
		for i, w := range want {
			if i >= len(toks) || toks[i].text != w {
				t.Errorf("lex(%q) = %+v, want texts %q", src, toks, want)
				break
			}
		}
	}
}
