package pattern

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestLiteralMatch(t *testing.T) {
	p := MustCompile("UFD")
	if !p.Match("UFD") {
		t.Error("exact literal rejected")
	}
	for _, bad := range []string{"", "UF", "UFDD", "FUD", "ufd"} {
		if p.Match(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestOperators(t *testing.T) {
	cases := []struct {
		pat     string
		yes, no []string
	}{
		{"UF*D", []string{"UD", "UFD", "UFFFD"}, []string{"UFF", "FD", "UFDF"}},
		{"UF+D", []string{"UFD", "UFFD"}, []string{"UD", "UFF"}},
		{"UF?D", []string{"UD", "UFD"}, []string{"UFFD"}},
		{"U|D", []string{"U", "D"}, []string{"F", "UD", ""}},
		{"(UD)+", []string{"UD", "UDUD"}, []string{"", "U", "UDU"}},
		{".", []string{"U", "F", "D", "x"}, []string{"", "UU"}},
		{"[UD]+", []string{"U", "DU", "UUDD"}, []string{"", "F", "UFD"}},
		{"[^U]+", []string{"FD", "DDD"}, []string{"U", "FU", ""}},
		{"U{3}", []string{"UUU"}, []string{"UU", "UUUU", ""}},
		{"U{2,3}", []string{"UU", "UUU"}, []string{"U", "UUUU"}},
		{"U{2,}", []string{"UU", "UUUUU"}, []string{"U", ""}},
		{"U{0,2}", []string{"", "U", "UU"}, []string{"UUU"}},
		{"", []string{""}, []string{"U"}},
		{"(U|F)(D|F)", []string{"UD", "UF", "FD", "FF"}, []string{"DU", "U"}},
	}
	for _, c := range cases {
		p, err := Compile(c.pat)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.pat, err)
		}
		for _, in := range c.yes {
			if !p.Match(in) {
				t.Errorf("%q should match %q", c.pat, in)
			}
		}
		for _, in := range c.no {
			if p.Match(in) {
				t.Errorf("%q should not match %q", c.pat, in)
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"(", ")", "(U", "U)", "[", "[]", "[^]", "U{", "U{2", "U{a}",
		"U{3,2}", "*U", "+", "?", "|*", "U{999}", "U{1,999}", "]", "}",
		"((U{256}){256}){256}", "(U{256}){256}", // nested repeats past maxStates
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) accepted", src)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	MustCompile("(")
}

func TestStringReturnsSource(t *testing.T) {
	if MustCompile("UF*D").String() != "UF*D" {
		t.Error("String")
	}
}

func TestFindAll(t *testing.T) {
	p := MustCompile("UF*D")
	hits := p.FindAll("FFUDFFUFFDU")
	want := [][2]int{{2, 4}, {6, 10}}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("hit %d = %v, want %v", i, hits[i], want[i])
		}
	}
	if !p.Contains("FFUD") {
		t.Error("Contains failed")
	}
	if p.Contains("FFFF") {
		t.Error("Contains false positive")
	}
	if got := p.FindAll(""); got != nil {
		t.Errorf("FindAll on empty = %v", got)
	}
}

func TestFindAllLeftmostLongest(t *testing.T) {
	p := MustCompile("U+")
	hits := p.FindAll("UUUFUU")
	want := [][2]int{{0, 3}, {4, 6}}
	if len(hits) != 2 || hits[0] != want[0] || hits[1] != want[1] {
		t.Errorf("hits = %v, want %v", hits, want)
	}
}

// The goal-post fever pattern (§4.4): exactly two peaks.
func TestTwoPeakPattern(t *testing.T) {
	p := MustCompile(TwoPeak())
	yes := []string{
		"UDUD",      // minimal two peaks
		"UFDUFD",    // flats at the crests
		"FUDFUDF",   // flats around
		"UUDDUUDD",  // multi-segment flanks
		"DUDUD",     // leading descent
		"UDFDUFDDU", // trailing rise without descent is not a third peak
	}
	no := []string{
		"",        // nothing
		"UD",      // one peak
		"UDUDUD",  // three peaks
		"FFFF",    // no peaks
		"UDUDUDU", // three peaks plus tail
		"DDFF",    // no rise at all
	}
	for _, in := range yes {
		if !p.Match(in) {
			t.Errorf("two-peak should accept %q", in)
		}
	}
	for _, in := range no {
		if p.Match(in) {
			t.Errorf("two-peak should reject %q", in)
		}
	}
}

func TestExactlyPeaksClampsK(t *testing.T) {
	if ExactlyPeaks(0) != ExactlyPeaks(1) {
		t.Error("k<1 not clamped")
	}
}

func TestAtLeastPeaks(t *testing.T) {
	p := MustCompile(AtLeastPeaks(2))
	for _, in := range []string{"UDUD", "UDUDUD", "FUDUFDFUD"} {
		if !p.Match(in) {
			t.Errorf("at-least-2 should accept %q", in)
		}
	}
	for _, in := range []string{"UD", "FFF", ""} {
		if p.Match(in) {
			t.Errorf("at-least-2 should reject %q", in)
		}
	}
	if AtLeastPeaks(0) != AtLeastPeaks(1) {
		t.Error("k<1 not clamped")
	}
}

// naiveMatch is an exponential-time reference matcher used to cross-check
// the engine on random small inputs.
func naiveMatch(n node, input string) bool {
	ends := naiveEnds(n, input, 0)
	for _, e := range ends {
		if e == len(input) {
			return true
		}
	}
	return false
}

// naiveEnds returns all positions the node can consume to, starting at pos.
func naiveEnds(n node, input string, pos int) []int {
	switch v := n.(type) {
	case litNode:
		if pos < len(input) && v.class.has(input[pos]) {
			return []int{pos + 1}
		}
		return nil
	case concatNode:
		positions := []int{pos}
		for _, part := range v.parts {
			var next []int
			seen := map[int]bool{}
			for _, p := range positions {
				for _, e := range naiveEnds(part, input, p) {
					if !seen[e] {
						seen[e] = true
						next = append(next, e)
					}
				}
			}
			positions = next
			if len(positions) == 0 {
				return nil
			}
		}
		return positions
	case altNode:
		seen := map[int]bool{}
		var out []int
		for _, ch := range v.choices {
			for _, e := range naiveEnds(ch, input, pos) {
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
		}
		return out
	case repeatNode:
		// BFS over repetition counts: cur holds the positions reached with
		// exactly count repetitions, reached those with min..count.
		step := func(from map[int]bool) map[int]bool {
			to := map[int]bool{}
			for p := range from {
				for _, e := range naiveEnds(v.child, input, p) {
					to[e] = true
				}
			}
			return to
		}
		cur := map[int]bool{pos: true}
		for count := 0; count < v.min; count++ {
			cur = step(cur)
		}
		reached := maps.Clone(cur)
		for count := v.min; v.max < 0 || count < v.max; count++ {
			// Once a count adds no position, no later count can: every
			// later set is a step from positions already reached.
			cur = step(cur)
			grew := false
			for e := range cur {
				if !reached[e] {
					reached[e] = true
					grew = true
				}
			}
			if !grew {
				break
			}
		}
		var out []int
		for e := range reached {
			out = append(out, e)
		}
		return out
	default:
		return nil
	}
}

// naiveFindAll is FindAll's reference: at each start the longest
// non-empty match naiveEnds admits, leftmost first, non-overlapping.
func naiveFindAll(n node, input string) [][2]int {
	var out [][2]int
	for start := 0; start < len(input); {
		end := start
		for _, e := range naiveEnds(n, input, start) {
			end = max(end, e)
		}
		if end > start {
			out = append(out, [2]int{start, end})
			start = end
		} else {
			start++
		}
	}
	return out
}

// parseAST parses src the way Compile does, for the reference matcher.
func parseAST(t testing.TB, src string) node {
	t.Helper()
	ps := &parser{src: src}
	ast, err := ps.parseAlternation()
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return ast
}

// agreesWithNaive checks Match and FindAll on one input against the
// reference matcher.
func agreesWithNaive(t *testing.T, p *Pattern, ast node, in string) {
	t.Helper()
	if got, want := p.Match(in), naiveMatch(ast, in); got != want {
		t.Errorf("pattern %q input %q: Match %v, naive %v", p, in, got, want)
	}
	if got, want := p.FindAll(in), naiveFindAll(ast, in); !slices.Equal(got, want) {
		t.Errorf("pattern %q input %q: FindAll %v, naive %v", p, in, got, want)
	}
}

// batchAgreesWithNaive checks MatchEach and FindEach over a column of
// inputs against the reference matcher, input by input.
func batchAgreesWithNaive(t *testing.T, p *Pattern, ast node, inputs []string) {
	t.Helper()
	matched := p.MatchEach(inputs, nil)
	spans, ends := p.FindEach(inputs, nil, []int{0})
	if len(matched) != len(inputs) || len(ends) != len(inputs)+1 {
		t.Fatalf("pattern %q: %d inputs, MatchEach %d answers, FindEach %d ends", p, len(inputs), len(matched), len(ends))
	}
	for i, in := range inputs {
		if want := naiveMatch(ast, in); matched[i] != want {
			t.Errorf("pattern %q input %q: MatchEach %v, naive %v", p, in, matched[i], want)
		}
		if got, want := spans[ends[i]:ends[i+1]], naiveFindAll(ast, in); !slices.Equal(got, want) {
			t.Errorf("pattern %q input %q: FindEach %v, naive %v", p, in, got, want)
		}
	}
}

// randomPattern draws a pattern from a small grammar covering every
// construct: literals, classes, negated classes, '.', groups, '|', '*',
// '+', '?' and counted repeats.
func randomPattern(rng *rand.Rand, depth int) string {
	atoms := []string{"U", "F", "D", ".", "[UD]", "[FD]", "[UF]", "[^U]", "[^F]", "[^UD]"}
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if depth > 0 && rng.Intn(3) == 0 {
			b.WriteString("(" + randomPattern(rng, depth-1))
			if rng.Intn(2) == 0 {
				b.WriteString("|" + randomPattern(rng, depth-1))
			}
			b.WriteString(")")
		} else {
			b.WriteString(atoms[rng.Intn(len(atoms))])
		}
		switch m := rng.Intn(3); rng.Intn(8) {
		case 0:
			b.WriteString("*")
		case 1:
			b.WriteString("+")
		case 2:
			b.WriteString("?")
		case 3:
			fmt.Fprintf(&b, "{%d,%d}", m, m+rng.Intn(3))
		case 4:
			fmt.Fprintf(&b, "{%d,}", m)
		}
	}
	if depth > 0 && rng.Intn(4) == 0 {
		b.WriteString("|" + randomPattern(rng, depth-1))
	}
	return b.String()
}

func randomInput(rng *rand.Rand, maxLen int) string {
	b := make([]byte, rng.Intn(maxLen+1))
	for i := range b {
		b[i] = "UFD"[rng.Intn(3)]
	}
	return string(b)
}

// Property: the lazily built DFA agrees with the naive reference matcher,
// for Match and FindAll and for their batch forms MatchEach and FindEach,
// on fixed and random patterns and inputs over
// the slope alphabet; and nfaSize predicts exactly what Compile builds.
func TestNFAAgreesWithNaiveMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	patterns := []string{
		"UF*D", "U+F*D", "(U|D)*", "U?D?F?", "[UD]+F", "U{2,3}D",
		"((U|F)+D)*", "U(FD)*U?", "[^F]+", "(UD|DU){1,2}", "", "()", "(|U)D*",
	}
	for i := 0; i < 300; i++ {
		patterns = append(patterns, randomPattern(rng, 2))
	}
	for _, src := range patterns {
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		ast := parseAST(t, src)
		if got := nfaSize(ast) + 1; got != len(p.states) {
			t.Errorf("pattern %q: nfaSize predicts %d states, Compile built %d", src, got, len(p.states))
		}
		inputs := make([]string, 60)
		for trial := range inputs {
			inputs[trial] = randomInput(rng, 9)
			agreesWithNaive(t, p, ast, inputs[trial])
		}
		batchAgreesWithNaive(t, p, ast, inputs)
	}
}

// The engine must be immune to patterns that would blow up a backtracker,
// and to patterns whose DFA is exponential in the NFA: the cache is
// flushed when full, and the answers do not change.
func TestNoCatastrophicBacktracking(t *testing.T) {
	p := MustCompile("(U*)*D")
	input := strings.Repeat("U", 2000) // no trailing D: must fail fast
	if p.Match(input) {
		t.Error("should not match")
	}
	long := strings.Repeat("U", 2000) + "D"
	if !p.Match(long) {
		t.Error("should match")
	}

	// "a U 13 symbols from the end" needs 2^14 DFA states, four times the
	// cap. One matcher, fed directly so no pool can drop it, must flush
	// and go on agreeing with the reference.
	const tail = 13
	src := fmt.Sprintf(".*U.{%d}", tail)
	p = MustCompile(src)
	ast := parseAST(t, src)
	m := newMatcher(p)
	rng := rand.New(rand.NewSource(7))
	// Each distinct placement of U in the last tail+1 symbols is a
	// distinct DFA state.
	placements := map[string]bool{}
	for trial := 0; trial < 3000; trial++ {
		in := randomInput(rng, 4*tail)
		if got, want := m.longest(in, 0) == len(in), naiveMatch(ast, in); got != want {
			t.Fatalf("%q on %q: DFA %v, naive %v", src, in, got, want)
		}
		for i := 0; i+tail+1 <= len(in); i++ {
			placements[strings.ReplaceAll(in[i:i+tail+1], "D", "F")] = true
		}
		if len(m.states) > maxDFAStates {
			t.Fatalf("cache holds %d states, cap %d", len(m.states), maxDFAStates)
		}
	}
	if len(placements) <= maxDFAStates {
		t.Fatalf("only %d states visited: the cap was never reached", len(placements))
	}
	for trial := 0; trial < 200; trial++ {
		agreesWithNaive(t, p, ast, randomInput(rng, 2*tail))
	}
	// Linear even while flushing: a long input runs in one pass.
	in := randomInput(rng, 200000)
	if got, want := p.Match(in), len(in) > tail && in[len(in)-tail-1] == 'U'; got != want {
		t.Errorf("%q on a %d-symbol input: %v, want %v", src, len(in), got, want)
	}
}

// A warmed Pattern matches without allocating: the matcher comes from the
// pool and every transition the input takes is cached. The batch walks
// allocate nothing beyond the output slices they are handed.
func TestMatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	p := MustCompile(TwoPeak())
	in := "FUUDDFFUUDDF"
	p.Match(in)
	if allocs := testing.AllocsPerRun(100, func() { p.Match(in) }); allocs != 0 {
		t.Errorf("Match allocates %.1f per call on a warmed pattern", allocs)
	}

	column := []string{in, "FUDF", "", "UUDDFUD", in, "DDFUUDDUUDDFF"}
	matched := p.MatchEach(column, nil)
	if allocs := testing.AllocsPerRun(100, func() { matched = p.MatchEach(column, matched[:0]) }); allocs != 0 {
		t.Errorf("MatchEach allocates %.1f per call on a warmed pattern", allocs)
	}
	unit := MustCompile(PeakUnit)
	spans, ends := unit.FindEach(column, nil, []int{0})
	if allocs := testing.AllocsPerRun(100, func() { spans, ends = unit.FindEach(column, spans[:0], ends[:1]) }); allocs != 0 {
		t.Errorf("FindEach allocates %.1f per call on a warmed pattern", allocs)
	}
	if len(spans) == 0 {
		t.Fatal("FindEach found no peak in the column")
	}
}

// FuzzPattern compiles arbitrary bytes; whatever compiles must match
// fuzzed slope strings without panicking, and agree with the reference
// matcher on inputs of at most 10 symbols, alone and in a batch walk.
func FuzzPattern(f *testing.F) {
	for _, src := range []string{"UF*D", TwoPeak(), AtLeastPeaks(2), "(U*)*D", "[^F]{2,3}", ".*U.{3}", "(UD|DU){1,2}", "(|U)D*", "x[^x]"} {
		f.Add(src, []byte{0, 1, 2, 0, 2, 1})
	}
	f.Fuzz(func(t *testing.T, src string, raw []byte) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		in := make([]byte, len(raw))
		for i, b := range raw {
			in[i] = "UFD"[b%3]
		}
		p.Match(string(in))
		p.FindAll(string(in))
		// The reference is exponential in the pattern's nesting: keep it
		// to small patterns and short inputs.
		if len(in) > 10 || len(p.states) > 256 {
			return
		}
		ast := parseAST(t, src)
		agreesWithNaive(t, p, ast, string(in))
		// The batch walks see the input among its own prefixes and
		// suffixes, so one matcher carries DFA states across inputs.
		column := []string{string(in)}
		for i := range in {
			column = append(column, string(in[:i]), string(in[i:]))
		}
		batchAgreesWithNaive(t, p, ast, column)
	})
}

func TestCountedRepetitionExpansionBound(t *testing.T) {
	if _, err := Compile("U{256}"); err != nil {
		t.Errorf("U{256} should compile: %v", err)
	}
	if _, err := Compile("U{257}"); err == nil {
		t.Error("U{257} should exceed the bound")
	}
}
