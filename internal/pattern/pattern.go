// Package pattern implements the pattern language of the paper's §4.4: a
// regular-expression engine over the slope-sign alphabet produced by
// package feature. The goal-post fever query, for instance, is the regular
// expression (in the paper's notation)
//
//	(1 0* -1)(0 | -1)* (1 0* -1)
//
// which this package spells "UF*D(F|D)*UF*D".
//
// The engine is self-contained (no dependency on regexp, whose semantics
// over bytes would admit no counted slope classes): patterns are parsed by
// recursive descent into a syntax tree and compiled to a Thompson NFA with
// ε-transitions. Matching runs a DFA determinized lazily from that NFA:
// each DFA state is an ε-closed set of NFA states, built the first time
// the input reaches it, and its transitions are cached per byte class (the
// bytes no NFA state tells apart — here U, F, D and everything else). The
// cache is capped and flushed when full, as RE2 does, so a pattern whose
// DFA is exponential in its NFA still runs in time linear in the input and
// in bounded memory; no input can cause catastrophic backtracking.
//
// Supported syntax: literals, '.' (any symbol), character classes
// "[UD]" / negated "[^U]", grouping "(..)", alternation '|', and the
// postfix operators '*', '+', '?', "{m}", "{m,}", "{m,n}".
package pattern

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// maxCountedRepeat bounds {m,n} expansion so a hostile pattern cannot blow
// up the compiled NFA.
const maxCountedRepeat = 256

// maxStates bounds the compiled NFA, which nested counted repeats would
// otherwise multiply past any one repeat's bound ("((U{256}){256}){256}"
// is 21 bytes and 16 million states).
const maxStates = 1 << 16

// Pattern is a compiled pattern, safe for concurrent use.
type Pattern struct {
	src    string
	states []state
	start  int
	accept int

	// classOf maps every byte to its byte class. A DFA row holds
	// 1<<rowShift classes: a power of two, and at least two.
	classOf  [256]uint8
	rowShift uint

	// matchers hands each call a lazily built DFA of its own, so the
	// Pattern itself is never written after Compile.
	matchers sync.Pool
}

// state is one NFA state: either a consuming state with a byte-class edge,
// or a split state with up to two ε-edges.
type state struct {
	// class is non-nil for consuming states; the single out edge is next1.
	class *classSet
	// next1/next2 are successor state indexes (-1 = none). Split states
	// use both; consuming states use next1 only.
	next1, next2 int
}

// classSet is a 256-bit byte membership set.
type classSet struct {
	bits [4]uint64
}

func (c *classSet) add(b byte)      { c.bits[b>>6] |= 1 << (b & 63) }
func (c *classSet) has(b byte) bool { return c.bits[b>>6]&(1<<(b&63)) != 0 }
func (c *classSet) negate() {
	for i := range c.bits {
		c.bits[i] = ^c.bits[i]
	}
}

// String returns the source pattern.
func (p *Pattern) String() string { return p.src }

// MustCompile is Compile that panics on error, for package-level patterns.
func MustCompile(src string) *Pattern {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Compile parses and compiles the pattern.
func Compile(src string) (*Pattern, error) {
	ps := &parser{src: src}
	ast, err := ps.parseAlternation()
	if err != nil {
		return nil, err
	}
	if ps.pos != len(src) {
		return nil, fmt.Errorf("pattern: unexpected %q at position %d", src[ps.pos], ps.pos)
	}
	if nfaSize(ast) >= maxStates {
		return nil, fmt.Errorf("pattern: compiles to more than %d states", maxStates)
	}
	c := &compiler{}
	frag := c.compile(ast)
	accept := c.newState(state{next1: -1, next2: -1})
	c.patch(frag.out, accept)
	p := &Pattern{src: src, states: c.states, start: frag.start, accept: accept}
	classOf, nclass := byteClasses(p.states)
	p.classOf, p.rowShift = classOf, uint(bits.Len(uint(max(nclass, 2)-1)))
	p.matchers.New = func() any { return newMatcher(p) }
	return p, nil
}

// ---- parser ----

// node is the pattern syntax tree.
type node interface{}

type litNode struct{ class classSet }

type concatNode struct{ parts []node }

type altNode struct{ choices []node }

// repeatNode repeats child between min and max times; max < 0 = unbounded.
type repeatNode struct {
	child    node
	min, max int
}

type parser struct {
	src string
	pos int
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseAlternation() (node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	choices := []node{first}
	for {
		b, ok := p.peek()
		if !ok || b != '|' {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		choices = append(choices, next)
	}
	if len(choices) == 1 {
		return first, nil
	}
	return altNode{choices: choices}, nil
}

func (p *parser) parseConcat() (node, error) {
	var parts []node
	for {
		b, ok := p.peek()
		if !ok || b == '|' || b == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
	}
	return concatNode{parts: parts}, nil
}

func (p *parser) parseRepeat() (node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		b, ok := p.peek()
		if !ok {
			return atom, nil
		}
		switch b {
		case '*':
			p.pos++
			atom = repeatNode{child: atom, min: 0, max: -1}
		case '+':
			p.pos++
			atom = repeatNode{child: atom, min: 1, max: -1}
		case '?':
			p.pos++
			atom = repeatNode{child: atom, min: 0, max: 1}
		case '{':
			rep, err := p.parseCount()
			if err != nil {
				return nil, err
			}
			rep.child = atom
			atom = rep
		default:
			return atom, nil
		}
	}
}

// parseCount parses "{m}", "{m,}" or "{m,n}" starting at '{'.
func (p *parser) parseCount() (repeatNode, error) {
	open := p.pos
	p.pos++ // consume '{'
	m, ok := p.parseInt()
	if !ok {
		return repeatNode{}, fmt.Errorf("pattern: bad repeat count at position %d", open)
	}
	rep := repeatNode{min: m, max: m}
	if b, ok := p.peek(); ok && b == ',' {
		p.pos++
		if b2, ok := p.peek(); ok && b2 == '}' {
			rep.max = -1
		} else {
			n, ok := p.parseInt()
			if !ok {
				return repeatNode{}, fmt.Errorf("pattern: bad repeat bound at position %d", p.pos)
			}
			rep.max = n
		}
	}
	b, ok := p.peek()
	if !ok || b != '}' {
		return repeatNode{}, fmt.Errorf("pattern: unterminated repeat at position %d", open)
	}
	p.pos++
	if rep.min < 0 || (rep.max >= 0 && rep.max < rep.min) {
		return repeatNode{}, fmt.Errorf("pattern: invalid repeat bounds {%d,%d}", rep.min, rep.max)
	}
	if rep.min > maxCountedRepeat || rep.max > maxCountedRepeat {
		return repeatNode{}, fmt.Errorf("pattern: repeat bound exceeds %d", maxCountedRepeat)
	}
	return rep, nil
}

func (p *parser) parseInt() (int, bool) {
	start := p.pos
	v := 0
	for {
		b, ok := p.peek()
		if !ok || b < '0' || b > '9' {
			break
		}
		v = v*10 + int(b-'0')
		if v > maxCountedRepeat+1 {
			return v, p.pos > start // report overflow via bounds check later
		}
		p.pos++
	}
	return v, p.pos > start
}

func (p *parser) parseAtom() (node, error) {
	b, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("pattern: unexpected end of pattern")
	}
	switch b {
	case '(':
		open := p.pos
		p.pos++
		inner, err := p.parseAlternation()
		if err != nil {
			return nil, err
		}
		if nb, ok := p.peek(); !ok || nb != ')' {
			return nil, fmt.Errorf("pattern: unclosed group at position %d", open)
		}
		p.pos++
		return inner, nil
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		var cs classSet
		cs.negate() // everything
		return litNode{class: cs}, nil
	case '*', '+', '?', '{', '|', ')':
		return nil, fmt.Errorf("pattern: unexpected %q at position %d", b, p.pos)
	case ']', '}':
		return nil, fmt.Errorf("pattern: unmatched %q at position %d", b, p.pos)
	default:
		p.pos++
		var cs classSet
		cs.add(b)
		return litNode{class: cs}, nil
	}
}

func (p *parser) parseClass() (node, error) {
	open := p.pos
	p.pos++ // consume '['
	var cs classSet
	negated := false
	if b, ok := p.peek(); ok && b == '^' {
		negated = true
		p.pos++
	}
	count := 0
	for {
		b, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("pattern: unclosed class at position %d", open)
		}
		if b == ']' {
			p.pos++
			break
		}
		cs.add(b)
		count++
		p.pos++
	}
	if count == 0 {
		return nil, fmt.Errorf("pattern: empty class at position %d", open)
	}
	if negated {
		cs.negate()
	}
	return litNode{class: cs}, nil
}

// ---- compiler (Thompson construction) ----

// frag is an NFA fragment: a start state and a list of dangling out-edges
// (state index + which edge) awaiting patching.
type frag struct {
	start int
	out   []patchPoint
}

type patchPoint struct {
	state int
	slot  int // 1 = next1, 2 = next2
}

type compiler struct {
	states []state
}

func (c *compiler) newState(s state) int {
	c.states = append(c.states, s)
	return len(c.states) - 1
}

func (c *compiler) patch(points []patchPoint, target int) {
	for _, pp := range points {
		if pp.slot == 1 {
			c.states[pp.state].next1 = target
		} else {
			c.states[pp.state].next2 = target
		}
	}
}

func (c *compiler) compile(n node) frag {
	switch v := n.(type) {
	case litNode:
		cls := v.class
		id := c.newState(state{class: &cls, next1: -1, next2: -1})
		return frag{start: id, out: []patchPoint{{id, 1}}}
	case concatNode:
		if len(v.parts) == 0 {
			// ε: a split state with one dangling edge.
			id := c.newState(state{next1: -1, next2: -1})
			return frag{start: id, out: []patchPoint{{id, 1}}}
		}
		cur := c.compile(v.parts[0])
		for _, part := range v.parts[1:] {
			next := c.compile(part)
			c.patch(cur.out, next.start)
			cur = frag{start: cur.start, out: next.out}
		}
		return cur
	case altNode:
		frags := make([]frag, len(v.choices))
		for i, ch := range v.choices {
			frags[i] = c.compile(ch)
		}
		cur := frags[len(frags)-1]
		for i := len(frags) - 2; i >= 0; i-- {
			split := c.newState(state{next1: frags[i].start, next2: cur.start})
			cur = frag{start: split, out: append(frags[i].out, cur.out...)}
		}
		return cur
	case repeatNode:
		return c.compileRepeat(v)
	default:
		panic(fmt.Sprintf("pattern: unknown node %T", n))
	}
}

func (c *compiler) compileRepeat(r repeatNode) frag {
	if r.max < 0 {
		// min copies followed by a Kleene star.
		star := c.compileStar(r.child)
		cur := star
		for i := 0; i < r.min; i++ {
			pre := c.compile(r.child)
			c.patch(pre.out, cur.start)
			cur = frag{start: pre.start, out: cur.out}
		}
		return cur
	}
	// Exactly min copies, then (max-min) optional copies, right to left.
	id := c.newState(state{next1: -1, next2: -1}) // ε landing pad
	cur := frag{start: id, out: []patchPoint{{id, 1}}}
	for i := 0; i < r.max-r.min; i++ {
		body := c.compile(r.child)
		c.patch(body.out, cur.start)
		split := c.newState(state{next1: body.start, next2: cur.start})
		cur = frag{start: split, out: cur.out}
	}
	for i := 0; i < r.min; i++ {
		body := c.compile(r.child)
		c.patch(body.out, cur.start)
		cur = frag{start: body.start, out: cur.out}
	}
	return cur
}

func (c *compiler) compileStar(child node) frag {
	body := c.compile(child)
	split := c.newState(state{next1: body.start, next2: -1})
	c.patch(body.out, split)
	return frag{start: split, out: []patchPoint{{split, 2}}}
}

// nfaSize is the number of states compile creates for n, saturating just
// past maxStates so that nested counted repeats cannot overflow it.
func nfaSize(n node) int {
	size := 0
	switch v := n.(type) {
	case litNode:
		size = 1
	case concatNode:
		if len(v.parts) == 0 {
			size = 1
		}
		for _, part := range v.parts {
			size += nfaSize(part)
		}
	case altNode:
		size = len(v.choices) - 1
		for _, ch := range v.choices {
			size += nfaSize(ch)
		}
	case repeatNode:
		body := nfaSize(v.child)
		if v.max < 0 {
			size = (v.min+1)*body + 1
		} else {
			size = v.max*body + v.max - v.min + 1
		}
	}
	return min(size, maxStates+1)
}

// byteClasses partitions the 256 byte values into the classes no
// consuming state tells apart, so that the DFA keeps one transition per
// class rather than per byte. It returns every byte's class and the
// number of classes.
func byteClasses(states []state) (classOf [256]uint8, n int) {
	n = 1
	seen := make(map[classSet]bool)
	for i := range states {
		cs := states[i].class
		if cs == nil || seen[*cs] {
			continue
		}
		seen[*cs] = true
		// Split every class in two by membership in cs.
		var split [512]int16
		for j := range split {
			split[j] = -1
		}
		n = 0
		for b := 0; b < 256; b++ {
			k := 2 * int(classOf[b])
			if cs.has(byte(b)) {
				k++
			}
			if split[k] < 0 {
				split[k] = int16(n)
				n++
			}
			classOf[b] = uint8(split[k])
		}
	}
	return classOf, n
}

// ---- lazily built DFA ----

// The DFA cache of one matcher is flushed when it holds maxDFAStates
// states or maxDFAWords words of NFA state sets and transitions (4 MiB),
// so memory stays bounded while time stays linear in the input: a flush
// costs at most one rebuilt state per input symbol.
const (
	maxDFAStates = 4096
	maxDFAWords  = 1 << 20
)

// A DFA state is named by where its row starts in the transition table,
// with the low bit set when the state accepts: rows are a power of two
// wide and at least two, so the bit is free, and a step is one load.
const (
	deadState    int32 = 0  // row 0, the empty set: the match has failed
	unknownState int32 = -1 // a transition not computed yet
)

// dstate is one DFA state: the ε-closed set of NFA consuming states
// sets[lo:hi] of its matcher.
type dstate struct{ lo, hi int32 }

// matcher is one lazily built DFA over a Pattern's NFA, with the scratch
// that builds it. One goroutine uses it at a time; Pattern keeps them in
// a sync.Pool, so the DFA a call builds serves the calls after it.
type matcher struct {
	p      *Pattern
	states []dstate // indexed by name>>p.rowShift
	sets   []int32
	trans  []int32          // [row start + byte class] → next state's name, or unknownState
	index  map[string]int32 // key of a state's set → the state's name
	start  int32            // unknownState until computed

	seen  []uint32 // NFA state → the closure generation that last visited it
	gen   uint32
	stack []int
	set   []int32 // the set under construction
	key   []byte
}

func newMatcher(p *Pattern) *matcher {
	m := &matcher{
		p:     p,
		index: make(map[string]int32),
		seen:  make([]uint32, len(p.states)),
	}
	m.reset()
	return m
}

// reset empties the cache down to the dead state, whose transitions all
// lead back to itself.
func (m *matcher) reset() {
	m.states = append(m.states[:0], dstate{})
	m.sets = m.sets[:0]
	m.trans = append(m.trans[:0], make([]int32, 1<<m.p.rowShift)...)
	clear(m.index)
	m.index[""] = deadState
	m.start = unknownState
}

// intern returns the name of the DFA state of the sorted NFA set m.set,
// adding the state when new. Adding to a full cache flushes it first,
// which invalidates every name the caller holds; flushed reports that.
func (m *matcher) intern(accept bool) (name int32, flushed bool) {
	m.key = m.key[:0]
	for _, s := range m.set {
		m.key = binary.LittleEndian.AppendUint32(m.key, uint32(s))
	}
	if accept {
		m.key = append(m.key, 1)
	}
	if name, ok := m.index[string(m.key)]; ok {
		return name, false
	}
	width := 1 << m.p.rowShift
	if len(m.states) >= maxDFAStates || len(m.sets)+len(m.trans)+len(m.set)+width > maxDFAWords {
		m.reset()
		flushed = true
	}
	name = int32(len(m.trans))
	if accept {
		name |= 1
	}
	lo := int32(len(m.sets))
	m.sets = append(m.sets, m.set...)
	m.states = append(m.states, dstate{lo: lo, hi: int32(len(m.sets))})
	for c := 0; c < width; c++ {
		m.trans = append(m.trans, unknownState)
	}
	m.index[string(m.key)] = name
	return name, flushed
}

// closure adds the consuming states ε-reachable from NFA state id to m.set
// and reports whether accept is among the states reached.
func (m *matcher) closure(id int) bool {
	accept := false
	m.stack = append(m.stack[:0], id)
	for len(m.stack) > 0 {
		s := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		if s < 0 || m.seen[s] == m.gen {
			continue
		}
		m.seen[s] = m.gen
		st := &m.p.states[s]
		switch {
		case st.class != nil:
			m.set = append(m.set, int32(s))
		case s == m.p.accept:
			accept = true
		default:
			m.stack = append(m.stack, st.next2, st.next1)
		}
	}
	return accept
}

// newSet starts building a set under a fresh closure generation.
func (m *matcher) newSet() {
	m.set = m.set[:0]
	if m.gen++; m.gen == 0 {
		clear(m.seen)
		m.gen = 1
	}
}

func (m *matcher) startState() int32 {
	if m.start == unknownState {
		m.buildStart()
	}
	return m.start
}

// buildStart is startState's slow path, kept out of line so that the check
// inlines into the walks.
func (m *matcher) buildStart() {
	m.newSet()
	accept := m.closure(m.p.start)
	slices.Sort(m.set)
	m.start, _ = m.intern(accept)
}

// step builds the transition of state d on byte b, and caches it for b's
// whole byte class: no NFA state tells b from the rest of its class.
func (m *matcher) step(d int32, b byte) int32 {
	m.newSet()
	accept := false
	st := m.states[d>>m.p.rowShift]
	for _, s := range m.sets[st.lo:st.hi] {
		if ns := &m.p.states[s]; ns.class.has(b) && m.closure(ns.next1) {
			accept = true
		}
	}
	slices.Sort(m.set)
	nd, flushed := m.intern(accept)
	if !flushed {
		m.trans[int(d&^1)+int(m.p.classOf[b])] = nd
	}
	return nd
}

// longest runs the DFA from input[start] until the input ends or the
// match fails, and returns the end of the longest match starting there
// (start itself for an empty one), or -1 when there is none.
func (m *matcher) longest(input string, start int) int {
	d := m.startState()
	end := -1
	if d&1 != 0 {
		end = start
	}
	for i := start; i < len(input); i++ {
		next := m.trans[int(d&^1)+int(m.p.classOf[input[i]])]
		if next == unknownState {
			next = m.step(d, input[i])
		}
		if d = next; d == deadState {
			break
		}
		if d&1 != 0 {
			end = i + 1
		}
	}
	return end
}

// Match reports whether the pattern matches the whole input.
func (p *Pattern) Match(input string) bool {
	m := p.matchers.Get().(*matcher)
	defer p.matchers.Put(m)
	return m.longest(input, 0) == len(input)
}

// MatchEach appends to dst, for each input in turn, whether the pattern
// matches it whole. It is Match over a column: one matcher serves every
// input, so the DFA the first inputs build serves the rest.
func (p *Pattern) MatchEach(inputs []string, dst []bool) []bool {
	m := p.matchers.Get().(*matcher)
	defer p.matchers.Put(m)
	for _, in := range inputs {
		dst = append(dst, m.longest(in, 0) == len(in))
	}
	return dst
}

// FindAll returns the leftmost-longest non-overlapping matches as
// [start, end) index pairs over the input. Empty matches are not
// reported.
func (p *Pattern) FindAll(input string) [][2]int {
	return p.AppendFindAll(nil, input)
}

// AppendFindAll is FindAll appending into dst: called over many inputs
// with one growing dst, a warmed pattern allocates nothing beyond what
// dst needs to grow.
func (p *Pattern) AppendFindAll(dst [][2]int, input string) [][2]int {
	m := p.matchers.Get().(*matcher)
	defer p.matchers.Put(m)
	return m.findAll(input, dst)
}

// findAll appends the leftmost-longest non-overlapping non-empty matches
// in input to dst.
func (m *matcher) findAll(input string, dst [][2]int) [][2]int {
	for start := 0; start < len(input); {
		// Most starts fail on their first symbol: rule those out without
		// entering the walk.
		if m.trans[int(m.startState()&^1)+int(m.p.classOf[input[start]])] == deadState {
			start++
			continue
		}
		if end := m.longest(input, start); end > start {
			dst = append(dst, [2]int{start, end})
			start = end
		} else {
			start++
		}
	}
	return dst
}

// Contains reports whether the pattern matches a non-empty part of the
// input.
func (p *Pattern) Contains(input string) bool {
	m := p.matchers.Get().(*matcher)
	defer p.matchers.Put(m)
	for start := 0; start < len(input); start++ {
		if m.longest(input, start) > start {
			return true
		}
	}
	return false
}

// ---- canned patterns of the paper ----

// PeakUnit is one peak in slope symbols: a rise, optional flats, a descent
// (the paper's "1 0* -1").
const PeakUnit = "U+F*D"

// TwoPeak returns the goal-post fever pattern of §4.4: exactly two peaks
// with anything non-rising before, between and after.
func TwoPeak() string { return ExactlyPeaks(2) }

// ExactlyPeaks builds a full-match pattern accepting symbol strings with
// exactly k peaks (k >= 1): non-rising prefix, k peak units separated by
// non-rising runs, and an optional trailing rise that never descends.
func ExactlyPeaks(k int) string {
	if k < 1 {
		k = 1
	}
	unit := PeakUnit + "[FD]*"
	var b strings.Builder
	b.WriteString("[FD]*")
	for i := 0; i < k; i++ {
		b.WriteString("(" + unit + ")")
	}
	b.WriteString("(U+F*)?")
	return b.String()
}

// AtLeastPeaks builds a full-match pattern accepting symbol strings with k
// or more peaks: the counted repetition is simply unbounded above.
func AtLeastPeaks(k int) string {
	if k < 1 {
		k = 1
	}
	return fmt.Sprintf("[FD]*(%s[FD]*){%d,}(U+F*)?", PeakUnit, k)
}
