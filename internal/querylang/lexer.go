// Package querylang implements a small textual query language for
// generalized approximate queries — the paper's §7 future work ("Define a
// query language that supports generalized approximate queries"). The
// language surfaces every query type of the engine:
//
//	MATCH PATTERN "UF*D(F|D)*UF*D"
//	FIND PATTERN "U+D+"
//	MATCH PEAKS 2 TOLERANCE 1
//	MATCH INTERVAL 135 +- 2
//	MATCH VALUE LIKE ecg1 EPS 0.5
//	MATCH DISTANCE LIKE ecg1 METRIC zl2 EPS 3
//	MATCH SHAPE LIKE exemplar PEAKS 0 HEIGHT 0.25 SPACING 0.3
//	MATCH DISTANCE LIKE ecg1 TOP 10 BY DISTANCE
//	MATCH PEAKS 2 LIMIT 5
//	EXPLAIN MATCH VALUE LIKE ecg1
//
// Keywords are case-insensitive; identifiers name stored sequences;
// pattern strings are quoted with single or double quotes. Any statement
// may be prefixed with EXPLAIN, which additionally reports the execution
// plan (index vs scan, candidate and pruned counts) in Result.Stats.
// Statements may carry trailing result bounds: LIMIT n stops after n
// matches, and TOP n BY DISTANCE (on the match-producing statements)
// returns the n nearest matches, pushed into the engine as a shrinking
// best-so-far pruning radius.
//
// The full grammar, with one worked example per statement, is documented
// in docs/QUERYLANG.md at the repository root.
package querylang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF  tokenKind = iota
	tokWord           // keyword or identifier
	tokNumber
	tokString
	tokPlusMinus // "+-" or "±"
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokWord:
		return "word"
	case tokNumber:
		return "number"
	case tokString:
		return "quoted string"
	case tokPlusMinus:
		return "'+-'"
	default:
		return fmt.Sprintf("tokenKind(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits src into tokens. It returns an error for unterminated strings
// or stray characters.
func lex(src string) ([]token, error) {
	var out []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < n && src[j] != quote {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("querylang: unterminated string at position %d", i)
			}
			out = append(out, token{kind: tokString, text: src[i+1 : j], pos: i})
			i = j + 1
		case c == '+' && i+1 < n && src[i+1] == '-':
			out = append(out, token{kind: tokPlusMinus, text: "+-", pos: i})
			i += 2
		case strings.HasPrefix(src[i:], "±"):
			out = append(out, token{kind: tokPlusMinus, text: "±", pos: i})
			i += len("±")
		case c == '-' || c == '.' || (c >= '0' && c <= '9'):
			j := i
			if src[j] == '-' {
				j++
			}
			digits := false
			for j < n && (src[j] >= '0' && src[j] <= '9') {
				j++
				digits = true
			}
			if j < n && src[j] == '.' {
				j++
				for j < n && (src[j] >= '0' && src[j] <= '9') {
					j++
					digits = true
				}
			}
			if !digits {
				return nil, fmt.Errorf("querylang: stray %q at position %d", c, i)
			}
			// An exponent, [eE][+-]?digits, directly after the mantissa: the
			// spelling Canonical's %g gives very small and very large numbers.
			// An 'e' not followed by digits is left to the next token.
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && src[k] >= '0' && src[k] <= '9' {
					for k < n && src[k] >= '0' && src[k] <= '9' {
						k++
					}
					j = k
				}
			}
			out = append(out, token{kind: tokNumber, text: src[i:j], pos: i})
			i = j
		case c == '=': // optional sugar: PEAKS = 2
			i++
		case isWordByte(c):
			j := i
			for j < n && isWordByte(src[j]) {
				j++
			}
			out = append(out, token{kind: tokWord, text: src[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("querylang: unexpected %q at position %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: n})
	return out, nil
}

// isWordByte reports bytes allowed inside identifiers/keywords. A '-' may
// appear inside a word ("ecg-001") but never starts one — the lexer's
// dispatch sends a leading '-' to the number branch first.
func isWordByte(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
