package querylang

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"seqrep/internal/core"
)

// Query is one parsed, executable query.
type Query interface {
	// Run executes the query against a database, honoring ctx's
	// cancellation and deadline.
	Run(ctx context.Context, db Database) (*Result, error)
	// String renders the query back in canonical language form.
	String() string
}

// parser walks the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse compiles one query statement.
func Parse(src string) (Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("querylang: unexpected %q after query (position %d)", t.text, t.pos)
	}
	return q, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// acceptKeyword consumes the next token if it is the given keyword
// (case-insensitive).
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokWord && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		t := p.peek()
		return fmt.Errorf("querylang: expected %s at position %d, got %q", strings.ToUpper(kw), t.pos, t.text)
	}
	return nil
}

func (p *parser) expectNumber(what string) (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("querylang: expected %s (a number) at position %d, got %q", what, t.pos, t.text)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("querylang: bad number %q at position %d", t.text, t.pos)
	}
	return v, nil
}

func (p *parser) expectString(what string) (string, error) {
	t := p.next()
	if t.kind != tokString {
		return "", fmt.Errorf("querylang: expected %s (a quoted string) at position %d, got %q", what, t.pos, t.text)
	}
	return t.text, nil
}

func (p *parser) expectIdent(what string) (string, error) {
	t := p.next()
	if t.kind == tokString {
		return t.text, nil // quoted identifiers allowed
	}
	if t.kind != tokWord {
		return "", fmt.Errorf("querylang: expected %s at position %d, got %q", what, t.pos, t.text)
	}
	return t.text, nil
}

// parseQuery dispatches on the leading verb.
func (p *parser) parseQuery() (Query, error) {
	switch {
	case p.acceptKeyword("EXPLAIN"):
		inner, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if wrapped, ok := inner.(*ExplainQuery); ok {
			return wrapped, nil // collapse EXPLAIN EXPLAIN
		}
		return &ExplainQuery{Inner: inner}, nil
	case p.acceptKeyword("MATCH"):
		q, err := p.parseMatchBody()
		if err != nil {
			return nil, err
		}
		return p.parseBounds(q)
	case p.acceptKeyword("FIND"):
		if err := p.expectKeyword("PATTERN"); err != nil {
			return nil, err
		}
		pat, err := p.expectString("pattern")
		if err != nil {
			return nil, err
		}
		return p.parseBounds(&FindPatternQuery{Pattern: pat})
	default:
		t := p.peek()
		return nil, fmt.Errorf("querylang: expected EXPLAIN, MATCH or FIND at position %d, got %q", t.pos, t.text)
	}
}

// parseMatchBody parses everything after MATCH.
func (p *parser) parseMatchBody() (Query, error) {
	switch {
	case p.acceptKeyword("PATTERN"):
		pat, err := p.expectString("pattern")
		if err != nil {
			return nil, err
		}
		return &MatchPatternQuery{Pattern: pat}, nil

	case p.acceptKeyword("PEAKS"):
		k, err := p.expectNumber("peak count")
		if err != nil {
			return nil, err
		}
		if k != float64(int(k)) || k < 0 {
			return nil, fmt.Errorf("querylang: peak count must be a non-negative integer, got %v", k)
		}
		q := &PeaksQuery{Count: int(k)}
		if p.acceptKeyword("TOLERANCE") {
			tol, err := p.expectNumber("tolerance")
			if err != nil {
				return nil, err
			}
			if tol != float64(int(tol)) || tol < 0 {
				return nil, fmt.Errorf("querylang: tolerance must be a non-negative integer, got %v", tol)
			}
			q.Tolerance = int(tol)
		}
		return q, nil

	case p.acceptKeyword("INTERVAL"):
		n, err := p.expectNumber("interval length")
		if err != nil {
			return nil, err
		}
		q := &IntervalQuery{N: n}
		if t := p.peek(); t.kind == tokPlusMinus {
			p.next()
			eps, err := p.expectNumber("interval tolerance")
			if err != nil {
				return nil, err
			}
			q.Eps = eps
		}
		return q, nil

	case p.acceptKeyword("VALUE"):
		if err := p.expectKeyword("LIKE"); err != nil {
			return nil, err
		}
		id, err := p.expectIdent("sequence id")
		if err != nil {
			return nil, err
		}
		q := &ValueQuery{ExemplarID: id, Eps: -1, MaxError: -1}
		if p.acceptKeyword("EPS") {
			eps, err := p.expectNumber("eps")
			if err != nil {
				return nil, err
			}
			q.Eps = eps
		}
		if err := p.parseProgressive(&q.MaxError, &q.Approx); err != nil {
			return nil, err
		}
		return q, nil

	case p.acceptKeyword("DISTANCE"):
		if err := p.expectKeyword("LIKE"); err != nil {
			return nil, err
		}
		id, err := p.expectIdent("sequence id")
		if err != nil {
			return nil, err
		}
		q := &DistanceQuery{ExemplarID: id, Metric: "l2", Eps: -1, MaxError: -1}
		if p.acceptKeyword("METRIC") {
			name, err := p.expectIdent("metric name")
			if err != nil {
				return nil, err
			}
			q.Metric = name
		}
		if p.acceptKeyword("EPS") {
			eps, err := p.expectNumber("eps")
			if err != nil {
				return nil, err
			}
			q.Eps = eps
		}
		if err := p.parseProgressive(&q.MaxError, &q.Approx); err != nil {
			return nil, err
		}
		return q, nil

	case p.acceptKeyword("SHAPE"):
		if err := p.expectKeyword("LIKE"); err != nil {
			return nil, err
		}
		id, err := p.expectIdent("sequence id")
		if err != nil {
			return nil, err
		}
		q := &ShapeQuery{ExemplarID: id}
		for {
			switch {
			case p.acceptKeyword("PEAKS"):
				v, err := p.expectNumber("peaks tolerance")
				if err != nil {
					return nil, err
				}
				if v != float64(int(v)) || v < 0 {
					return nil, fmt.Errorf("querylang: PEAKS tolerance must be a non-negative integer, got %v", v)
				}
				q.PeaksTol = int(v)
			case p.acceptKeyword("HEIGHT"):
				v, err := p.expectNumber("height tolerance")
				if err != nil {
					return nil, err
				}
				q.HeightTol = v
			case p.acceptKeyword("SPACING"):
				v, err := p.expectNumber("spacing tolerance")
				if err != nil {
					return nil, err
				}
				q.SpacingTol = v
			default:
				return q, nil
			}
		}

	default:
		t := p.peek()
		return nil, fmt.Errorf("querylang: expected PATTERN, PEAKS, INTERVAL, VALUE, DISTANCE or SHAPE at position %d, got %q", t.pos, t.text)
	}
}

// parseProgressive parses the optional progressive-quality clauses —
// WITHIN ERROR e and APPROX tier, in either order, each at most once —
// into the query's MaxError (-1 stays "absent") and Approx ("" stays
// "absent") fields. The canonical rendering orders WITHIN ERROR before
// APPROX, and names the tier as core does, so APPROX sketch and APPROX
// candidate are one statement.
func (p *parser) parseProgressive(maxErr *float64, approx *string) error {
	for {
		switch {
		case p.acceptKeyword("WITHIN"):
			if *maxErr >= 0 {
				return fmt.Errorf("querylang: duplicate WITHIN ERROR clause at position %d", p.peek().pos)
			}
			if err := p.expectKeyword("ERROR"); err != nil {
				return err
			}
			v, err := p.expectNumber("error bound")
			if err != nil {
				return err
			}
			if v < 0 {
				return fmt.Errorf("querylang: WITHIN ERROR bound must be non-negative, got %v", v)
			}
			*maxErr = v
		case p.acceptKeyword("APPROX"):
			if *approx != "" {
				return fmt.Errorf("querylang: duplicate APPROX clause at position %d", p.peek().pos)
			}
			t := p.peek()
			name, err := p.expectIdent("quality tier")
			if err != nil {
				return err
			}
			name = strings.ToLower(name)
			tier, err := core.ParseTier(name)
			if err != nil {
				return fmt.Errorf("querylang: unknown APPROX tier %q at position %d (want sketch, candidate or exact)", name, t.pos)
			}
			*approx = tier.String() // "sketch" is the band tier's older name
		default:
			return nil
		}
	}
}

// supportsTopK reports whether a statement produces distance-ordered
// matches TOP n BY DISTANCE can rank.
func supportsTopK(q Query) bool {
	switch q.(type) {
	case *PeaksQuery, *ValueQuery, *DistanceQuery, *ShapeQuery:
		return true
	}
	return false
}

// parseBounds parses the optional trailing result-bound clauses —
// TOP n BY DISTANCE and LIMIT n, in either order, each at most once —
// wrapping q in a BoundedQuery when any is present. The canonical
// rendering orders TOP before LIMIT.
func (p *parser) parseBounds(q Query) (Query, error) {
	var topK, limit int
	for {
		switch {
		case p.acceptKeyword("TOP"):
			if topK > 0 {
				return nil, fmt.Errorf("querylang: duplicate TOP clause at position %d", p.peek().pos)
			}
			n, err := p.expectNumber("top-k count")
			if err != nil {
				return nil, err
			}
			if n != float64(int(n)) || n < 1 {
				return nil, fmt.Errorf("querylang: TOP count must be a positive integer, got %v", n)
			}
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("DISTANCE"); err != nil {
				return nil, err
			}
			if !supportsTopK(q) {
				return nil, fmt.Errorf("querylang: TOP n BY DISTANCE applies only to statements returning matches with deviations (MATCH PEAKS, VALUE, DISTANCE, SHAPE)")
			}
			if IsProgressive(q) {
				return nil, fmt.Errorf("querylang: TOP n BY DISTANCE cannot combine with WITHIN ERROR / APPROX — a band-accepted answer has no exact distance to rank by")
			}
			topK = int(n)
		case p.acceptKeyword("LIMIT"):
			if limit > 0 {
				return nil, fmt.Errorf("querylang: duplicate LIMIT clause at position %d", p.peek().pos)
			}
			n, err := p.expectNumber("limit")
			if err != nil {
				return nil, err
			}
			if n != float64(int(n)) || n < 1 {
				return nil, fmt.Errorf("querylang: LIMIT must be a positive integer, got %v", n)
			}
			limit = int(n)
		default:
			if topK == 0 && limit == 0 {
				return q, nil
			}
			return &BoundedQuery{Inner: q, TopK: topK, Limit: limit}, nil
		}
	}
}
