package server

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"seqrep/api"
)

// wireEncoder appends query answers in their wire form: every
// api.QueryResponse body of /v1/query and every api.StreamFrame line of
// /v1/query/stream. Its output is byte for byte what a json.Encoder with
// SetEscapeHTML(false) writes for the same value, trailing newline
// included: struct fields in declaration order with their omitempty
// rules, map keys sorted, floats in the ES6 'f'/'e' form, invalid UTF-8
// as \ufffd and U+2028/U+2029 escaped. A non-finite float fails the
// value with the error encoding/json reports for it. An encoder is
// reused across values and is not safe for concurrent use; once warm it
// allocates only when the destination grows.
type wireEncoder struct {
	b    []byte
	keys []string // scratch: one Deviations map's keys, sorted
	err  error    // the first value JSON cannot represent
}

// response appends r's /v1/query body to b. On error the returned bytes
// are not a body.
func (e *wireEncoder) response(b []byte, r *api.QueryResponse) ([]byte, error) {
	e.b, e.err = append(b, '{'), nil
	e.field(`"kind":`)
	e.string(r.Kind)
	e.field(`"canonical":`)
	e.string(r.Canonical)
	e.field(`"ids":`)
	if r.IDs == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, id := range r.IDs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.string(id)
		}
		e.b = append(e.b, ']')
	}
	if len(r.Matches) > 0 {
		e.field(`"matches":[`)
		for i := range r.Matches {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.match(&r.Matches[i])
		}
		e.b = append(e.b, ']')
	}
	if len(r.Hits) > 0 {
		e.field(`"hits":[`)
		for i := range r.Hits {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.hit(&r.Hits[i])
		}
		e.b = append(e.b, ']')
	}
	if len(r.Intervals) > 0 {
		e.field(`"intervals":[`)
		for i := range r.Intervals {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.interval(&r.Intervals[i])
		}
		e.b = append(e.b, ']')
	}
	if r.Stats != nil {
		e.field(`"stats":`)
		e.stats(r.Stats)
	}
	if r.Explain {
		e.field(`"explain":true`)
	}
	e.field(`"generation":`)
	e.b = strconv.AppendUint(e.b, r.Generation, 10)
	e.field(`"cached":`)
	e.b = strconv.AppendBool(e.b, r.Cached)
	e.b = append(e.b, '}', '\n')
	return e.b, e.err
}

// frame appends f's NDJSON line to b. On error the returned bytes are
// not a line.
func (e *wireEncoder) frame(b []byte, f *api.StreamFrame) ([]byte, error) {
	e.b, e.err = append(b, '{'), nil
	if f.Canonical != "" {
		e.field(`"canonical":`)
		e.string(f.Canonical)
	}
	if f.Match != nil {
		e.field(`"match":`)
		e.match(f.Match)
	}
	if f.Hit != nil {
		e.field(`"hit":`)
		e.hit(f.Hit)
	}
	if f.Interval != nil {
		e.field(`"interval":`)
		e.interval(f.Interval)
	}
	if f.Refine != nil {
		e.field(`"refine":`)
		e.refine(f.Refine)
	}
	if f.ID != "" {
		e.field(`"id":`)
		e.string(f.ID)
	}
	if f.Done {
		e.field(`"done":true`)
	}
	if f.Kind != "" {
		e.field(`"kind":`)
		e.string(f.Kind)
	}
	if f.Stats != nil {
		e.field(`"stats":`)
		e.stats(f.Stats)
	}
	if f.Generation != 0 {
		e.field(`"generation":`)
		e.b = strconv.AppendUint(e.b, f.Generation, 10)
	}
	if f.Explain {
		e.field(`"explain":true`)
	}
	if f.Error != "" {
		e.field(`"error":`)
		e.string(f.Error)
	}
	e.b = append(e.b, '}', '\n')
	return e.b, e.err
}

// field appends one member's quoted key and colon (and whatever
// constant text follows), preceded by a comma unless the member opens
// its object.
func (e *wireEncoder) field(key string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, key...)
}

func (e *wireEncoder) match(m *api.Match) {
	e.b = append(e.b, '{')
	e.field(`"id":`)
	e.string(m.ID)
	e.field(`"exact":`)
	e.b = strconv.AppendBool(e.b, m.Exact)
	if len(m.Deviations) > 0 {
		e.field(`"deviations":{`)
		e.keys = e.keys[:0]
		for k := range m.Deviations {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		for _, k := range e.keys {
			e.field("")
			e.string(k)
			e.b = append(e.b, ':')
			e.float(m.Deviations[k])
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

func (e *wireEncoder) hit(h *api.PatternHit) {
	e.b = append(e.b, `{"id":`...)
	e.string(h.ID)
	e.b = append(e.b, `,"seg_lo":`...)
	e.b = strconv.AppendInt(e.b, int64(h.SegLo), 10)
	e.b = append(e.b, `,"seg_hi":`...)
	e.b = strconv.AppendInt(e.b, int64(h.SegHi), 10)
	e.b = append(e.b, `,"time_lo":`...)
	e.float(h.TimeLo)
	e.b = append(e.b, `,"time_hi":`...)
	e.float(h.TimeHi)
	e.b = append(e.b, '}')
}

func (e *wireEncoder) interval(iv *api.IntervalMatch) {
	e.b = append(e.b, `{"id":`...)
	e.string(iv.ID)
	if len(iv.Positions) > 0 {
		e.b = append(e.b, `,"positions":[`...)
		for i, p := range iv.Positions {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendInt(e.b, int64(p), 10)
		}
		e.b = append(e.b, ']')
	}
	if len(iv.Intervals) > 0 {
		e.b = append(e.b, `,"intervals":[`...)
		for i, f := range iv.Intervals {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *wireEncoder) refine(rf *api.RefineFrame) {
	e.b = append(e.b, `{"id":`...)
	e.string(rf.ID)
	e.b = append(e.b, `,"tier":`...)
	e.string(rf.Tier)
	e.b = append(e.b, `,"lo":`...)
	e.float(rf.Lo)
	if rf.Hi != nil {
		e.b = append(e.b, `,"hi":`...)
		e.float(*rf.Hi)
	}
	if rf.Final {
		e.b = append(e.b, `,"final":true`...)
	}
	e.b = append(e.b, '}')
}

func (e *wireEncoder) stats(st *api.QueryStats) {
	e.b = append(e.b, `{"query":`...)
	e.string(st.Query)
	if st.Metric != "" {
		e.b = append(e.b, `,"metric":`...)
		e.string(st.Metric)
	}
	e.b = append(e.b, `,"plan":`...)
	e.string(st.Plan)
	e.b = append(e.b, `,"examined":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Examined), 10)
	e.b = append(e.b, `,"candidates":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Candidates), 10)
	e.b = append(e.b, `,"pruned":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Pruned), 10)
	e.b = append(e.b, `,"matches":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Matches), 10)
	if st.Sketched != 0 {
		e.b = append(e.b, `,"sketched":`...)
		e.b = strconv.AppendInt(e.b, int64(st.Sketched), 10)
	}
	if st.BandAccepted != 0 {
		e.b = append(e.b, `,"band_accepted":`...)
		e.b = strconv.AppendInt(e.b, int64(st.BandAccepted), 10)
	}
	if st.Truncated {
		e.b = append(e.b, `,"truncated":true`...)
	}
	e.b = append(e.b, '}')
}

// float appends f as encoding/json does: 'f' format, switching to 'e'
// below 1e-6 and from 1e21 on with a one-digit negative exponent
// unpadded (e-7, not e-07). NaN and ±Inf record the error.
func (e *wireEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string appends s quoted: '"' and '\\' and the control bytes escaped
// (the five with short forms as \b \f \n \r \t), each invalid UTF-8 byte
// as \ufffd, U+2028 and U+2029 as \u2028 and \u2029, everything else —
// '<', '>' and '&' included — as is.
func (e *wireEncoder) string(s string) {
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}
