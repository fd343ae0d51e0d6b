package server

// Tests for wireEncoder: a differential property test and a fuzz target
// hold it to encoding/json's bytes (and errors) for every query answer
// and stream frame shape, and an allocation test pins its cost on a
// large answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seqrep/api"
)

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation allocates.
var raceEnabled bool

// jsonOracle is the form the wire encoder must reproduce: a json.Encoder
// with HTML escaping off, newline included.
func jsonOracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameEncoding fails t unless got/gotErr equal the oracle's output for v:
// the same bytes, or the same error message.
func sameEncoding(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := jsonOracle(v)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("errors differ for %#v:\nwire %v\njson %v", v, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("bytes differ for %#v:\nwire %q\njson %q", v, got, want)
	}
}

// checkAnswers encodes r and f with enc and compares both with the oracle.
func checkAnswers(t *testing.T, enc *wireEncoder, r *api.QueryResponse, f *api.StreamFrame) {
	t.Helper()
	body, err := enc.response(nil, r)
	sameEncoding(t, r, body, err)
	// Appending after existing bytes must leave them alone.
	const prefix = "prefix"
	line, err := enc.frame([]byte(prefix), f)
	if err == nil {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			t.Fatalf("frame clobbered the destination: %q", line)
		}
		line = line[len(prefix):]
	}
	sameEncoding(t, f, line, err)
}

// answersOf builds one query response and one stream frame from two
// strings, two float bit patterns and a shape word whose bits choose
// nil, empty or populated for every slice, map and pointer, and set the
// booleans. It is the fuzz target's decoder and the property test's
// generator.
func answersOf(a, b string, xBits, yBits uint64, shape uint32) (*api.QueryResponse, *api.StreamFrame) {
	x, y := math.Float64frombits(xBits), math.Float64frombits(yBits)
	bit := func(i uint) bool { return shape>>i&1 == 1 }
	two := func(i uint) uint32 { return shape >> i & 3 }

	devs := func() map[string]float64 {
		switch two(4) {
		case 1:
			return map[string]float64{}
		case 2:
			return map[string]float64{a: x}
		case 3:
			return map[string]float64{a: x, b: y, a + b: -x}
		}
		return nil
	}
	match := api.Match{ID: a, Exact: bit(6), Deviations: devs()}
	hit := api.PatternHit{ID: b, SegLo: int(shape % 7), SegHi: -int(shape), TimeLo: x, TimeHi: y}
	iv := api.IntervalMatch{ID: a}
	switch two(11) {
	case 1:
		iv.Positions = []int{}
	case 2:
		iv.Positions = []int{len(a)}
	case 3:
		iv.Positions = []int{len(a), -int(shape), math.MaxInt, math.MinInt}
	}
	switch two(13) {
	case 1:
		iv.Intervals = []float64{}
	case 2:
		iv.Intervals = []float64{x}
	case 3:
		iv.Intervals = []float64{x, y, 0}
	}
	var stats *api.QueryStats
	if bit(15) {
		n := int(shape>>16) - 1<<15
		stats = &api.QueryStats{
			Query: a, Metric: b, Plan: b + a,
			Examined: n, Candidates: -n, Pruned: len(a), Matches: len(b),
			Sketched: n % 3, BandAccepted: n % 2, Truncated: bit(18),
		}
	}
	gen := uint64(shape) * 0x9e3779b97f4a7c15

	r := &api.QueryResponse{Kind: a, Canonical: b, Stats: stats, Explain: bit(16), Generation: gen, Cached: bit(17)}
	switch two(0) {
	case 1:
		r.IDs = []string{}
	case 2:
		r.IDs = []string{a}
	case 3:
		r.IDs = []string{a, b, ""}
	}
	switch two(2) {
	case 1:
		r.Matches = []api.Match{}
	case 2:
		r.Matches = []api.Match{match}
	case 3:
		r.Matches = []api.Match{match, {ID: b}}
	}
	switch two(7) {
	case 1:
		r.Hits = []api.PatternHit{}
	case 2:
		r.Hits = []api.PatternHit{hit}
	case 3:
		r.Hits = []api.PatternHit{hit, {ID: a, TimeLo: y}}
	}
	switch two(9) {
	case 1:
		r.Intervals = []api.IntervalMatch{}
	case 2:
		r.Intervals = []api.IntervalMatch{iv}
	case 3:
		r.Intervals = []api.IntervalMatch{iv, {ID: b}}
	}

	f := &api.StreamFrame{Stats: stats, Explain: bit(16), Done: bit(25)}
	if bit(19) {
		f.Canonical, f.Match = a, &match
	}
	if bit(20) {
		f.Hit = &hit
	}
	if bit(21) {
		f.Interval = &iv
	}
	if bit(22) {
		f.Refine = &api.RefineFrame{ID: b, Tier: a, Lo: x, Final: bit(24)}
		if bit(23) {
			f.Refine.Hi = &y
		}
	}
	if bit(26) {
		f.ID, f.Kind, f.Error = a, b, a+b
	}
	if bit(27) {
		f.Generation = gen
	}
	return r, f
}

// Strings and floats the encoders treat specially, for the generator.
var (
	wireStrings = []string{
		"", "walk-00017", "f-000", `"quoted"`, `back\slash`, "<tag>&amp;",
		"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\xff", "\xc0\x80", "\xe2\x80",
		"a\xffb", "\u2028", "\u2029", "x\u2028y\u2029z", "\ufffd", "é日本",
		"\U0001F600", "\xed\xa0\x80", "line\nbreak", "MATCH DISTANCE LIKE a METRIC l2 EPS 5",
	}
	wireFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-6, -1e-6,
		math.Nextafter(1e-6, 0), 1e-7, 1e-9, 1e-10, 9.999999e-7,
		1e21, -1e21, math.Nextafter(1e21, 0), 1e20, 123456789012345678901.0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64,
		1e200, 1.7976931348623157e308, 3.141592653589793,
	}
	nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

func randWireString(rng *rand.Rand) string {
	var s string
	for n := rng.Intn(4); n >= 0; n-- {
		s += wireStrings[rng.Intn(len(wireStrings))]
	}
	return s
}

func randWireFloat(rng *rand.Rand) float64 {
	switch p := rng.Intn(100); {
	case p < 2:
		return nonFinite[rng.Intn(len(nonFinite))]
	case p < 50:
		return wireFloats[rng.Intn(len(wireFloats))]
	case p < 60:
		return math.Float64frombits(rng.Uint64()) // any bits, NaNs included
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

// TestWireEncoderMatchesEncodingJSON is the differential property test:
// random answers and frames, every shape bit and special string and float
// exercised, must encode to the oracle's bytes or fail with its message.
func TestWireEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var enc wireEncoder // reused, as the stream writer reuses it
	var failed int
	for i := 0; i < 20000; i++ {
		r, f := answersOf(randWireString(rng), randWireString(rng),
			math.Float64bits(randWireFloat(rng)), math.Float64bits(randWireFloat(rng)), rng.Uint32())
		checkAnswers(t, &enc, r, f)
		if _, err := jsonOracle(r); err != nil {
			failed++
		}
	}
	// Not vacuous: both outcomes were compared many times.
	if failed < 100 || failed > 10000 {
		t.Fatalf("%d of 20000 answers were unencodable: the generator lost a side", failed)
	}

	// A longer answer, all finite: many ids and matches with many
	// deviation keys.
	r := &api.QueryResponse{Kind: "distance", Canonical: "c", IDs: []string{}}
	for i := 0; i < 300; i++ {
		m := api.Match{ID: randWireString(rng), Deviations: map[string]float64{}}
		for k := rng.Intn(12); k > 0; k-- {
			v := randWireFloat(rng)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m.Deviations[randWireString(rng)] = v
		}
		r.IDs = append(r.IDs, m.ID)
		r.Matches = append(r.Matches, m)
	}
	body, err := enc.response(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	sameEncoding(t, r, body, err)
}

// FuzzAnswerEncoding holds the wire encoder to encoding/json on
// arbitrary strings, float bits and shapes.
func FuzzAnswerEncoding(f *testing.F) {
	for i, s := range wireStrings {
		x := wireFloats[i%len(wireFloats)]
		y := wireFloats[(i*7+3)%len(wireFloats)]
		f.Add(s, wireStrings[(i+5)%len(wireStrings)], math.Float64bits(x), math.Float64bits(y), uint32(i)*0x2545f491)
	}
	for _, nf := range nonFinite {
		f.Add("a", "b", math.Float64bits(nf), math.Float64bits(1), ^uint32(0))
	}
	f.Fuzz(func(t *testing.T, a, b string, xBits, yBits uint64, shape uint32) {
		var enc wireEncoder
		r, fr := answersOf(a, b, xBits, yBits, shape)
		checkAnswers(t, &enc, r, fr)
	})
}

// largeAnswer is a MATCH-style answer of n matches with three deviation
// keys each.
func largeAnswer(n int) *api.QueryResponse {
	r := &api.QueryResponse{Kind: "shape", Canonical: "MATCH SHAPE LIKE walk-00000", Generation: 7}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("walk-%05d", i)
		r.IDs = append(r.IDs, id)
		r.Matches = append(r.Matches, api.Match{ID: id, Deviations: map[string]float64{
			"peaks": float64(i % 3), "symbols": float64(i%17) * 0.125, "amplitude": 1.0 / float64(i+1),
		}})
	}
	return r
}

// TestWireEncoderAllocs pins the encoder's cost on a 3 000-match answer
// with three deviation keys per match: into a warm buffer it allocates
// nothing, and from an empty one only the buffer's growth — a handful of
// allocations however many matches there are, where encoding/json makes
// several per match.
func TestWireEncoderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r := largeAnswer(3000)
	var enc wireEncoder
	buf, err := enc.response(nil, r)
	sameEncoding(t, r, buf, err)
	warm := testing.AllocsPerRun(20, func() { buf, _ = enc.response(buf[:0], r) })
	fresh := testing.AllocsPerRun(20, func() {
		var e wireEncoder
		e.response(nil, r)
	})
	t.Logf("allocations: warm %.0f, fresh %.0f (%d bytes)", warm, fresh, len(buf))
	if warm != 0 || fresh > 48 {
		t.Fatalf("encoding 3000 matches allocates %.0f times warm, %.0f fresh; want 0 and a small constant", warm, fresh)
	}
}

// BenchmarkAnswerEncoding compares the wire encoder with encoding/json on
// a progressive stream's accept (one refine frame plus one match frame)
// and on a 2 500-match body.
func BenchmarkAnswerEncoding(b *testing.B) {
	hi := 0.75
	frames := []*api.StreamFrame{
		{Refine: &api.RefineFrame{ID: "walk-00017", Tier: "candidate", Lo: 0.25, Hi: &hi}},
		{Refine: &api.RefineFrame{ID: "walk-00017", Tier: "exact", Lo: 0.5, Hi: &hi, Final: true},
			Match: &api.Match{ID: "walk-00017", Deviations: map[string]float64{"l2": 0.5}}},
	}
	body := largeAnswer(2500)
	b.Run("frames/wire", func(b *testing.B) {
		var enc wireEncoder
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				buf, _ = enc.frame(buf[:0], f)
			}
		}
	})
	b.Run("frames/json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				buf.Reset()
				_ = enc.Encode(f)
			}
		}
	})
	b.Run("body2500/wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var enc wireEncoder
			_, _ = enc.response(nil, body)
		}
	})
	b.Run("body2500/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = jsonOracle(body)
		}
	})
}
