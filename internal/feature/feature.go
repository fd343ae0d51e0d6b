// Package feature extracts application-level features from the function
// representation — without touching raw samples. This is the payoff of the
// paper's approach (§4.4, §5.2): the behaviour of a sequence is read off
// the behaviour of its representing functions.
//
// Features provided:
//
//   - slope-sign symbols over the alphabet {1, 0, -1} with threshold δ
//     (the paper's §4.4 index alphabet, here spelled Up/Flat/Down);
//   - peaks, found as a rising segment followed (possibly after flats) by
//     a descending segment, with the peak placed at the higher of the
//     rising end point and the descending start point (their Table 1
//     construction);
//   - R-R intervals: time differences between successive peaks (§5.2).
package feature

import (
	"fmt"
	"strings"

	"seqrep/internal/rep"
	"seqrep/internal/seq"
)

// Symbol classifies one segment's slope against the threshold δ.
type Symbol byte

// The slope-sign alphabet. The paper writes {1, 0, -1}; the byte values
// here are chosen so symbol strings read naturally in patterns.
const (
	Up   Symbol = 'U' // slope > δ    (the paper's "1")
	Flat Symbol = 'F' // -δ ≤ slope ≤ δ  (the paper's "0")
	Down Symbol = 'D' // slope < -δ   (the paper's "-1")
)

// PaperString renders a symbol in the paper's notation.
func (s Symbol) PaperString() string {
	switch s {
	case Up:
		return "1"
	case Flat:
		return "0"
	case Down:
		return "-1"
	default:
		return fmt.Sprintf("Symbol(%c)", byte(s))
	}
}

// Classify maps a slope to its symbol under threshold delta.
func Classify(slope, delta float64) Symbol {
	switch {
	case slope > delta:
		return Up
	case slope < -delta:
		return Down
	default:
		return Flat
	}
}

// Symbolize maps every segment of the representation to its slope-sign
// symbol, producing the string that pattern queries run against. The paper
// takes δ = 0.25 for the goal-post example. delta must be non-negative.
func Symbolize(fs *rep.FunctionSeries, delta float64) (string, error) {
	if delta < 0 {
		return "", fmt.Errorf("feature: negative slope threshold %g", delta)
	}
	if fs == nil || len(fs.Segments) == 0 {
		return "", fmt.Errorf("feature: empty representation")
	}
	var b strings.Builder
	for _, slope := range fs.Slopes() {
		b.WriteByte(byte(Classify(slope, delta)))
	}
	return b.String(), nil
}

// PaperSymbols renders a symbol string in the paper's {1, 0, -1} notation,
// space separated, for experiment output.
func PaperSymbols(symbols string) string {
	parts := make([]string, 0, len(symbols))
	for i := 0; i < len(symbols); i++ {
		parts = append(parts, Symbol(symbols[i]).PaperString())
	}
	return strings.Join(parts, " ")
}

// Peak is one detected peak, carrying the bookkeeping of the paper's
// Table 1: the rising and descending segments and their boundary points.
type Peak struct {
	RisingSeg     int // index of the rising segment in the representation
	DescendingSeg int // index of the descending segment

	RStart seq.Point // start of the rising subsequence
	REnd   seq.Point // end of the rising subsequence
	DStart seq.Point // start of the descending subsequence
	DEnd   seq.Point // end of the descending subsequence

	Time  float64 // where the peak occurred: the higher of REnd/DStart
	Value float64 // amplitude at the peak
}

// Peaks detects peaks from the representation alone: a rising segment,
// optionally followed by flat segments, followed by a descending segment
// (the "1 0* -1" pattern of §4.4). When several consecutive segments rise,
// the last one is the rising flank. The peak position follows the paper's
// §5.2 step 3: the boundary point with the larger amplitude.
func Peaks(fs *rep.FunctionSeries, delta float64) ([]Peak, error) {
	symbols, err := Symbolize(fs, delta)
	if err != nil {
		return nil, err
	}
	var peaks []Peak
	n := len(symbols)
	for i := 0; i < n; i++ {
		if symbols[i] != byte(Up) {
			continue
		}
		// Take the last Up of this rising run.
		for i+1 < n && symbols[i+1] == byte(Up) {
			i++
		}
		rise := i
		// Skip flats between the flanks.
		j := i + 1
		for j < n && symbols[j] == byte(Flat) {
			j++
		}
		if j >= n || symbols[j] != byte(Down) {
			continue // no descending flank: not a peak
		}
		rs, ds := &fs.Segments[rise], &fs.Segments[j]
		p := Peak{
			RisingSeg:     rise,
			DescendingSeg: j,
			RStart:        seq.Point{T: rs.StartT, V: rs.StartV},
			REnd:          seq.Point{T: rs.EndT, V: rs.EndV},
			DStart:        seq.Point{T: ds.StartT, V: ds.StartV},
			DEnd:          seq.Point{T: ds.EndT, V: ds.EndV},
		}
		if p.REnd.V >= p.DStart.V {
			p.Time, p.Value = p.REnd.T, p.REnd.V
		} else {
			p.Time, p.Value = p.DStart.T, p.DStart.V
		}
		peaks = append(peaks, p)
		i = j - 1 // resume scanning at the descending flank
	}
	return peaks, nil
}

// Intervals returns the time differences between successive peaks — the
// R-R interval sequence of §5.2 when applied to electrocardiograms.
func Intervals(peaks []Peak) []float64 {
	if len(peaks) < 2 {
		return nil
	}
	out := make([]float64, 0, len(peaks)-1)
	for i := 1; i < len(peaks); i++ {
		out = append(out, peaks[i].Time-peaks[i-1].Time)
	}
	return out
}

// Profile bundles every representation-derived feature of one sequence;
// the query engine stores one per ingested sequence.
type Profile struct {
	Symbols   string
	Peaks     []Peak
	Intervals []float64
}

// Extract computes the full feature profile under slope threshold delta.
func Extract(fs *rep.FunctionSeries, delta float64) (*Profile, error) {
	symbols, err := Symbolize(fs, delta)
	if err != nil {
		return nil, err
	}
	peaks, err := Peaks(fs, delta)
	if err != nil {
		return nil, err
	}
	return &Profile{
		Symbols:   symbols,
		Peaks:     peaks,
		Intervals: Intervals(peaks),
	}, nil
}

// Steepness summarizes slope magnitudes — one of the paper's example
// approximation dimensions ("the steepness of the slopes").
type Steepness struct {
	MaxRise float64 // largest positive slope
	MaxDrop float64 // most negative slope
	MeanAbs float64 // mean |slope|
}

// MeasureSteepness computes slope statistics over the representation.
func MeasureSteepness(fs *rep.FunctionSeries) Steepness {
	var st Steepness
	slopes := fs.Slopes()
	if len(slopes) == 0 {
		return st
	}
	sum := 0.0
	for _, s := range slopes {
		if s > st.MaxRise {
			st.MaxRise = s
		}
		if s < st.MaxDrop {
			st.MaxDrop = s
		}
		if s < 0 {
			sum -= s
		} else {
			sum += s
		}
	}
	st.MeanAbs = sum / float64(len(slopes))
	return st
}
