package rep

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"seqrep/internal/fit"
)

// Binary codec for FunctionSeries. The format is versioned and validated
// on decode so corrupt archives fail loudly rather than producing garbage
// representations.
//
//	magic   "SREP" (4 bytes)
//	version u8 (currently 1)
//	n       u32 (original sample count)
//	k       u32 (segment count)
//	per segment:
//	  lo, hi          u32, u32
//	  startT, startV  f64, f64
//	  endT, endV      f64, f64
//	  kind            u8
//	  paramCount      u16
//	  params          f64 × paramCount

var codecMagic = [4]byte{'S', 'R', 'E', 'P'}

const codecVersion = 1

// maxParams bounds the per-segment parameter count accepted by the
// decoder; no supported curve family comes close.
const maxParams = 256

// Encoded sizes of the fixed parts of the format.
const (
	codecHead    = 4 + 1 + 4 + 4       // magic, version, n, k
	codecSegHead = 4 + 4 + 4*8 + 1 + 2 // lo, hi, endpoints, kind, paramCount
)

// EncodedLen returns the length of the series' binary encoding.
func (fs *FunctionSeries) EncodedLen() int {
	n := codecHead + codecSegHead*len(fs.Segments)
	for i := range fs.Segments {
		n += 8 * len(fs.Segments[i].Params)
	}
	return n
}

// AppendBinary implements encoding.BinaryAppender: it appends the binary
// format to b. An invalid series, or a segment with more than maxParams
// parameters, is refused before any byte is appended, and b comes back
// unchanged.
func (fs *FunctionSeries) AppendBinary(b []byte) ([]byte, error) {
	if err := fs.Validate(); err != nil {
		return b, fmt.Errorf("rep: refusing to encode invalid series: %w", err)
	}
	for i := range fs.Segments {
		if pc := len(fs.Segments[i].Params); pc > maxParams {
			return b, fmt.Errorf("rep: segment %d has %d params, max %d", i, pc, maxParams)
		}
	}
	le := binary.LittleEndian
	b = slices.Grow(b, fs.EncodedLen())
	b = append(b, codecMagic[:]...)
	b = append(b, codecVersion)
	b = le.AppendUint32(b, uint32(fs.N))
	b = le.AppendUint32(b, uint32(len(fs.Segments)))
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		b = le.AppendUint32(b, uint32(sg.Lo))
		b = le.AppendUint32(b, uint32(sg.Hi))
		for _, v := range [...]float64{sg.StartT, sg.StartV, sg.EndT, sg.EndV} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		b = append(b, byte(sg.Kind))
		b = le.AppendUint16(b, uint16(len(sg.Params)))
		for _, v := range sg.Params {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (fs *FunctionSeries) MarshalBinary() ([]byte, error) { return fs.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
// data must hold exactly one encoded series: trailing bytes are rejected,
// so every accepted blob re-encodes to itself. A first pass checks every
// length against the bytes there and counts the parameters; the second
// fills the segments and one parameter array that every segment gets a
// capacity-clipped window of, so decoding costs the same two
// allocations however many segments there are, and none for bytes a
// length only claims.
func (fs *FunctionSeries) UnmarshalBinary(data []byte) error {
	switch {
	case len(data) < 4:
		return fmt.Errorf("rep: decode magic: %w", io.ErrUnexpectedEOF)
	case [4]byte(data[:4]) != codecMagic:
		return fmt.Errorf("rep: bad magic %q", data[:4])
	case len(data) < 5:
		return fmt.Errorf("rep: decode version: %w", io.ErrUnexpectedEOF)
	case data[4] != codecVersion:
		return fmt.Errorf("rep: unsupported version %d", data[4])
	case len(data) < codecHead:
		return fmt.Errorf("rep: decode header: %w", io.ErrUnexpectedEOF)
	}
	n, k := binary.LittleEndian.Uint32(data[5:]), binary.LittleEndian.Uint32(data[9:])
	if k == 0 || k > n {
		return fmt.Errorf("rep: implausible segment count %d for %d samples", k, n)
	}
	off, total := codecHead, 0
	for i := uint32(0); i < k; i++ {
		if len(data)-off < codecSegHead {
			return fmt.Errorf("rep: decode segment %d: %w", i, io.ErrUnexpectedEOF)
		}
		pc := int(binary.LittleEndian.Uint16(data[off+codecSegHead-2:]))
		if pc > maxParams {
			return fmt.Errorf("rep: segment %d claims %d params, max %d", i, pc, maxParams)
		}
		if off += codecSegHead; len(data)-off < 8*pc {
			return fmt.Errorf("rep: decode segment %d params: %w", i, io.ErrUnexpectedEOF)
		}
		off += 8 * pc
		total += pc
	}
	if off != len(data) {
		return fmt.Errorf("rep: trailing bytes after the encoded series")
	}

	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	out := FunctionSeries{N: int(n), Segments: make([]Segment, k)}
	params := make([]float64, total)
	off = codecHead
	for i := range out.Segments {
		b := data[off : off+codecSegHead]
		pc := int(binary.LittleEndian.Uint16(b[codecSegHead-2:]))
		sg := Segment{
			Lo: int(binary.LittleEndian.Uint32(b)), Hi: int(binary.LittleEndian.Uint32(b[4:])),
			StartT: f64(b[8:]), StartV: f64(b[16:]), EndT: f64(b[24:]), EndV: f64(b[32:]),
			Kind: fit.Kind(b[40]), Params: params[:pc:pc],
		}
		off += codecSegHead
		for j := range sg.Params {
			sg.Params[j] = f64(data[off+8*j:])
		}
		off += 8 * pc
		params = params[pc:]
		out.Segments[i] = sg
	}
	if err := out.Validate(); err != nil {
		return fmt.Errorf("rep: decoded series invalid: %w", err)
	}
	*fs = out
	return nil
}
