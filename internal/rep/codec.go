package rep

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// Encode writes the representation to w in the binary format.
func (fs *FunctionSeries) Encode(w io.Writer) error {
	if err := fs.Validate(); err != nil {
		return fmt.Errorf("rep: refusing to encode invalid series: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return fmt.Errorf("rep: encode: %w", err)
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return fmt.Errorf("rep: encode: %w", err)
	}
	var u32 [4]byte
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	var u64 [8]byte
	putF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(v))
		_, err := bw.Write(u64[:])
		return err
	}
	if err := putU32(uint32(fs.N)); err != nil {
		return fmt.Errorf("rep: encode: %w", err)
	}
	if err := putU32(uint32(len(fs.Segments))); err != nil {
		return fmt.Errorf("rep: encode: %w", err)
	}
	for i := range fs.Segments {
		sg := &fs.Segments[i]
		if err := putU32(uint32(sg.Lo)); err != nil {
			return fmt.Errorf("rep: encode: %w", err)
		}
		if err := putU32(uint32(sg.Hi)); err != nil {
			return fmt.Errorf("rep: encode: %w", err)
		}
		for _, v := range []float64{sg.StartT, sg.StartV, sg.EndT, sg.EndV} {
			if err := putF64(v); err != nil {
				return fmt.Errorf("rep: encode: %w", err)
			}
		}
		if err := bw.WriteByte(byte(sg.Kind)); err != nil {
			return fmt.Errorf("rep: encode: %w", err)
		}
		if len(sg.Params) > maxParams {
			return fmt.Errorf("rep: segment %d has %d params, max %d", i, len(sg.Params), maxParams)
		}
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(sg.Params)))
		if _, err := bw.Write(u16[:]); err != nil {
			return fmt.Errorf("rep: encode: %w", err)
		}
		for _, v := range sg.Params {
			if err := putF64(v); err != nil {
				return fmt.Errorf("rep: encode: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("rep: encode: %w", err)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (fs *FunctionSeries) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := fs.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
// data must hold exactly one encoded series: trailing bytes are rejected,
// so every accepted blob re-encodes to itself. A first pass checks every
// length against the bytes there and counts the parameters; the second
// fills the segments and one parameter array that every segment gets a
// capacity-clipped window of, so decoding costs the same two
// allocations however many segments there are, and none for bytes a
// length only claims.
func (fs *FunctionSeries) UnmarshalBinary(data []byte) error {
	const (
		head    = 4 + 1 + 4 + 4       // magic, version, n, k
		segHead = 4 + 4 + 4*8 + 1 + 2 // lo, hi, endpoints, kind, paramCount
	)
	switch {
	case len(data) < 4:
		return fmt.Errorf("rep: decode magic: %w", io.ErrUnexpectedEOF)
	case [4]byte(data[:4]) != codecMagic:
		return fmt.Errorf("rep: bad magic %q", data[:4])
	case len(data) < 5:
		return fmt.Errorf("rep: decode version: %w", io.ErrUnexpectedEOF)
	case data[4] != codecVersion:
		return fmt.Errorf("rep: unsupported version %d", data[4])
	case len(data) < head:
		return fmt.Errorf("rep: decode header: %w", io.ErrUnexpectedEOF)
	}
	n, k := binary.LittleEndian.Uint32(data[5:]), binary.LittleEndian.Uint32(data[9:])
	if k == 0 || k > n {
		return fmt.Errorf("rep: implausible segment count %d for %d samples", k, n)
	}
	off, total := head, 0
	for i := uint32(0); i < k; i++ {
		if len(data)-off < segHead {
			return fmt.Errorf("rep: decode segment %d: %w", i, io.ErrUnexpectedEOF)
		}
		pc := int(binary.LittleEndian.Uint16(data[off+segHead-2:]))
		if pc > maxParams {
			return fmt.Errorf("rep: segment %d claims %d params, max %d", i, pc, maxParams)
		}
		if off += segHead; len(data)-off < 8*pc {
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
	off = head
	for i := range out.Segments {
		b := data[off : off+segHead]
		pc := int(binary.LittleEndian.Uint16(b[segHead-2:]))
		sg := Segment{
			Lo: int(binary.LittleEndian.Uint32(b)), Hi: int(binary.LittleEndian.Uint32(b[4:])),
			StartT: f64(b[8:]), StartV: f64(b[16:]), EndT: f64(b[24:]), EndV: f64(b[32:]),
			Kind: fit.Kind(b[40]), Params: params[:pc:pc],
		}
		off += segHead
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
