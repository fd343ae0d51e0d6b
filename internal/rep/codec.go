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

// Decode reads a representation from r, validating structure.
func Decode(r io.Reader) (*FunctionSeries, error) {
	return decode(bufio.NewReader(r))
}

// byteReader is what decode reads from: a bufio.Reader over a stream, or
// a bytes.Reader over a payload already in memory.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func decode(br byteReader) (*FunctionSeries, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("rep: decode magic: %w", err)
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("rep: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("rep: decode version: %w", err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("rep: unsupported version %d", version)
	}
	var u32 [4]byte
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	var u64 [8]byte
	getF64 := func() (float64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(u64[:])), nil
	}
	n, err := getU32()
	if err != nil {
		return nil, fmt.Errorf("rep: decode n: %w", err)
	}
	k, err := getU32()
	if err != nil {
		return nil, fmt.Errorf("rep: decode segment count: %w", err)
	}
	if k == 0 || k > n {
		return nil, fmt.Errorf("rep: implausible segment count %d for %d samples", k, n)
	}
	// k is untrusted until the segments behind it have actually been
	// read: reserve for a plausible few and let append follow the stream.
	fs := &FunctionSeries{N: int(n), Segments: make([]Segment, 0, min(k, 64))}
	for i := uint32(0); i < k; i++ {
		var sg Segment
		lo, err := getU32()
		if err != nil {
			return nil, fmt.Errorf("rep: decode segment %d: %w", i, err)
		}
		hi, err := getU32()
		if err != nil {
			return nil, fmt.Errorf("rep: decode segment %d: %w", i, err)
		}
		sg.Lo, sg.Hi = int(lo), int(hi)
		for _, dst := range []*float64{&sg.StartT, &sg.StartV, &sg.EndT, &sg.EndV} {
			if *dst, err = getF64(); err != nil {
				return nil, fmt.Errorf("rep: decode segment %d: %w", i, err)
			}
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("rep: decode segment %d kind: %w", i, err)
		}
		sg.Kind = fit.Kind(kindByte)
		var u16 [2]byte
		if _, err := io.ReadFull(br, u16[:]); err != nil {
			return nil, fmt.Errorf("rep: decode segment %d param count: %w", i, err)
		}
		pc := binary.LittleEndian.Uint16(u16[:])
		if pc > maxParams {
			return nil, fmt.Errorf("rep: segment %d claims %d params, max %d", i, pc, maxParams)
		}
		sg.Params = make([]float64, pc)
		for j := range sg.Params {
			if sg.Params[j], err = getF64(); err != nil {
				return nil, fmt.Errorf("rep: decode segment %d param %d: %w", i, j, err)
			}
		}
		fs.Segments = append(fs.Segments, sg)
	}
	if err := fs.Validate(); err != nil {
		return nil, fmt.Errorf("rep: decoded series invalid: %w", err)
	}
	return fs, nil
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
// so every accepted blob re-encodes to itself.
func (fs *FunctionSeries) UnmarshalBinary(data []byte) error {
	br := bytes.NewReader(data)
	decoded, err := decode(br)
	if err != nil {
		return err
	}
	if br.Len() > 0 {
		return fmt.Errorf("rep: trailing bytes after the encoded series")
	}
	*fs = *decoded
	return nil
}
