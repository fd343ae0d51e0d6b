package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seqrep/internal/multires"
	"seqrep/internal/rep"
)

// Record payload codec: the one on-disk encoding of a stored record,
// carried as the payload of a segment entry (internal/segment,
// docs/STORAGE.md). Representations, query-planner feature vectors and
// progressive sketches are persisted — the symbol/interval indexes are
// cheap to rebuild and doing so guarantees a booted database always
// agrees with its configuration, but the feature vectors and sketches
// are kept so a boot does not reconstruct every record to re-derive them.

// Feature vectors and sketches bound distances against the form they
// were computed from, and the segment manifest records which that was
// (manifestMeta). This binary only ever derives them from the
// representation's reconstruction — the one comparison form — and
// writes featSourceRecon (or None when the tier is disabled). An older
// binary run with an archive derived them from archived raws and wrote
// featSourceLegacyRaw: restoring those verbatim would prune against one
// form while verifying against another and could falsely dismiss true
// matches, so such a directory boots with them discarded and rebuilt, and
// its first checkpoint rewrites every payload in the same manifest commit
// that records the new source (OpenDir marks them all dirty).
const (
	featSourceNone      = 0 // tier disabled, nothing stored
	featSourceLegacyRaw = 1 // archived raw samples (read-side only)
	featSourceRecon     = 2 // representation reconstructions
)

// encodeRecordPayload serializes one record's body:
//
//	blobLen  u32, FunctionSeries blob (internal/rep codec)
//	featLen  u32, featLen f64s    (0 = record had no feature vector)
//	zfeatLen u32, zfeatLen f64s
//	sketch   u8 (0 = absent); if 1:
//	  meanLen  u32, meanLen f64s,  r1 f64,  r2 f64,  rinf f64   (plain)
//	  zmeanLen u32, zmeanLen f64s, zr1 f64, zr2 f64, zrinf f64
//
// All integers and floats are little-endian. The id is not part of the
// payload — the segment frame carries it. fs is the record's
// materialized representation — callers resolve it (hot pointer or
// fault-in) so encoding itself never touches disk. The payload is
// appended into one buffer sized exactly from the record.
func encodeRecordPayload(fs *rep.FunctionSeries, rec *Record) ([]byte, error) {
	size := 4 + fs.EncodedLen() + 4 + 8*len(rec.feats) + 4 + 8*len(rec.zfeats) + 1
	if sk := rec.sketch; sk != nil {
		size += 2*(4+3*8) + 8*(len(sk.Means)+len(sk.ZMeans))
	}
	b, err := fs.AppendBinary(make([]byte, 4, size))
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	b = appendVector(b, rec.feats)
	b = appendVector(b, rec.zfeats)
	return appendSketch(b, rec.sketch), nil
}

// appendVector appends one length-prefixed float vector.
func appendVector(b []byte, vec []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vec)))
	return appendF64s(b, vec...)
}

func appendF64s(b []byte, vals ...float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// cursor walks an untrusted payload. Every length prefix is checked
// against the bytes that remain before anything is allocated for it, so
// a corrupt or hostile payload costs at most a small multiple of its own
// size — never what its prefixes claim. A skipping cursor checks the
// same lengths but copies no floats out (f64s returns nil); any other
// decodes every vector into floats, whose windows it returns.
type cursor struct {
	b      []byte
	skip   bool
	floats []float64
}

// take consumes the next n bytes (aliasing the payload, not copying).
func (c *cursor) take(n uint64) ([]byte, error) {
	if n > uint64(len(c.b)) {
		return nil, fmt.Errorf("%d bytes claimed, %d remain: %w", n, len(c.b), io.ErrUnexpectedEOF)
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) f64s(n uint32) ([]float64, error) {
	b, err := c.take(8 * uint64(n))
	if err != nil || c.skip {
		return nil, err
	}
	start := len(c.floats)
	for i := range int(n) {
		c.floats = append(c.floats, f64le(b[8*i:]))
	}
	return c.floats[start:len(c.floats):len(c.floats)], nil
}

func f64le(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// payloadMode selects what decodeRecordPayload copies out of a payload.
// Both modes walk every field with the same cursor and run every check
// on it, so they accept exactly the same payloads and return the same
// representation.
type payloadMode bool

const (
	// withDerived also returns the feature vectors and the sketch: a
	// boot adopting the record restores them.
	withDerived payloadMode = false
	// repOnly returns the representation alone, leaving the feature
	// vectors and the sketch uncopied (nil): a fault-in's record holds
	// them resident already.
	repOnly payloadMode = true
)

// decodeRecordPayload parses a body written by encodeRecordPayload.
func decodeRecordPayload(db *DB, id string, payload []byte, mode payloadMode) (*rep.FunctionSeries, []float64, []float64, *multires.Sketch, error) {
	c := &cursor{b: payload, skip: bool(mode)}
	blobLen, err := c.u32()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: record %q blob length: %w", id, err)
	}
	blob, err := c.take(uint64(blobLen))
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: record %q blob: %w", id, err)
	}
	var fs rep.FunctionSeries
	if err := fs.UnmarshalBinary(blob); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: record %q: %w", id, err)
	}
	if !c.skip { // one block for every vector, no larger than the configuration admits or the bytes hold
		c.floats = make([]float64, 0, min(db.derivedFloats(fs.N, db.findex != nil, true), len(c.b)/8))
	}
	feats, err := loadVector(c, db, id)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	zfeats, err := loadVector(c, db, id)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sk, err := loadSketch(c, id, fs.N, db.cfg.SketchBlock)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if len(c.b) != 0 {
		return nil, nil, nil, nil, fmt.Errorf("core: record %q: %d trailing payload bytes", id, len(c.b))
	}
	return &fs, feats, zfeats, sk, nil
}

// appendSketch appends one record's sketch payload (a presence byte, then
// both halves of the summary).
func appendSketch(b []byte, sk *multires.Sketch) []byte {
	if sk == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendVector(b, sk.Means)
	b = appendF64s(b, sk.R1, sk.R2, sk.Rinf)
	b = appendVector(b, sk.ZMeans)
	return appendF64s(b, sk.ZR1, sk.ZR2, sk.ZRinf)
}

// loadSketch reads one record's sketch payload, validating the mean
// counts against the record's length and the database's block size. n
// comes from the same untrusted bytes, so a count that matches it is
// still bounded by what the payload actually holds (cursor.f64s). A
// skipping cursor runs the same checks and returns a nil sketch.
func loadSketch(c *cursor, id string, n, block int) (*multires.Sketch, error) {
	marker, err := c.take(1)
	if err != nil {
		return nil, fmt.Errorf("core: record %q sketch: %w", id, err)
	}
	if marker[0] == 0 {
		return nil, nil
	}
	if marker[0] != 1 {
		return nil, fmt.Errorf("core: record %q: bad sketch marker %d", id, marker[0])
	}
	want := 0
	if block > 0 {
		want = multires.NumBlocks(n, block)
	}
	var sk *multires.Sketch
	if !c.skip {
		sk = &multires.Sketch{N: n, Block: block}
	}
	for half := 0; half < 2; half++ {
		got, err := c.u32()
		if err != nil {
			return nil, fmt.Errorf("core: record %q sketch: %w", id, err)
		}
		if int(got) != want {
			return nil, fmt.Errorf("core: record %q: sketch has %d means, want %d", id, got, want)
		}
		means, err := c.f64s(got)
		if err != nil {
			return nil, fmt.Errorf("core: record %q sketch means: %w", id, err)
		}
		norms, err := c.take(3 * 8)
		if err != nil {
			return nil, fmt.Errorf("core: record %q sketch norms: %w", id, err)
		}
		if sk == nil {
			continue
		}
		r1, r2, rinf := f64le(norms), f64le(norms[8:]), f64le(norms[16:])
		if half == 0 {
			sk.Means, sk.R1, sk.R2, sk.Rinf = means, r1, r2, rinf
		} else {
			sk.ZMeans, sk.ZR1, sk.ZR2, sk.ZRinf = means, r1, r2, rinf
		}
	}
	return sk, nil
}

// loadVector reads one length-prefixed feature vector, validating its
// width against the database's coefficient count (real vectors are always
// 2·IndexCoeffs wide; 0 marks an absent vector). A skipping cursor runs
// the same checks and returns nil.
func loadVector(c *cursor, db *DB, id string) ([]float64, error) {
	n, err := c.u32()
	if err != nil {
		return nil, fmt.Errorf("core: record %q feature length: %w", id, err)
	}
	if n == 0 {
		return nil, nil
	}
	want := 0
	if db.findex != nil {
		want = 2 * db.findex.k
	}
	if int(n) != want {
		return nil, fmt.Errorf("core: record %q: feature vector has %d entries, want %d", id, n, want)
	}
	vec, err := c.f64s(n)
	if err != nil {
		return nil, fmt.Errorf("core: record %q feature vector: %w", id, err)
	}
	return vec, nil
}
