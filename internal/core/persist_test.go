package core

// Tests for the record payload codec — the one decoder that reads
// record bytes back off disk (segment boot and cold-payload fault-in).
// Segment frames are CRC-checked, but the decoder must still hold up on
// its own against whatever bytes reach it: reject, never panic, and
// never allocate what a length prefix claims rather than what the
// payload holds.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"seqrep/internal/fit"
	"seqrep/internal/multires"
	"seqrep/internal/rep"
	"seqrep/internal/synth"
)

// payloadFixture returns a default-configuration database (the decoding
// side) and two real payloads: a record carrying feature vectors and a
// sketch, and one from a database with both disabled.
func payloadFixture(t testing.TB) (db *DB, full, bare []byte) {
	t.Helper()
	fever, err := synth.Fever(synth.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(cfg Config) (*DB, []byte) {
		db := mustDB(t, cfg)
		mustIngest(t, db, "fever", fever)
		rec, _ := db.Record("fever")
		payload, err := encodeRecordPayload(rec.rep.Load(), rec)
		if err != nil {
			t.Fatal(err)
		}
		return db, payload
	}
	db, full = encode(Config{})
	_, bare = encode(Config{IndexCoeffs: -1, SketchBlock: -1})
	return db, full, bare
}

// fieldBoundaries walks a valid payload and returns the offset at which
// each field ends (every length prefix, every body, the sketch marker).
func fieldBoundaries(payload []byte) []int {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(payload[off:])) }
	var ends []int
	off := 0
	field := func(n int) { off += n; ends = append(ends, off) }
	blob := u32(off)
	field(4)
	field(blob)
	for i := 0; i < 2; i++ { // feats, zfeats
		n := u32(off)
		field(4)
		if n > 0 {
			field(8 * n)
		}
	}
	marker := payload[off]
	field(1)
	if marker == 1 {
		for half := 0; half < 2; half++ {
			n := u32(off)
			field(4)
			field(8 * n) // means
			field(8 * 3) // residual norms
		}
	}
	return ends
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBudget is what decoding an n-byte payload may allocate: a small
// multiple of its size (decoded structs are wider than their encoding)
// plus the decoder's fixed buffers.
func allocBudget(n int) uint64 { return 16*uint64(n) + 64<<10 }

func TestLoadRejectsCorruption(t *testing.T) {
	db, full, bare := payloadFixture(t)
	for _, p := range [][]byte{full, bare} {
		fs, feats, zfeats, sk, err := decodeRecordPayload(db, "ok", p)
		if err != nil {
			t.Fatalf("valid payload rejected: %v", err)
		}
		again, err := encodeRecordPayload(fs, &Record{feats: feats, zfeats: zfeats, sketch: sk})
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("decode→encode changed a valid payload (err %v)", err)
		}
	}

	ends := fieldBoundaries(full)
	if ends[len(ends)-1] != len(full) {
		t.Fatalf("field walk ends at %d of %d bytes", ends[len(ends)-1], len(full))
	}
	blobEnd, featsEnd, marker := ends[1], ends[3], ends[5]
	mutate := func(off int, b ...byte) []byte {
		out := bytes.Clone(full)
		copy(out[off:], b)
		return out
	}
	cases := map[string][]byte{
		"empty":                nil,
		"trailing byte":        append(bytes.Clone(full), 0),
		"blob magic":           mutate(4, 'X'),
		"blob with slack":      bytes.Join([][]byte{binary.LittleEndian.AppendUint32(nil, uint32(blobEnd-4+1)), full[4:blobEnd], {0}, full[blobEnd:]}, nil),
		"vector width":         mutate(blobEnd, 3, 0, 0, 0),
		"second vector width":  mutate(featsEnd, 3, 0, 0, 0),
		"sketch marker":        mutate(marker, 2),
		"sketch mean count":    mutate(marker+1, 1, 0, 0, 0),
		"sketch absent + tail": mutate(marker, 0),
	}
	for _, end := range ends[:len(ends)-1] {
		cases[fmt.Sprintf("truncated at field boundary %d", end)] = full[:end]
	}
	for cut := 1; cut < len(full); cut += 7 {
		cases[fmt.Sprintf("truncated at byte %d", cut)] = full[:cut]
	}
	for name, p := range cases {
		if _, _, _, _, err := decodeRecordPayload(db, "bad", p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadHugeCountRejected feeds the decoder length prefixes that claim
// far more than the payload holds. Each must be refused before anything
// is allocated for it: the sketch mean count is the subtle one, because
// it is validated only against a sample count read from the same bytes.
func TestLoadHugeCountRejected(t *testing.T) {
	db, full, _ := payloadFixture(t)
	ends := fieldBoundaries(full)
	blobEnd := ends[1]

	// A valid one-segment representation claiming 2²⁷ samples: its sketch
	// legitimately has 2²⁷/block means, which a short payload cannot hold.
	const hugeN = 1 << 27
	giant := rep.FunctionSeries{N: hugeN, Segments: []rep.Segment{{
		Lo: 0, Hi: hugeN - 1, StartT: 0, EndT: hugeN - 1, Kind: fit.KindLine, Params: []float64{0, 0},
	}}}
	giantBlob, err := giant.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	u32 := func(v int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	sketchOfGiant := join(u32(len(giantBlob)), giantBlob, u32(0), u32(0), []byte{1},
		u32(multires.NumBlocks(hugeN, db.cfg.SketchBlock)))

	cases := map[string][]byte{
		"blob length 1 GiB":      u32(1 << 30),
		"blob length 4 GiB":      u32(1<<32 - 1),
		"vector count":           join(full[:blobEnd], u32(2*db.findex.k)),
		"vector count 4 Gi":      join(full[:blobEnd], u32(1<<32-1)),
		"sketch means of 2^27":   sketchOfGiant,
		"sketch mean count 4 Gi": join(full[:ends[6]], u32(1<<32-1)),
	}
	for name, p := range cases {
		var err error
		got := allocated(func() { _, _, _, _, err = decodeRecordPayload(db, "huge", p) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if budget := allocBudget(len(p)); got > budget {
			t.Errorf("%s: decoding %d bytes allocated %d, budget %d", name, len(p), got, budget)
		}
	}
}

// FuzzRecordPayload: arbitrary bytes never panic the decoder, never make
// it allocate past a small multiple of their own length, and whatever it
// accepts re-encodes to exactly the bytes it was given (the codec has one
// spelling per record, so a checkpoint rewrites what boot read).
func FuzzRecordPayload(f *testing.F) {
	db, full, bare := payloadFixture(f)
	f.Add(full)
	f.Add(bare)
	for _, end := range fieldBoundaries(full) {
		f.Add(full[:end])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			fs            *rep.FunctionSeries
			feats, zfeats []float64
			sk            *multires.Sketch
			err           error
		)
		got := allocated(func() { fs, feats, zfeats, sk, err = decodeRecordPayload(db, "fuzz", payload) })
		if budget := allocBudget(len(payload)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(payload), got, budget)
		}
		if err != nil {
			return
		}
		again, err := encodeRecordPayload(fs, &Record{feats: feats, zfeats: zfeats, sketch: sk})
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, again)
		}
	})
}

// TestRecordPayloadGolden pins the record payload layout, and the rep
// blob inside it, to bytes hashed from the encoder before it became an
// append: one record of line, polynomial and Bézier segments with feature
// vectors and a sketch, and one carrying none of them. The payload is
// appended into a buffer sized exactly from the record.
func TestRecordPayloadGolden(t *testing.T) {
	mixed := &rep.FunctionSeries{N: 12, Segments: []rep.Segment{
		{Lo: 0, Hi: 3, StartT: 0, StartV: 1.5, EndT: 3, EndV: -2.25, Kind: fit.KindLine, Params: []float64{-1.25, 1.5}},
		{Lo: 4, Hi: 7, StartT: 4, StartV: 0.1, EndT: 7, EndV: 3.3, Kind: fit.KindPoly, Params: []float64{0.1, -0.7, 0.05}},
		{Lo: 8, Hi: 11, StartT: 8, StartV: -1, EndT: 11, EndV: 2, Kind: fit.KindBezier,
			Params: []float64{8, -1, 9, 0.5, 10, 1e-300, 11, 2}},
	}}
	bare := &rep.FunctionSeries{N: 5, Segments: []rep.Segment{
		{Lo: 0, Hi: 4, StartT: 0.5, StartV: 2, EndT: 2.5, EndV: -3, Kind: fit.KindPoly, Params: []float64{2, 0.25, -1.0 / 3}},
	}}
	sketch := &multires.Sketch{N: 12, Block: 5,
		Means: []float64{0.25, -1.5, math.Pi}, R1: 4.5, R2: math.Sqrt2, Rinf: 1.75,
		ZMeans: []float64{-0.5, 0, math.E}, ZR1: 2.25, ZR2: 1.125, ZRinf: math.Copysign(0, -1)}
	for _, c := range []struct {
		name        string
		fs          *rep.FunctionSeries
		rec         *Record
		blob, whole string
	}{
		{"mixed", mixed, &Record{feats: []float64{1, -2, 0.5, math.MaxFloat64}, zfeats: []float64{-0.125, 3, 1e-17, 7}, sketch: sketch},
			"e284e059682c4dfcbe011dda93d16a2f4ed462db16a3500e0aad169888a3e22b",
			"37697b5d0f635c2c6dbc2095a64b9079eff896f4792f0162e512f50d490d0690"},
		{"none", bare, &Record{},
			"49c44977c907be4a33e47071baae38ab5f4373a597e3cd8b588a0bb4300ba3b6",
			"ec0157929600d06b91f46f165ed5a3685fa57379ffd444105ffbea157aeaf629"},
	} {
		blob, err := c.fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := encodeRecordPayload(c.fs, c.rec)
		if err != nil {
			t.Fatal(err)
		}
		if cap(payload) != len(payload) {
			t.Errorf("%s: %d-byte payload in a %d-byte buffer, want it sized exactly", c.name, len(payload), cap(payload))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != c.blob {
			t.Errorf("%s: rep blob sha256 %s, want %s", c.name, got, c.blob)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != c.whole {
			t.Errorf("%s: payload sha256 %s, want %s", c.name, got, c.whole)
		}
	}
}
