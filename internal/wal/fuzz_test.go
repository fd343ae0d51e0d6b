package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walSegment is one segment file of a fixture log: its name and bytes.
type walSegment struct {
	name string
	data []byte
}

// ingestPayload and removePayload shape records like the database's own
// (internal/core): idLen u16 | id | n u32 | (t f64, v f64) × n for an
// ingest, idLen u16 | id for a remove. This package never decodes them.
func ingestPayload(id string, values ...float64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(id)))
	b = append(b, id...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(values)))
	for i, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(i)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func removePayload(id string) []byte {
	return append(binary.LittleEndian.AppendUint16(nil, uint16(len(id))), id...)
}

// twoSegmentLog writes a log of ingests and removes across two segments,
// the second begun by a checkpoint's Rotate, and returns its files in
// LSN order.
func twoSegmentLog(tb testing.TB) []walSegment {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	type op struct {
		code    byte
		payload []byte
	}
	halves := [][]op{
		{{1, ingestPayload("a", 1, 2, 3)}, {1, ingestPayload("b", 5, 4)}, {2, removePayload("a")}},
		{{1, ingestPayload("a", 9, 8, 7, 6)}, {2, removePayload("b")}, {1, ingestPayload("c", 0.5)}},
	}
	for i, half := range halves {
		if i > 0 {
			if _, err := w.Rotate(); err != nil {
				tb.Fatal(err)
			}
		}
		for gen, o := range half {
			if _, err := w.Append(o.code, uint64(gen), o.payload); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var segs []walSegment
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, walSegment{e.Name(), data})
	}
	if len(segs) != 2 {
		tb.Fatalf("fixture has %d segments, want 2", len(segs))
	}
	return segs
}

// replayAll opens dir and replays it, returning the log still open.
func replayAll(dir string) (*WAL, []Record, error) {
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	err = w.Replay(func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
		return nil
	})
	return w, recs, err
}

// FuzzWALReplay feeds recovery arbitrary bytes in place of one segment of
// a real two-segment log, under that segment's own file name. Open and
// Replay never panic, and every error they answer wraps ErrCorrupt. When
// replay succeeds, its repair is idempotent: a second Open and Replay of
// the same directory delivers the identical records, and one Append after
// it replays as the last record. The seeds are the log itself and every
// frame-boundary truncation of its final segment.
func FuzzWALReplay(f *testing.F) {
	segs := twoSegmentLog(f)
	f.Add(uint8(0), segs[0].data)
	final := segs[1].data
	f.Add(uint8(1), []byte{})
	for off := headerSize; off <= len(final); {
		f.Add(uint8(1), final[:off])
		if off == len(final) {
			break
		}
		off += frameHead + int(binary.LittleEndian.Uint32(final[off+4:]))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		for i, s := range segs {
			if i == int(which)%len(segs) {
				s.data = data
			}
			if err := os.WriteFile(filepath.Join(dir, s.name), s.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, first, err := replayAll(dir)
		if w != nil {
			w.Close()
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		w, second, err := replayAll(dir)
		if err != nil {
			t.Fatalf("second replay of a recovered log: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			w.Close()
			t.Fatalf("second replay delivered %d records, first %d: %+v vs %+v", len(second), len(first), second, first)
		}
		lsn, err := w.Append(2, 99, removePayload("z"))
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		w, third, err := replayAll(dir)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		w.Close()
		last := Record{Op: 2, Gen: 99, Payload: removePayload("z"), LSN: lsn}
		if want := append(second, last); !reflect.DeepEqual(third, want) {
			t.Fatalf("after append replayed %+v, want %+v", third, want)
		}
	})
}
