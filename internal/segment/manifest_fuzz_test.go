package segment_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"seqrep/internal/core"
	"seqrep/internal/segment"
	"seqrep/internal/synth"
)

// segmentName is the only file name a manifest may list: the
// seg-<16 hex digits>.sseg form every flush and compaction writes.
var segmentName = regexp.MustCompile(`^seg-[0-9a-fA-F]{16}\.sseg$`)

// realManifest returns the MANIFEST bytes of a durable database after
// two checkpoints (two live segments, compaction off).
func realManifest(f *testing.F) []byte {
	dir := f.TempDir()
	db, err := core.OpenDir(dir, core.Config{CompactThreshold: -1, RecoveryProbeInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		fever, err := synth.Fever(synth.FeverOpts{})
		if err != nil {
			f.Fatal(err)
		}
		if err := db.Ingest(id, fever); err != nil {
			f.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, core.SegmentsDirName, segment.ManifestFileName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// withCRC returns file with its header checksum recomputed over the
// body, so a mutated body reaches the JSON decoder instead of stopping
// at the checksum.
func withCRC(file []byte) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(out[8:], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// FuzzManifest: every manifest file is either refused with ErrCorrupt or
// parses to distinct, well-formed segment names; and a parsed manifest's
// metadata either refuses boot or yields finite, non-negative scalars
// that the first checkpoint can write back. Nothing panics. Each input is
// tried as given and with its checksum repaired.
func FuzzManifest(f *testing.F) {
	whole := realManifest(f)
	f.Add(whole)
	f.Add(whole[:4]) // magic
	f.Add(whole[:8]) // checksum
	for i := 8; i < len(whole); i++ {
		switch whole[i] {
		case '{', '}', '[', ']', ',', ':', '"':
			f.Add(whole[:i])
			f.Add(whole[:i+1])
		}
	}
	for _, body := range []string{
		`{"lsn":0,"segments":[".."]}`,
		`{"lsn":0,"segments":["MANIFEST"]}`,
		`{"lsn":0,"segments":["seg-0000000000000001.sseg","seg-0000000000000001.sseg"]}`,
		`{"lsn":0,"meta":{"epsilon":-1}}`,
		`{"lsn":0,"meta":{"epsilon":1e308,"delta":1e308,"bucket":1e-308,"index_coeffs":1048576,"sketch_block":1048576}}`,
	} {
		f.Add(withCRC(append([]byte("SMF1\x00\x00\x00\x00"), body...)))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		checkManifest(t, file)
		if len(file) >= 8 {
			checkManifest(t, withCRC(file))
		}
	})
}

func checkManifest(t *testing.T, file []byte) {
	t.Helper()
	m, err := segment.ParseManifest(file)
	if err != nil {
		if !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
		}
		return
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		if !segmentName.MatchString(name) || seen[name] {
			t.Fatalf("accepted segment list %q", m.Segments)
		}
		seen[name] = true
	}

	// Boot reads the metadata alone, so the segment list is dropped: the
	// named files do not exist here.
	dir := t.TempDir()
	segDir := filepath.Join(dir, core.SegmentsDirName)
	if err := os.Mkdir(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := segment.WriteManifest(segDir, &segment.Manifest{Meta: m.Meta}); err != nil {
		t.Fatal(err)
	}
	db, err := core.OpenDir(dir, core.Config{RecoveryProbeInterval: -1})
	if err != nil {
		return
	}
	defer db.Close()
	cfg := db.Config()
	for name, v := range map[string]float64{"epsilon": cfg.Epsilon, "delta": cfg.Delta, "bucket width": cfg.BucketWidth} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metadata %s booted with %s %g", m.Meta, name, v)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("metadata %s booted, then the first checkpoint failed: %v", m.Meta, err)
	}
}
