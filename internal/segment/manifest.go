package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"seqrep/internal/store"
)

// ManifestFileName is the file inside a segment directory that names the
// live segment set. The manifest is the commit point for every flush and
// compaction: segments not named by it are dead weight (orphans from a
// crash mid-flush) and are deleted at the next Open.
const ManifestFileName = "MANIFEST"

const manifestMagic = "SMF1"

// Manifest is the durable root of a segment store: the ordered live
// segment set (oldest first — readers overlay newest-wins), the highest
// write-ahead-log LSN whose effects the segments fully cover (the WAL
// can be truncated strictly below it after a checkpoint commits), and an
// opaque metadata blob owned by the caller (internal/core stores the
// pipeline scalars a reboot needs before it can decode payloads).
type Manifest struct {
	// LSN is the first WAL offset NOT covered by the segments: replay
	// must resume at LSN, and wal.TruncateBefore(LSN) is safe.
	LSN uint64 `json:"lsn"`
	// Segments lists live segment file names (not paths), oldest first.
	Segments []string `json:"segments"`
	// Meta is the caller's opaque configuration blob.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// writeManifest commits m at dir/MANIFEST: temp file, fsync, rename,
// directory sync. Layout: magic "SMF1" | crc u32 over the JSON | JSON.
// The rename is the commit point — a crash on either side leaves a
// complete manifest (old or new), never a torn one.
func writeManifest(dir string, m *Manifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("segment: encoding manifest: %w", err)
	}
	buf := make([]byte, 0, 8+len(body))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
	buf = append(buf, body...)

	tmp, err := os.CreateTemp(dir, ManifestFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("segment: manifest temp file: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("segment: writing manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("segment: syncing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("segment: closing manifest: %w", err)
	}
	path := filepath.Join(dir, ManifestFileName)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("segment: committing manifest: %w", err)
	}
	if err := store.SyncDir(dir); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// loadManifest reads and validates dir/MANIFEST. A missing file returns
// (nil, nil) — an empty store; damage returns ErrCorrupt.
func loadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestFileName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segment: reading manifest: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return m, nil
}

// parseManifest decodes and validates a manifest file's bytes (the
// layout writeManifest produces). Every refusal wraps ErrCorrupt. A
// parsed manifest names only distinct segment files in the seg-<seq>.sseg
// form segName writes, so no name can reach outside the directory or
// alias the manifest itself.
func parseManifest(data []byte) (*Manifest, error) {
	if len(data) < 8 || string(data[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: not a segment manifest", ErrCorrupt)
	}
	body := data[8:]
	if got, want := binary.LittleEndian.Uint32(data[4:8]), crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: manifest crc %08x, computed %08x", ErrCorrupt, got, want)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest body: %v", ErrCorrupt, err)
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		if _, ok := segSeq(name); !ok {
			return nil, fmt.Errorf("%w: invalid segment name %q", ErrCorrupt, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate segment name %q", ErrCorrupt, name)
		}
		seen[name] = true
	}
	return &m, nil
}
