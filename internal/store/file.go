package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"seqrep/internal/seq"
)

// FileArchive stores each sequence as one file in a directory, in a small
// versioned binary format. It implements Archive.
type FileArchive struct {
	dir string
	mu  sync.Mutex

	// WrapWriter, when non-nil, decorates the temp-file writer on every
	// Put — the fault-injection hook used by the dying-writer tests (in
	// the style of DB.WrapCheckpointWriter and CountingArchive).
	// Production callers leave it nil.
	WrapWriter func(io.Writer) io.Writer
}

// Raw-sequence file format:
//
//	magic   "SRAW" (4 bytes)
//	version u8 (currently 1)
//	n       u32
//	samples (t f64, v f64) × n
var rawMagic = [4]byte{'S', 'R', 'A', 'W'}

const rawVersion = 1

// fsyncFile is an indirection over (*os.File).Sync so the fault tests
// can fail or observe the sync that must precede every rename (compare
// FailAfterWriter). Production code never replaces it.
var fsyncFile = (*os.File).Sync

// SyncDir fsyncs a directory, making the renames, creates and removes
// inside it durable. A rename alone moves bytes safely, but the new
// directory entry lives in the directory's own metadata — without this
// sync a power loss can forget the rename even though the file's
// contents were fsync'd, leaving the old name (or nothing) behind.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := fsyncFile(d); err != nil {
		return fmt.Errorf("store: syncing dir %s: %w", dir, err)
	}
	return nil
}

// NewFileArchive opens (creating if needed) a directory-backed archive.
func NewFileArchive(dir string) (*FileArchive, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty archive directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating archive dir: %w", err)
	}
	return &FileArchive{dir: dir}, nil
}

// path maps an id to its file, rejecting ids that would escape the
// directory.
func (a *FileArchive) path(id string) (string, error) {
	if id == "" {
		return "", fmt.Errorf("store: empty sequence id")
	}
	if strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("store: invalid sequence id %q", id)
	}
	return filepath.Join(a.dir, id+".sraw"), nil
}

// Put implements Archive. The write is atomic AND durable: data lands in
// a temp file that is fsync'd before the rename (a rename of un-synced
// bytes can surface a zero-length or partial file under the final name
// after a power loss), and the directory is fsync'd after it so the new
// entry itself survives the crash.
func (a *FileArchive) Put(id string, s seq.Sequence) error {
	p, err := a.path(id)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tmp, err := os.CreateTemp(a.dir, "put-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	var w io.Writer = tmp
	if a.WrapWriter != nil {
		w = a.WrapWriter(tmp)
	}
	if err := writeRaw(w, s); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %q: %w", id, err)
	}
	if err := fsyncFile(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing %q: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %q: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("store: committing %q: %w", id, err)
	}
	return SyncDir(a.dir)
}

// Get implements Archive.
func (a *FileArchive) Get(id string) (seq.Sequence, error) {
	p, err := a.path(id)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return nil, fmt.Errorf("store: opening %q: %w", id, err)
	}
	defer f.Close()
	s, err := readRaw(f)
	if err != nil {
		return nil, fmt.Errorf("store: reading %q: %w", id, err)
	}
	return s, nil
}

// Delete implements Archive.
func (a *FileArchive) Delete(id string) error {
	p, err := a.path(id)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return fmt.Errorf("store: deleting %q: %w", id, err)
	}
	return nil
}

// List implements Archive.
func (a *FileArchive) List() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing archive: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".sraw") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".sraw"))
	}
	sort.Strings(ids)
	return ids, nil
}

func writeRaw(w io.Writer, s seq.Sequence) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(rawMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(rawVersion); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(s)))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for _, p := range s {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.T))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.V))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readRaw(r io.Reader) (seq.Sequence, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if magic != rawMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("reading version: %w", err)
	}
	if version != rawVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("reading count: %w", err)
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	const maxSamples = 1 << 28 // 256M samples ~ 4GB: fail loudly on corrupt counts
	if n > maxSamples {
		return nil, fmt.Errorf("implausible sample count %d", n)
	}
	s := make(seq.Sequence, 0, n)
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("reading sample %d: %w", i, err)
		}
		t := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("reading sample %d: %w", i, err)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		s = append(s, seq.Point{T: t, V: v})
	}
	return s, nil
}
