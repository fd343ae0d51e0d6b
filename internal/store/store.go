// Package store holds storage helpers shared by the durable tiers and the
// experiments. The paper's motivating observation (§1) is that raw
// sequence data lives on very slow media — "obtaining raw seismic data can
// take several days" — while the compact function representation can be
// kept local; raw data is consulted only when finer resolution is
// required. The database keeps only the representation, so archiving the
// originals is the caller's concern: MemArchive, an in-memory archive with
// injectable latency, lets experiments reproduce the slow-archive/fast-
// representation trade-off deterministically beside it.
//
// The package also provides SyncDir, the directory fsync behind the
// segment tier's renames, and FailAfterWriter, a dying-medium writer for
// fault tests.
package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"seqrep/internal/seq"
)

// ErrNotFound is returned when a sequence id is absent from an archive.
var ErrNotFound = fmt.Errorf("store: sequence not found")

// Stats counts archive traffic, the measure the latency experiments report.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// MemArchive is an in-memory archive of raw sequences by id, with
// optional simulated access latency, standing in for the paper's
// magnetic-tape archive. It is safe for concurrent use.
type MemArchive struct {
	// ReadLatency is added to every Get, simulating slow archival media.
	ReadLatency time.Duration
	// WriteLatency is added to every Put.
	WriteLatency time.Duration

	mu    sync.Mutex
	data  map[string]seq.Sequence
	stats Stats
}

// NewMemArchive returns an empty in-memory archive with no latency.
func NewMemArchive() *MemArchive {
	return &MemArchive{data: make(map[string]seq.Sequence)}
}

// bytesOf estimates the raw storage footprint of a sequence: two float64
// per sample.
func bytesOf(s seq.Sequence) int64 { return int64(len(s)) * 16 }

// Put stores a copy of s under id, replacing any previous contents.
func (a *MemArchive) Put(id string, s seq.Sequence) error {
	if id == "" {
		return fmt.Errorf("store: empty sequence id")
	}
	if a.WriteLatency > 0 {
		time.Sleep(a.WriteLatency)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.data[id] = s.Clone()
	a.stats.Writes++
	a.stats.BytesWritten += bytesOf(s)
	return nil
}

// Get returns a copy of the sequence stored under id; errors.Is(err,
// ErrNotFound) reports absence.
func (a *MemArchive) Get(id string) (seq.Sequence, error) {
	if a.ReadLatency > 0 {
		time.Sleep(a.ReadLatency)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.data[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	a.stats.Reads++
	a.stats.BytesRead += bytesOf(s)
	return s.Clone(), nil
}

// Delete removes the sequence; deleting an absent id is an error.
func (a *MemArchive) Delete(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.data[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(a.data, id)
	return nil
}

// List returns all stored ids in sorted order.
func (a *MemArchive) List() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.data))
	for id := range a.data {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Stats returns a snapshot of the traffic counters.
func (a *MemArchive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats zeroes the traffic counters.
func (a *MemArchive) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
}
