package core

import (
	"errors"
	"fmt"
	"io"

	"seqrep/internal/rep"
	"seqrep/internal/resident"
	"seqrep/internal/segment"
	"seqrep/internal/seq"
)

// storage is the one seam between the catalogue (shards, feature index,
// executor) and where records live beyond it (docs/ARCHITECTURE.md
// "Storage seam"). It has exactly two implementations, chosen at
// construction: volatile (New) keeps nothing on disk and every
// representation resident; dirStore (OpenDir — durable.go, degraded.go,
// residency.go, segments.go) owns the write-ahead log, the segment tier,
// the dirty set, residency and degraded mode. DB calls it unconditionally
// and never asks which one it holds.
type storage interface {
	// writable fails fast with ErrDegraded while no write can be made
	// durable; nil otherwise.
	writable() error
	// ingestPayload encodes the log record of one ingest. It runs in the
	// parallel build step; nil when nothing will be logged.
	ingestPayload(id string, s seq.Sequence) ([]byte, error)
	// logIngest and logRemove make a write durable before it is
	// published: logIngest a whole batch of ingestPayload results behind
	// one fsync. On success the caller publishes the write (commit and
	// link, or unlink) and then calls endWrite: no checkpoint falls
	// between the two. On error nothing was acknowledged and endWrite is
	// not called.
	logIngest(payloads [][]byte) error
	logRemove(id string) error
	endWrite()
	// linked and unlinked report a record entering and leaving the
	// catalogue, inside the window logIngest or logRemove opened (or,
	// for linked, during boot adoption).
	linked(rec *Record)
	unlinked(rec *Record)
	// faultIn pages in a representation that is not resident.
	faultIn(rec *Record) (*rep.FunctionSeries, error)

	// One method per exported storage entry point of DB.
	checkpoint() error
	tryRecover() error
	close() error
	recoveryStats() RecoveryStats
	walStats() (WALStats, bool)
	segmentStats() (segment.Stats, bool)
	residencyStats() (resident.Stats, bool)
	degradedStatus() DegradedStatus
	setWALFault(write, sync func() error)
	wrapCheckpointWriter(wrap func(io.Writer) io.Writer)
	setSegmentReadFault(hook func() error)
}

// volatile is the storage of a New database: no log, nothing to
// checkpoint, every representation resident.
type volatile struct{}

var errNoLog = errors.New("core: database has no write-ahead log (not opened via OpenDir)")

func (volatile) writable() error                                    { return nil }
func (volatile) ingestPayload(string, seq.Sequence) ([]byte, error) { return nil, nil }
func (volatile) logIngest([][]byte) error                           { return nil }
func (volatile) logRemove(string) error                             { return nil }
func (volatile) endWrite()                                          {}
func (volatile) linked(*Record)                                     {}
func (volatile) unlinked(*Record)                                   {}

// faultIn is unreachable: nothing evicts without a tier to page from.
func (volatile) faultIn(rec *Record) (*rep.FunctionSeries, error) {
	return nil, fmt.Errorf("core: representation of %q evicted with no segment tier to page from: %w", rec.ID, ErrStorage)
}

func (volatile) checkpoint() error                              { return errNoLog }
func (volatile) tryRecover() error                              { return errNoLog }
func (volatile) close() error                                   { return nil }
func (volatile) recoveryStats() RecoveryStats                   { return RecoveryStats{} }
func (volatile) walStats() (WALStats, bool)                     { return WALStats{}, false }
func (volatile) segmentStats() (segment.Stats, bool)            { return segment.Stats{}, false }
func (volatile) residencyStats() (resident.Stats, bool)         { return resident.Stats{}, false }
func (volatile) degradedStatus() DegradedStatus                 { return DegradedStatus{} }
func (volatile) setWALFault(func() error, func() error)         {}
func (volatile) wrapCheckpointWriter(func(io.Writer) io.Writer) {}
func (volatile) setSegmentReadFault(func() error)               {}

// materialize returns rec's representation, paging it in through the
// storage seam if it was evicted. A resident read is one atomic load and
// no interface call. The hot flag is set on every call, so a use between
// two eviction sweeps grants the payload a second chance.
func (db *DB) materialize(rec *Record) (*rep.FunctionSeries, error) {
	if fs := rec.rep.Load(); fs != nil {
		rec.hot.Store(true)
		return fs, nil
	}
	return db.storage.faultIn(rec)
}

// Representation returns the stored function series for id, paging it
// in from the segment tier when it is not resident. The returned series
// is immutable and remains valid even if the record is evicted or
// removed afterwards.
func (db *DB) Representation(id string) (*rep.FunctionSeries, error) {
	rec, ok := db.Record(id)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownID, id)
	}
	fs, err := db.materialize(rec)
	if err != nil {
		if cur, ok := db.Record(id); !ok || cur != rec {
			return nil, fmt.Errorf("core: %w %q", ErrUnknownID, id)
		}
		return nil, err
	}
	return fs, nil
}

// Checkpoint flushes the records dirtied since the last checkpoint into a
// new segment and truncates the write-ahead log (dirStore.runCheckpoint).
// It fails on a database not opened via OpenDir.
func (db *DB) Checkpoint() error { return db.storage.checkpoint() }

// Recover attempts to bring a degraded database back into write service
// (degraded.go): a scratch append+fsync in the log directory, then a
// wal.Reset; on success writes are accepted again. A no-op on a healthy
// database, an error on one not opened via OpenDir. The supervised probe
// loop calls it on a timer; callers may call it for an immediate attempt.
func (db *DB) Recover() error { return db.storage.tryRecover() }

// Close releases the write-ahead log (flushing and syncing its tail)
// and the segment tier's open files. Writes racing with Close fail
// unacknowledged; queries against resident records are unaffected. A
// database without a log closes trivially. Closing twice is harmless.
func (db *DB) Close() error { return db.storage.close() }

// Recovery reports what the boot-time replay did (zero value when the
// database was not opened via OpenDir or had nothing to replay).
func (db *DB) Recovery() RecoveryStats { return db.storage.recoveryStats() }

// WALStats reports the write-ahead log's depth; ok is false when the
// database has no log (not opened via OpenDir).
func (db *DB) WALStats() (WALStats, bool) { return db.storage.walStats() }

// SegmentStats reports the segment tier's footprint for health
// endpoints; ok is false when there is none (not opened via OpenDir).
func (db *DB) SegmentStats() (segment.Stats, bool) { return db.storage.segmentStats() }

// ResidencyStats reports the residency tracker's counters. ok is false
// when no memory budget is configured (fully resident operation).
func (db *DB) ResidencyStats() (resident.Stats, bool) { return db.storage.residencyStats() }

// DegradedStatus reports whether the database is in storage-fault
// read-only mode, why, and for how long.
func (db *DB) DegradedStatus() DegradedStatus { return db.storage.degradedStatus() }

// SetWALFault arms (nils disarm) the write-ahead log's fault-injection
// hooks (wal.WAL.SetFault): a non-nil return poisons the log and degrades
// the database like a real fault. No-op without a log. Chaos tests only.
func (db *DB) SetWALFault(write, sync func() error) { db.storage.setWALFault(write, sync) }

// WrapCheckpointWriter installs a writer decorator on segment flushes,
// the hook tests use to make Checkpoint fail mid-write. Pass nil to
// remove. No-op without a segment tier.
func (db *DB) WrapCheckpointWriter(wrap func(io.Writer) io.Writer) {
	db.storage.wrapCheckpointWriter(wrap)
}

// SetSegmentReadFault installs a fault hook on the segment tier's point
// lookups — the residency subsystem's cold-read path (chaos tests).
// Pass nil to remove. No-op without a segment tier.
func (db *DB) SetSegmentReadFault(hook func() error) { db.storage.setSegmentReadFault(hook) }
