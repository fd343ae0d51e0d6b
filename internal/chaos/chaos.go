// Package chaos is the systematic fault plan behind the reliability
// suite (docs/RELIABILITY.md). The storage stack exposes narrow
// injection hooks — the write-ahead log's write/fsync hooks
// (DB.SetWALFault) and the checkpoint segment writer
// (DB.WrapCheckpointWriter) — and this package gives them one
// vocabulary: a fault Kind (disk error, no space, slow write, torn
// write), a Fault trigger that arms at call site N for M failures, and
// writer/hook adapters that express each kind at each site. The tests
// walk every (site × kind) pair asserting the invariants that define
// graceful degradation: no acknowledged write is ever lost, faults map
// to honest statuses (429/503/500 — never a cascade of cascading
// failures), and health always tells the truth.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind is the failure shape a fault expresses.
type Kind int

const (
	// DiskError fails the operation outright with ErrInjected (EIO-like:
	// the device refused the write).
	DiskError Kind = iota
	// NoSpace fails with ENOSPC after accepting part of the write, the
	// disk-full shape.
	NoSpace
	// SlowWrite delays the write (default 50ms) but lets it succeed —
	// the gray-failure shape that overload handling, not fault handling,
	// must absorb.
	SlowWrite
	// TornWrite accepts exactly half the buffer and then fails — the
	// power-cut-mid-write shape for crash-recovery scanning.
	TornWrite
)

// String names the kind for test labels.
func (k Kind) String() string {
	switch k {
	case DiskError:
		return "disk-error"
	case NoSpace:
		return "no-space"
	case SlowWrite:
		return "slow-write"
	case TornWrite:
		return "torn-write"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the device-error verdict DiskError and TornWrite
// faults fail with.
var ErrInjected = errors.New("chaos: injected disk error")

// ErrNoSpace is the disk-full verdict, carrying the real ENOSPC so
// errno-sensitive callers classify it exactly like the kernel's.
var ErrNoSpace = fmt.Errorf("chaos: injected disk full: %w", syscall.ENOSPC)

// Fault is an armed failure trigger: calls 1..After succeed, calls
// After+1..After+Count fail (or misbehave per Kind), and every call
// after that succeeds again — a fault that heals, so recovery paths get
// exercised, not just failure paths. Count < 0 means fail forever until
// Clear. The zero value fails on the first call, once.
type Fault struct {
	Kind  Kind
	After int64 // calls that succeed before the fault fires
	Count int64 // failures injected; negative = until Clear
	// Delay is SlowWrite's stall (default 50ms).
	Delay time.Duration

	calls atomic.Int64
	trips atomic.Int64
	off   atomic.Bool
}

// Clear heals the fault: subsequent calls succeed regardless of
// position.
func (f *Fault) Clear() { f.off.Store(true) }

// Trips reports how many times the fault actually fired.
func (f *Fault) Trips() int64 { return f.trips.Load() }

// Calls reports how many times the guarded site was reached.
func (f *Fault) Calls() int64 { return f.calls.Load() }

// active reports (and counts) whether this call should misbehave.
func (f *Fault) active() bool {
	n := f.calls.Add(1)
	if f.off.Load() {
		return false
	}
	if n <= f.After {
		return false
	}
	if f.Count >= 0 && n > f.After+f.Count {
		return false
	}
	f.trips.Add(1)
	return true
}

// err is the verdict a tripped fault reports (nil for SlowWrite, which
// stalls instead).
func (f *Fault) err() error {
	switch f.Kind {
	case NoSpace:
		return ErrNoSpace
	case SlowWrite:
		return nil
	default:
		return ErrInjected
	}
}

// delay is SlowWrite's stall duration.
func (f *Fault) delay() time.Duration {
	if f.Delay > 0 {
		return f.Delay
	}
	return 50 * time.Millisecond
}

// Hook adapts the fault to the WAL's hook shape (DB.SetWALFault): a
// func returning the fault's verdict when tripped. SlowWrite stalls and
// succeeds.
func (f *Fault) Hook() func() error {
	return func() error {
		if !f.active() {
			return nil
		}
		if f.Kind == SlowWrite {
			time.Sleep(f.delay())
			return nil
		}
		return f.err()
	}
}

// WrapWriter adapts the fault to the writer-decorator shape shared by
// DB.WrapCheckpointWriter and segment.Store.SetWrapWriter. The fault
// triggers per Write call.
func (f *Fault) WrapWriter() func(io.Writer) io.Writer {
	return func(w io.Writer) io.Writer { return &faultWriter{f: f, w: w} }
}

// faultWriter expresses the fault at io.Writer granularity.
type faultWriter struct {
	f *Fault
	w io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if !fw.f.active() {
		return fw.w.Write(p)
	}
	switch fw.f.Kind {
	case SlowWrite:
		time.Sleep(fw.f.delay())
		return fw.w.Write(p)
	case NoSpace:
		// Disk-full accepts what fits, then refuses: write half, report
		// ENOSPC — a short write with the errno, like a real full device.
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, ErrNoSpace
	case TornWrite:
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, ErrInjected
	default:
		return 0, ErrInjected
	}
}
