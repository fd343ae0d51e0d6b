package store

import (
	"fmt"
	"io"
	"sync"
)

// ErrInjectedWrite is the failure a FailAfterWriter injects, so tests can
// assert the error path they triggered is the one that surfaced.
var ErrInjectedWrite = fmt.Errorf("store: injected write failure")

// FailAfterWriter wraps an io.Writer and fails every write after a byte
// budget is spent, used to prove that multi-stage writers (segment
// flush, checkpoint) leave existing data intact when the medium dies
// mid-stream. Safe for concurrent use.
type FailAfterWriter struct {
	// Inner receives the bytes that fit the budget.
	Inner io.Writer

	mu        sync.Mutex
	remaining int64
	written   int64
}

// NewFailAfterWriter wraps inner with a budget of n bytes: the first n
// bytes pass through, everything after fails with ErrInjectedWrite.
func NewFailAfterWriter(inner io.Writer, n int64) *FailAfterWriter {
	return &FailAfterWriter{Inner: inner, remaining: n}
}

// Write implements io.Writer. A write that exceeds the remaining budget
// passes the bytes that fit through and fails with ErrInjectedWrite; once
// the budget is spent every write fails outright.
func (w *FailAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.remaining <= 0 {
		return 0, ErrInjectedWrite
	}
	trunc := false
	if int64(len(p)) > w.remaining {
		p = p[:w.remaining]
		trunc = true
	}
	n, err := w.Inner.Write(p)
	w.remaining -= int64(n)
	w.written += int64(n)
	if err == nil && trunc {
		err = ErrInjectedWrite
	}
	return n, err
}

// Written returns the bytes that passed through before the budget ran
// out.
func (w *FailAfterWriter) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}
