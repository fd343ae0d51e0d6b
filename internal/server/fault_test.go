package server

// Fault injection on the checkpoint path: /v1/snapshot/save runs against
// a segment writer that dies mid-stream (store.FailAfterWriter) while
// ingest traffic is in flight. The save must fail loudly (500) — and nothing else: the server
// keeps serving, the committed segment tier is byte-identical, no temp
// litter remains, and a reboot still recovers every acknowledged write.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"seqrep/internal/store"
)

// readTier returns the segment tier's files by name.
func readTier(t *testing.T, dataDir string) map[string]string {
	t.Helper()
	dir := filepath.Join(dataDir, "segments")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestSnapshotFaultInjectionUnderLoad(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, c, snap := durableServer(t, dir)
	var failing atomic.Bool
	srv.DB().WrapCheckpointWriter(func(w io.Writer) io.Writer {
		if failing.Load() {
			return store.NewFailAfterWriter(w, 64)
		}
		return w
	})

	for i := 0; i < 4; i++ {
		if _, err := c.Ingest(ctx, feverItem(t, fmt.Sprintf("keep-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SaveSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	good := readTier(t, dir)

	// Ingest load runs while the failing save is attempted.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("load-%d", i)
			if _, err := c.Ingest(ctx, feverItem(t, id, i)); err != nil {
				t.Errorf("background ingest: %v", err)
				return
			}
			if _, err := c.Remove(ctx, id); err != nil {
				t.Errorf("background remove: %v", err)
				return
			}
		}
	}()

	// One more acknowledged write that only the failing checkpoint would
	// have flushed: it must survive in the log.
	if _, err := c.Ingest(ctx, feverItem(t, "late", 9)); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	_, saveErr := c.SaveSnapshot(ctx)
	failing.Store(false)
	close(stop)
	wg.Wait()

	if saveErr == nil {
		t.Fatal("save over a dying writer reported success")
	}
	if ae := apiErr(t, saveErr); ae.StatusCode != 500 || !strings.Contains(ae.Message, "injected") {
		t.Fatalf("failing save = %v, want a 500 carrying the injected error", saveErr)
	}

	// The server is still serving (the failure shows in /healthz, but one
	// failed checkpoint is below the unhealthy streak).
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sequences != 5 || h.CheckpointFailures != 1 {
		t.Fatalf("health after failed save = %+v", h)
	}
	if _, err := c.Query(ctx, `MATCH PEAKS 2`); err != nil {
		t.Fatalf("query after failed save: %v", err)
	}

	// The committed tier is byte-identical and free of temp litter.
	if after := readTier(t, dir); len(after) != len(good) {
		t.Fatalf("segment dir litter after failed save: %d files, want %d", len(after), len(good))
	} else {
		for name, want := range good {
			if after[name] != want {
				t.Fatalf("failed save altered committed file %s", name)
			}
		}
	}

	// With the fault gone, saving works again — and whether or not it
	// had, a reboot holds every acknowledged write.
	if _, err := c.SaveSnapshot(ctx); err != nil {
		t.Fatalf("save after clearing the fault: %v", err)
	}
	if err := srv.DB().Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := snap.Open()
	if err != nil {
		t.Fatalf("reboot after the fault episode: %v", err)
	}
	defer restored.Close()
	if _, ok := restored.Record("late"); !ok || restored.Len() != 5 {
		t.Fatalf("reboot holds %d sequences (late present: %v), want all 5", restored.Len(), ok)
	}
}
