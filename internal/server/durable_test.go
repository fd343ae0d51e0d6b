package server

// Durable-mode server tests: a DirSnapshotter-backed server must report
// the write-ahead log in /healthz and /metrics, turn /v1/snapshot/save
// into a checkpoint, and recover every acknowledged write across a reboot
// of the same data directory.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seqrep"
	"seqrep/client"
	"seqrep/internal/store"
)

func durableServer(t *testing.T, dir string) (*Server, *client.Client, *DirSnapshotter) {
	t.Helper()
	snap := &DirSnapshotter{Dir: dir, Config: seqrep.Config{}}
	db, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, cl := testServer(t, Config{DB: db, Snapshotter: snap})
	return srv, cl, snap
}

func TestDurableServerLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, cl, snap := durableServer(t, dir)

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Durable || h.WALRecords != 0 || h.LastCheckpointAgeSeconds != nil {
		t.Fatalf("fresh durable health = %+v", h)
	}

	for i := 0; i < 3; i++ {
		if _, err := cl.Ingest(ctx, feverItem(t, "rec"+string(rune('a'+i)), i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.WALRecords != 3 || h.WALBytes == 0 || h.WALSegments == 0 {
		t.Fatalf("health after 3 ingests = %+v", h)
	}

	// Save runs as a checkpoint: log truncated, operation renamed.
	sr, err := cl.SaveSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Op != "checkpoint" || sr.Sequences != 3 || sr.WALRecords != 0 {
		t.Fatalf("SaveSnapshot = %+v", sr)
	}
	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.WALRecords != 0 || h.LastCheckpointAgeSeconds == nil {
		t.Fatalf("health after checkpoint = %+v", h)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seqserved_wal_records", "seqserved_wal_bytes", "seqserved_wal_segments", "seqserved_wal_syncs_total", "seqserved_last_checkpoint_age_seconds"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Write after the checkpoint, then reboot the directory: both the
	// checkpointed and the logged-only records must come back.
	if _, err := cl.Ingest(ctx, feverItem(t, "late", 7)); err != nil {
		t.Fatal(err)
	}
	if err := srv.DB().Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := snap.Open()
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 4 {
		t.Fatalf("rebooted Len = %d, want 4", db2.Len())
	}
	rec := db2.Recovery()
	if rec.Replayed != 1 || rec.Applied != 1 {
		t.Fatalf("reboot Recovery = %+v; want exactly the post-checkpoint ingest", rec)
	}
}

// TestCheckpointFailureVisibleInProbes: a checkpoint that cannot write
// its segment must answer the save with an error, count and describe
// itself in /healthz and /metrics, and leave the write path untouched —
// ingests keep committing to the WAL while the operator gets paged.
func TestCheckpointFailureVisibleInProbes(t *testing.T) {
	ctx := context.Background()
	srv, cl, _ := durableServer(t, t.TempDir())

	if _, err := cl.Ingest(ctx, feverItem(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	srv.DB().WrapCheckpointWriter(func(w io.Writer) io.Writer {
		return store.NewFailAfterWriter(w, 1)
	})
	if _, err := cl.SaveSnapshot(ctx); err == nil {
		t.Fatal("save with a failing segment writer reported success")
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.CheckpointFailures != 1 || h.LastCheckpointError == "" {
		t.Fatalf("health after failed checkpoint = %+v; want the failure counted and described", h)
	}
	// The log, not the checkpoint, is the durability contract: writes
	// must still commit while checkpoints fail.
	if _, err := cl.Ingest(ctx, feverItem(t, "b", 2)); err != nil {
		t.Fatalf("ingest during checkpoint outage: %v", err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "seqserved_checkpoint_failures_total 1") {
		t.Fatalf("metrics missing the failure counter:\n%s", m)
	}

	// Healing clears the error but not the cumulative counter.
	srv.DB().WrapCheckpointWriter(nil)
	if _, err := cl.SaveSnapshot(ctx); err != nil {
		t.Fatalf("healed save: %v", err)
	}
	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.CheckpointFailures != 1 || h.LastCheckpointError != "" {
		t.Fatalf("health after healed checkpoint = %+v; want counter kept, error cleared", h)
	}
	if h.SegmentCount < 1 || h.SegmentEntries != 2 {
		t.Fatalf("health segment tier = %+v; want both records flushed", h)
	}
}

// TestCheckpointAgeNeverNegative: boot stamps the last checkpoint from
// the manifest's modification time; restore-from-backup or clock skew
// can place that in the future, and the reported age must clamp to zero
// rather than go negative in either probe.
func TestCheckpointAgeNeverNegative(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, cl, snap := durableServer(t, dir)
	if _, err := cl.Ingest(ctx, feverItem(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SaveSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.DB().Close(); err != nil {
		t.Fatal(err)
	}

	future := time.Now().Add(2 * time.Hour)
	manifest := filepath.Join(dir, "segments", "MANIFEST")
	if err := os.Chtimes(manifest, future, future); err != nil {
		t.Fatal(err)
	}
	db2, err := snap.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	_, cl2 := testServer(t, Config{DB: db2, Snapshotter: snap})

	h, err := cl2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.LastCheckpointAgeSeconds == nil {
		t.Fatal("rebooted durable health lost last_checkpoint_age_seconds")
	}
	if *h.LastCheckpointAgeSeconds != 0 {
		t.Fatalf("last_checkpoint_age_seconds = %g; a future checkpoint stamp must clamp to 0", *h.LastCheckpointAgeSeconds)
	}
	m, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "seqserved_last_checkpoint_age_seconds 0\n") {
		t.Fatalf("metrics age not clamped:\n%s", m)
	}
}

func TestHealthNotDurableByDefault(t *testing.T) {
	_, cl := testServer(t, Config{})
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Durable || h.WALRecords != 0 || h.LastCheckpointAgeSeconds != nil {
		t.Fatalf("in-memory health reports durability: %+v", h)
	}
}
