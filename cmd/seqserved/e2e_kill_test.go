package main

// Kill -9 end-to-end test of the durable write path: a real seqserved
// process ingesting under concurrent load is SIGKILLed mid-flight —
// no drain, no final checkpoint, a torn WAL tail likely — and a second
// process booting the same data directory must still hold every write
// the first one acknowledged. This is the contract docs/DURABILITY.md
// states, tested at the outermost layer; CI runs it in the
// fault-injection job.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"seqrep/api"
	"seqrep/client"
)

// buildServer compiles the seqserved binary once per test run, with the
// given build tags.
func buildServer(t *testing.T, tags ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "seqserved")
	cmd := exec.Command("go", "build", "-tags", strings.Join(tags, ","), "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building seqserved: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, cl *client.Client, timeout time.Duration) *api.HealthResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := cl.Health(ctx)
		cancel()
		if err == nil {
			return h
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server did not become healthy in time")
	return nil
}

// killSeq renders a small two-bump curve; varying i keeps items distinct.
func killSeq(i int) []float64 {
	vals := make([]float64, 40)
	for j := range vals {
		d1 := float64(j - 8 - i%5)
		d2 := float64(j - 28 + i%7)
		vals[j] = 98 + 2.2/(1+d1*d1) + 1.4/(1+d2*d2)
	}
	return vals
}

func TestKillNineLosesNoAcknowledgedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real server process")
	}
	bin := buildServer(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)
	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-data-dir", dataDir,
			"-checkpoint-interval", "300ms", // checkpoints race the load on purpose
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting seqserved: %v", err)
		}
		return cmd
	}

	cmd := start()
	defer cmd.Process.Kill()
	cl := client.New("http://" + addr)
	waitHealthy(t, cl, 10*time.Second)

	// Ingest under concurrent load until the process is shot. Only
	// writes whose HTTP response arrived count as acknowledged; a write
	// cut down mid-request may or may not have landed (the server can
	// have committed it but lost the response — recovery keeping it is
	// fine, we only assert nothing acknowledged is missing).
	const writers = 4
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []string
	)
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d-%d", g, i)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := cl.Ingest(ctx, api.IngestRequest{ID: id, Values: killSeq(g*1000 + i)})
				cancel()
				if err != nil {
					return // the kill landed; in-flight write unacknowledged
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(g)
	}

	// Let the load overlap at least one background checkpoint, then
	// shoot the process with no warning.
	time.Sleep(700 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	close(stop)
	wg.Wait()
	cmd.Wait()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before the kill; the test proved nothing")
	}
	t.Logf("killed server with %d acknowledged writes", len(acked))

	// Reboot the directory: every acknowledged write must be there.
	cmd2 := start()
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	h := waitHealthy(t, cl, 20*time.Second)
	if !h.Durable {
		t.Fatal("rebooted server does not report durable mode")
	}
	if h.Sequences < len(acked) {
		t.Fatalf("rebooted server holds %d sequences, fewer than the %d acknowledged", h.Sequences, len(acked))
	}
	ctx := context.Background()
	for _, id := range acked {
		if _, err := cl.Record(ctx, id); err != nil {
			t.Errorf("acknowledged %s lost across kill -9: %v", id, err)
		}
	}
}

// TestSIGKILLWhileDegradedLosesNoAcknowledgedWrite is the kill-9 test's
// evil twin: the server's disk "fails" mid-service (an injected WAL
// sync fault armed by the flags of a -tags chaos build), the database
// degrades to read-only — and THEN the process is SIGKILLed,
// mid-episode, with no drain. The reboot, on a healthy disk, must hold
// every write the degraded server acknowledged before the fault and must
// be fully healthy. Writes rejected during the window may reappear (a
// failed fsync leaves the page cache unknowable — docs/RELIABILITY.md)
// but none of them was ever acknowledged, so nothing acknowledged is
// lost.
func TestSIGKILLWhileDegradedLosesNoAcknowledgedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real server process")
	}
	bin := buildServer(t, "chaos")
	dataDir := t.TempDir()
	addr := freeAddr(t)

	// First life: the WAL's 6th sync and every one after it fails.
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-chaos-wal-fail-after", "5",
		"-chaos-wal-fail-count", "-1",
		"-probe-interval", "-1s", // the disk never heals in this life
	)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting seqserved: %v", err)
	}
	defer cmd.Process.Kill()

	// No client-side retries: every response code is observed raw.
	cl := client.New("http://"+addr, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: -1}))
	waitHealthy(t, cl, 10*time.Second)

	// Write until the fault bites. Sequential ingests sync one frame
	// each, so acknowledgements stop at the armed boundary.
	ctx := context.Background()
	var acked []string
	degradedAt := -1
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("pre-%d", i)
		_, err := cl.Ingest(ctx, api.IngestRequest{ID: id, Values: killSeq(i)})
		if err == nil {
			acked = append(acked, id)
			continue
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || !ae.IsUnavailable() {
			t.Fatalf("ingest %d failed outside the degraded contract: %v", i, err)
		}
		degradedAt = i
		break
	}
	if degradedAt < 0 {
		t.Fatalf("20 ingests all succeeded; the chaos fault never fired")
	}
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged before the fault; the test proved nothing")
	}
	t.Logf("degraded after %d acknowledged writes", len(acked))

	// The degraded window: every write answers 503 — never a 2xx ack the
	// disk cannot honor, never a hang.
	for i := 0; i < 5; i++ {
		_, err := cl.Ingest(ctx, api.IngestRequest{ID: fmt.Sprintf("doomed-%d", i), Values: killSeq(i)})
		var ae *client.APIError
		if !errors.As(err, &ae) || !ae.IsUnavailable() {
			t.Fatalf("degraded write %d = %v, want 503", i, err)
		}
	}
	// Health tells the truth, and reads keep serving.
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("health while degraded: %v", err)
	}
	if !h.Degraded || h.Status != "degraded" {
		t.Fatalf("degraded health = %+v", h)
	}
	if _, err := cl.Record(ctx, acked[0]); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// Shoot the degraded process. No drain, no checkpoint.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait()

	// Second life: healthy disk. Everything acknowledged must be there
	// and write service must be fully restored.
	cmd2 := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd2.Stdout, cmd2.Stderr = os.Stderr, os.Stderr
	if err := cmd2.Start(); err != nil {
		t.Fatalf("restarting seqserved: %v", err)
	}
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	h = waitHealthy(t, cl, 20*time.Second)
	if h.Degraded || h.Status != "ok" {
		t.Fatalf("rebooted health = %+v, want ok", h)
	}
	for _, id := range acked {
		if _, err := cl.Record(ctx, id); err != nil {
			t.Errorf("acknowledged %s lost across degraded kill -9: %v", id, err)
		}
	}
	if _, err := cl.Ingest(ctx, api.IngestRequest{ID: "post-reboot", Values: killSeq(99)}); err != nil {
		t.Fatalf("write after reboot: %v", err)
	}
}
