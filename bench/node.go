package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqrep"
	"seqrep/internal/server"
)

// node is the server under test. procNode runs the real seqserved binary
// as a child process; localNode serves the same handler in-process so the
// smoke test needs no binary.
type node interface {
	// Start boots the server on the data directory and returns once
	// /healthz answers 200.
	Start() error
	URL() string
	// Crash stops the server without letting it flush or checkpoint and
	// waits until it is gone.
	Crash() error
	// Stop shuts the server down gracefully and waits until it is gone.
	Stop() error
	// PeakRSSMiB is the server's peak resident set; 0 when unknown.
	PeakRSSMiB() float64
}

// childSet remembers every child process this program has running, so
// that a signal handler can kill them all.
type childSet struct {
	mu    sync.Mutex
	procs map[*os.Process]bool
}

var children = childSet{procs: map[*os.Process]bool{}}

func (c *childSet) add(p *os.Process) {
	c.mu.Lock()
	c.procs[p] = true
	c.mu.Unlock()
}

func (c *childSet) remove(p *os.Process) {
	c.mu.Lock()
	delete(c.procs, p)
	c.mu.Unlock()
}

func (c *childSet) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.procs {
		_ = p.Kill() // already gone is fine
	}
}

// procNode is a seqserved child process.
type procNode struct {
	bin     string
	dataDir string
	flags   []string
	logPath string

	cmd  *exec.Cmd
	logf *os.File
	url  string
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *procNode) Start() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p.url = "http://" + addr
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	args := append([]string{"-addr", addr, "-data-dir", p.dataDir, "-checkpoint-interval", "0"}, p.flags...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", p.bin, err)
	}
	p.cmd, p.logf = cmd, logf
	children.add(cmd.Process)
	p.done = make(chan error, 1)
	go func() {
		err := cmd.Wait()
		children.remove(cmd.Process)
		p.done <- err
	}()
	if err := waitHealthy(p.url, p.done); err != nil {
		p.reap()
		return err
	}
	return nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// twenty seconds pass.
func waitHealthy(url string, exited <-chan error) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return fmt.Errorf("server exited before becoming healthy: %v", err)
		default:
		}
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server not healthy within 20s")
}

func (p *procNode) URL() string { return p.url }

// reap kills the child if it still runs and waits for it.
func (p *procNode) reap() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
	p.logf.Close()
	p.cmd = nil
}

func (p *procNode) Crash() error {
	if p.cmd == nil {
		return errors.New("server not running")
	}
	p.reap()
	return nil
}

func (p *procNode) Stop() error {
	if p.cmd == nil {
		return nil
	}
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		p.reap()
		return err
	}
	select {
	case <-p.done:
		p.logf.Close()
		p.cmd = nil
		return nil
	case <-time.After(20 * time.Second):
		p.reap()
		return errors.New("server did not stop within 20s; killed")
	}
}

func (p *procNode) PeakRSSMiB() float64 {
	if p.cmd == nil {
		return 0
	}
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// localNode serves the handler in-process over the same kind of durable
// directory. Crash closes the listener and drops the database without a
// checkpoint, which is as abrupt as an in-process server can be.
type localNode struct {
	dataDir string
	cfg     seqrep.Config
	db      *seqrep.DB
	ts      *httptest.Server
}

func (l *localNode) Start() error {
	snap := &server.DirSnapshotter{Dir: l.dataDir, Config: l.cfg}
	db, err := snap.Open()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{DB: db, Snapshotter: snap})
	if err != nil {
		db.Close()
		return err
	}
	l.db, l.ts = db, httptest.NewServer(srv.Handler())
	return nil
}

func (l *localNode) URL() string { return l.ts.URL }

func (l *localNode) Crash() error { return l.Stop() }

func (l *localNode) Stop() error {
	if l.ts == nil {
		return nil
	}
	l.ts.Close()
	l.ts = nil
	return l.db.Close()
}

func (l *localNode) PeakRSSMiB() float64 { return 0 }

// activeWAL returns the path and size of the newest write-ahead-log file
// under the data directory.
func activeWAL(dataDir string) (string, int64, error) {
	names, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.log"))
	if err != nil || len(names) == 0 {
		return "", 0, fmt.Errorf("no wal file under %s: %v", dataDir, err)
	}
	sort.Strings(names) // fixed-width hex base LSN: lexical order is LSN order
	last := names[len(names)-1]
	info, err := os.Stat(last)
	if err != nil {
		return "", 0, err
	}
	return last, info.Size(), nil
}
