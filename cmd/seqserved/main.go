// Seqserved serves a seqrep sequence database over HTTP/JSON: the full
// query language (including EXPLAIN), worker-pool batch ingestion, record
// CRUD, checkpointing, health and Prometheus metrics — see
// docs/SERVER.md for the endpoint reference and docs/DURABILITY.md for
// the durability contract.
//
// Usage:
//
//	seqserved -addr :8080 -data-dir ./data
//
// The server keeps the representation, not the raw samples: every query
// reads the stored representation, and archiving the originals is the
// client's concern.
//
// With -data-dir, the database is durable: boot recovers the directory's
// on-disk segment tier plus the write-ahead-log tail to the exact
// acknowledged pre-crash state, every write is WAL-appended and fsync'd
// (group commit) before it is acknowledged, and checkpoints — a delta
// segment flush, then log truncation, then threshold compaction — run on
// the -checkpoint-interval timer, on /v1/snapshot/save, and during
// graceful shutdown (see docs/STORAGE.md). Failed checkpoints are logged
// and surface in /healthz (checkpoint_failures, last_checkpoint_error)
// and /metrics (seqserved_checkpoint_failures_total) so unbounded log
// growth cannot go unnoticed. On SIGINT/SIGTERM the server stops
// accepting connections, drains in-flight requests (up to
// -drain-timeout, force-closing stragglers), then checkpoints and
// closes the log — the final checkpoint never races live traffic.
//
// With -memory-budget, a durable server serves datasets larger than
// RAM: record payloads beyond the budget are evicted (coldest first)
// and paged back in from the segment tier on demand; dirty records stay
// pinned resident until a checkpoint makes them durable. /healthz and
// /metrics report resident_records, resident_bytes, evictions and cold
// hits (see docs/STORAGE.md "Residency & paging").
//
// Overload and fault behavior (docs/RELIABILITY.md): admission control
// bounds concurrent work (-admission-limit, -admission-queue) and sheds
// overflow with 429 + Retry-After; a storage fault flips the database
// into read-only degraded mode (writes 503, reads keep serving) and a
// supervised probe (-probe-interval) restores write service when the
// disk recovers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seqrep"
	"seqrep/internal/server"
)

// armFaults arms the injected storage faults the chaos flags ask for. It
// is nil unless the binary is built with -tags chaos (chaos.go).
var armFaults func(*seqrep.DB)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "seqserved: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataDir  = flag.String("data-dir", "", "durable data directory (on-disk segments + write-ahead log): recovered at boot, WAL-appended on every write, checkpointed on the timer, on /v1/snapshot/save and at shutdown (empty = in-memory only)")
		ckptIvl  = flag.Duration("checkpoint-interval", 5*time.Minute, "background checkpoint period for -data-dir (0 disables the timer; checkpoints still run on /v1/snapshot/save and shutdown)")
		compact  = flag.Int("compact-threshold", 0, "segment count at which a checkpoint compacts the on-disk tier (0 = default 8, negative disables compaction)")
		_        = flag.Int64("segment-cache", 0, "ignored: the segment tier keeps no payload cache, and -memory-budget bounds the one payload cache")
		memBudg  = flag.Int64("memory-budget", 0, "resident record-payload byte budget for -data-dir servers: cold payloads are evicted to the segment tier and paged back in on demand (<= 0 keeps every record fully resident)")
		epsilon  = flag.Float64("epsilon", 0, "breaking tolerance for a new database (0 = default 0.5)")
		delta    = flag.Float64("delta", 0, "slope threshold for a new database (0 = default 0.25)")
		bucket   = flag.Float64("bucket", 0, "interval-index bucket width for a new database (0 = default 1)")
		shards   = flag.Int("shards", 0, "record shard count (0 = default 16)")
		workers  = flag.Int("workers", 0, "ingest/query worker pool size (0 = GOMAXPROCS)")
		coeffs   = flag.Int("coeffs", 0, "DFT coefficients in the query-planner feature index (0 = default 8, negative disables)")
		leaf     = flag.Int("leaf", 0, "vantage-point-tree leaf size in the feature index (0 = default 16, negative pins candidate generation to the linear feature scan)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty disables)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = default 256, negative disables)")
		maxBody  = flag.Int64("max-body", 0, "request body cap in bytes (0 = default 32MiB, negative disables)")
		queryTO  = flag.Duration("query-timeout", 0, "per-statement execution cap for /v1/query and /v1/query/stream (0 disables; exceeded queries answer 504 / an error frame)")
		queryLim = flag.Int("query-limit", 0, "server-wide cap on results per statement (0 disables; capped answers report stats.truncated)")
		drainTO  = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain timeout: in-flight requests get this long to finish before their connections are force-closed and the final checkpoint runs")
		readTO   = flag.Duration("read-timeout", time.Minute, "per-request read timeout (headers + body; 0 disables)")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout (0 disables)")
		admitLim = flag.Int("admission-limit", 0, "weighted admission-control concurrency budget: queries cost more slots than ingests, overflow queues then sheds with 429 + Retry-After (0 = default 64, negative disables)")
		admitQ   = flag.Int("admission-queue", 0, "bounded admission wait-queue weight beyond the concurrency budget (0 = default 256, negative disables queuing)")
		ckptFail = flag.Int("checkpoint-fail-limit", 0, "consecutive checkpoint failures at which /healthz reports unhealthy with 503 (0 = default 3, negative disables)")
		probeIvl = flag.Duration("probe-interval", 0, "storage-recovery probe period while degraded: each tick tests the write path and restores write service when the disk recovers (0 = default 2s, negative disables)")
	)
	flag.Parse()

	cfg := seqrep.Config{
		Epsilon:               *epsilon,
		Delta:                 *delta,
		BucketWidth:           *bucket,
		Shards:                *shards,
		Workers:               *workers,
		IndexCoeffs:           *coeffs,
		IndexLeaf:             *leaf,
		CompactThreshold:      *compact,
		MemoryBudget:          *memBudg,
		RecoveryProbeInterval: *probeIvl,
	}

	var (
		db   *seqrep.DB
		snap *server.DirSnapshotter
		err  error
	)
	if *dataDir != "" {
		snap = &server.DirSnapshotter{Dir: *dataDir, Config: cfg}
		db, err = snap.Open()
		if err != nil {
			return fmt.Errorf("opening data dir: %w", err)
		}
		rec := db.Recovery()
		log.Printf("recovered %s: %d sequences (wal replayed %d records: %d applied, %d covered by segments, %d failed)",
			*dataDir, db.Len(), rec.Replayed, rec.Applied, rec.SkippedDuplicate+rec.SkippedMissing, rec.Failed)
	} else {
		db, err = seqrep.New(cfg)
		if err != nil {
			return err
		}
	}
	defer db.Close()

	if armFaults != nil {
		armFaults(db)
	}

	srvCfg := server.Config{
		DB:                  db,
		CacheSize:           *cache,
		MaxBodyBytes:        *maxBody,
		QueryTimeout:        *queryTO,
		QueryLimit:          *queryLim,
		AdmissionLimit:      *admitLim,
		AdmissionQueue:      *admitQ,
		CheckpointFailLimit: *ckptFail,
	}
	if snap != nil {
		srvCfg.Snapshotter = snap
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return err
	}

	// Background checkpoints bound the log replay a crash would cost.
	// The loop stops with the process; a checkpoint racing shutdown's
	// final checkpoint is safe (they serialize inside the engine).
	if snap != nil && *ckptIvl > 0 {
		ticker := time.NewTicker(*ckptIvl)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := srv.Snapshot(); err != nil {
					log.Printf("background checkpoint: %v", err)
				} else if st, ok := srv.DB().WALStats(); ok {
					log.Printf("checkpoint complete: %d sequences, wal depth %d records", srv.DB().Len(), st.Records)
				}
			}
		}()
	}

	// ReadTimeout covers the body too (a slow-body client cannot pin a
	// goroutine past it), IdleTimeout reaps parked keep-alives;
	// WriteTimeout stays off so long-running queries can stream their
	// answer.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
	}

	// The profiling endpoint listens on its own address so it is never
	// exposed on the serving port; it shares nothing with the API mux.
	if *pprofA != "" {
		dbgMux := http.NewServeMux()
		dbgMux.HandleFunc("/debug/pprof/", pprof.Index)
		dbgMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbgMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbgMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbgMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofA)
			if err := http.ListenAndServe(*pprofA, dbgMux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("received %s, draining (timeout %s)", sig, *drainTO)
	}

	// Shutdown closes the listener immediately (no new connections) and
	// waits for in-flight requests; on timeout, Close force-drops the
	// stragglers. Either way nothing is accepting or in flight by the
	// time the final checkpoint runs — it never races live writes.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete, force-closing connections: %v", err)
		httpSrv.Close()
	}
	if snap != nil {
		// Every acknowledged write is already WAL-durable; the final
		// checkpoint just makes the next boot replay-free.
		if err := srv.Snapshot(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		log.Printf("checkpoint saved to %s (%d sequences)", *dataDir, srv.DB().Len())
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
