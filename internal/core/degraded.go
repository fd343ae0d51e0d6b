package core

import (
	"fmt"
	"time"
)

// Storage-fault read-only mode (docs/RELIABILITY.md). A write-ahead-log
// append or fsync error means the log's on-disk tail — and, per the
// fsyncgate lesson, the page cache behind it — can no longer be
// trusted, so no further write may be acknowledged. Instead of
// surfacing that as an endless stream of per-request storage errors
// while the process keeps accepting writes it cannot make durable, the
// database transitions to an explicit degraded state:
//
//	healthy --wal fault--> degraded --probe succeeds--> healthy
//
// While degraded, Ingest/Remove fail fast with ErrDegraded (the serving
// layer answers 503 so load balancers drain the node), reads and stats
// keep serving, and a supervised probe loop re-tests the disk every
// Config.RecoveryProbeInterval: a scratch append+fsync in the log
// directory (wal.Probe), then a rescan-and-reopen of the log's active
// segment (wal.Reset) that discards only never-acknowledged tail bytes.
// When both succeed the database re-enters write service by itself.
// Only the directory-backed storage has a log, so only it degrades.

// DegradedStatus describes the storage-fault read-only state for health
// reporting.
type DegradedStatus struct {
	// Degraded reports that writes are currently disabled.
	Degraded bool
	// Cause is the storage fault that triggered the current episode
	// (empty when healthy).
	Cause string
	// Since is when the current episode began (zero when healthy).
	Since time.Time
	// Transitions counts entries into degraded mode since boot.
	Transitions uint64
	// Recoveries counts successful returns to write service since boot.
	Recoveries uint64
}

func (d *dirStore) degradedStatus() DegradedStatus {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	return d.deg
}

func (d *dirStore) writable() error {
	if !d.degraded.Load() {
		return nil
	}
	return fmt.Errorf("core: %w (%s)", ErrDegraded, d.degradedStatus().Cause)
}

// enterDegraded transitions the database into read-only mode (idempotent
// while an episode is running) and, unless the probe is disabled, starts
// the supervised recovery loop for this episode. The episode is described
// before the flag flips, so a writer that sees the flag finds its cause.
func (d *dirStore) enterDegraded(cause error) {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	if d.deg.Degraded {
		return
	}
	d.deg.Degraded, d.deg.Cause, d.deg.Since = true, cause.Error(), time.Now()
	d.deg.Transitions++
	d.degraded.Store(true)
	if d.db.cfg.RecoveryProbeInterval > 0 {
		d.probeWG.Add(1)
		go d.probeLoop()
	}
}

// probeLoop retries tryRecover every RecoveryProbeInterval until the
// disk comes back or the database closes. One loop runs per degraded
// episode.
func (d *dirStore) probeLoop() {
	defer d.probeWG.Done()
	ticker := time.NewTicker(d.db.cfg.RecoveryProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.probeStop:
			return
		case <-ticker.C:
			if d.tryRecover() == nil && !d.degraded.Load() {
				return
			}
		}
	}
}

// tryRecover is DB.Recover: probe the disk, reset the log, clear the
// degraded state. A no-op while healthy.
func (d *dirStore) tryRecover() error {
	if !d.degraded.Load() {
		return nil
	}
	if err := d.wal.Probe(); err != nil {
		return fmt.Errorf("core: recovery probe: %w", err)
	}
	if err := d.wal.Reset(); err != nil {
		return fmt.Errorf("core: recovery reset: %w", err)
	}
	// Order matters: the log accepts appends before degraded clears, so
	// a writer that observes the healthy state always finds a working
	// log.
	d.healthMu.Lock()
	d.deg.Degraded, d.deg.Cause, d.deg.Since = false, "", time.Time{}
	d.deg.Recoveries++
	d.degraded.Store(false)
	d.healthMu.Unlock()
	return nil
}

func (d *dirStore) setWALFault(write, sync func() error) { d.wal.SetFault(write, sync) }

// stopProbe halts the supervised recovery loop, if one is running; part
// of close.
func (d *dirStore) stopProbe() {
	d.probeHalt.Do(func() { close(d.probeStop) })
	d.probeWG.Wait()
}
