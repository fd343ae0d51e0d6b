//go:build chaos

package main

// The chaos flags arm a one-shot fsync fault window in the write-ahead
// log, so the reliability end-to-end suite can watch a real process
// degrade and recover, or kill it mid-episode. Only a binary built with
// -tags chaos has them.

import (
	"flag"
	"log"

	"seqrep"
	"seqrep/internal/chaos"
)

func init() {
	after := flag.Int64("chaos-wal-fail-after", 0, "number of WAL syncs that succeed before injected failures begin (with -chaos-wal-fail-count)")
	count := flag.Int64("chaos-wal-fail-count", 0, "number of injected WAL sync failures; after the window the fault heals (negative = fail forever)")
	armFaults = func(db *seqrep.DB) {
		if *count == 0 {
			return
		}
		f := &chaos.Fault{Kind: chaos.DiskError, After: *after, Count: *count}
		db.SetWALFault(nil, f.Hook())
		log.Printf("CHAOS: wal sync faults armed after %d syncs for %d failures", *after, *count)
	}
}
