package chaos

// The fault plan: every write site in the storage stack — the
// write-ahead log's frame write and its fsync and the checkpoint's
// segment writer — plus the cold-read site, crossed with every failure
// kind the site can express. Each cell asserts the same three
// invariants:
//
//  1. No acknowledged write is ever lost: after the fault (and a
//     reboot), every id that was acknowledged is present and every id
//     that errored is absent or explicitly unacknowledged.
//  2. Faults map to honest error classes: log faults degrade the
//     database (ErrDegraded, the 503 family), cold-read faults are
//     storage errors (ErrStorage, 500) and segment-writer faults plain
//     checkpoint failures — never a silent success, never a corrupted
//     read.
//  3. The state machine tells the truth: DegradedStatus reflects
//     exactly the episodes that happened, and service recovers once
//     the fault clears.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"seqrep"
)

func chaosSeq(seed int) seqrep.Sequence {
	vals := make([]float64, 48)
	for i := range vals {
		v := 100.0 + 0.1*float64(seed%7)
		v += 2.5 * math.Exp(-math.Pow(float64(i)-12, 2)/8)
		v += 1.5 * math.Exp(-math.Pow(float64(i)-34, 2)/6)
		vals[i] = v
	}
	return seqrep.NewSequence(vals)
}

func openChaosDB(t *testing.T, dir string) *seqrep.DB {
	t.Helper()
	db, err := seqrep.OpenDir(dir, seqrep.Config{RecoveryProbeInterval: -1})
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db
}

// rebootAsserts closes db, reopens the directory, and verifies exactly
// the acknowledged ids survive. lost ids must NOT have been resurrected
// as acknowledged state they never earned — but a sync-site fault may
// leave their bytes on disk (the fsync outcome was unknowable), so
// allowLost tolerates their presence without requiring it.
func rebootAsserts(t *testing.T, db *seqrep.DB, dir string, acked, lost []string, allowLost bool) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2 := openChaosDB(t, dir)
	defer db2.Close()
	for _, id := range acked {
		if _, ok := db2.Record(id); !ok {
			t.Fatalf("acknowledged %q lost across reboot", id)
		}
	}
	if !allowLost {
		for _, id := range lost {
			if _, ok := db2.Record(id); ok {
				t.Fatalf("unacknowledged %q resurrected across reboot", id)
			}
		}
	}
}

// faultArms are the two shapes of write a log fault can hit: a single
// Ingest, and an IngestBatch whose items share one group commit.
var faultArms = []struct {
	name string
	ids  []string
}{
	{"single", []string{"during"}},
	{"batch", []string{"during-0", "during-1", "during-2", "during-3", "during-4"}},
}

// ingestDuring writes ids (chaosSeq from seed on) as one Ingest when
// there is one and as one IngestBatch otherwise, and returns each id's
// error.
func ingestDuring(db *seqrep.DB, ids []string, seed int) []error {
	if len(ids) == 1 {
		return []error{db.Ingest(ids[0], chaosSeq(seed))}
	}
	items := make([]seqrep.BatchItem, len(ids))
	for i, id := range ids {
		items[i] = seqrep.BatchItem{ID: id, Seq: chaosSeq(seed + i)}
	}
	errs := make([]error, len(ids))
	_, itemErrs := db.IngestBatchItems(items)
	for _, ie := range itemErrs {
		errs[ie.Index] = ie.Err
	}
	return errs
}

// assertInvisible fails when any of ids shows in Record, IDs or a query
// answer.
func assertInvisible(t *testing.T, db *seqrep.DB, ids []string) {
	t.Helper()
	var answered []string
	answered = append(answered, db.IDs()...)
	matched, err := db.MatchPattern("[UDF]*")
	if err != nil {
		t.Fatal(err)
	}
	answered = append(answered, matched...)
	near, err := db.ValueQuery(chaosSeq(0), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range near {
		answered = append(answered, m.ID)
	}
	for _, id := range ids {
		if _, ok := db.Record(id); ok {
			t.Fatalf("unacknowledged %q visible in Record", id)
		}
		if slices.Contains(answered, id) {
			t.Fatalf("unacknowledged %q visible in IDs or a query answer", id)
		}
	}
}

// TestWALWriteSiteFaults walks the log's frame-write hook. A write
// fault means no bytes reached the device, so failed ids must stay gone
// forever. Each kind runs a single ingest and a batch.
func TestWALWriteSiteFaults(t *testing.T) {
	for _, kind := range []Kind{DiskError, NoSpace, SlowWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, arm := range faultArms {
				t.Run(arm.name, func(t *testing.T) { walWriteSiteFault(t, kind, arm.ids) })
			}
		})
	}
}

func walWriteSiteFault(t *testing.T, kind Kind, during []string) {
	dir := t.TempDir()
	db := openChaosDB(t, dir)
	defer db.Close()
	var acked, lost []string
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("pre-%d", i)
		if err := db.Ingest(id, chaosSeq(i)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}

	f := &Fault{Kind: kind, Count: -1}
	db.SetWALFault(f.Hook(), nil)
	errs := ingestDuring(db, during, 9)
	if kind == SlowWrite {
		// A slow disk is not a failed disk: the write must succeed
		// and the database must NOT degrade.
		for i, err := range errs {
			if err != nil {
				t.Fatalf("slow write of %s failed: %v", during[i], err)
			}
		}
		acked = append(acked, during...)
		if db.DegradedStatus().Degraded {
			t.Fatal("slow write degraded the database")
		}
	} else {
		for i, err := range errs {
			if !errors.Is(err, seqrep.ErrDegraded) {
				t.Fatalf("ingest of %s under %s = %v, want ErrDegraded", during[i], kind, err)
			}
		}
		lost = append(lost, during...)
		st := db.DegradedStatus()
		if !st.Degraded || st.Transitions != 1 {
			t.Fatalf("DegradedStatus = %+v", st)
		}
		// Reads serve throughout, and show nothing of the failed write.
		if _, ok := db.Record("pre-0"); !ok {
			t.Fatal("read failed while degraded")
		}
		assertInvisible(t, db, during)
		// Heal, recover, write again.
		f.Clear()
		if err := db.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if err := db.Ingest("after", chaosSeq(10)); err != nil {
			t.Fatalf("ingest after recovery: %v", err)
		}
		acked = append(acked, "after")
		if len(during) > 1 {
			// The failed batch released its reservations: the same ids
			// ingest now.
			for i, err := range ingestDuring(db, during, 9) {
				if err != nil {
					t.Fatalf("re-ingest of %s after recovery: %v", during[i], err)
				}
			}
			acked, lost = append(acked, during...), nil
		}
	}
	if f.Trips() == 0 {
		t.Fatal("fault never fired")
	}
	rebootAsserts(t, db, dir, acked, lost, false)
}

// TestWALSyncSiteFaults walks the log's fsync hook. The fsyncgate
// semantics: after a failed fsync the page cache is unknowable, so the
// write is unacknowledged — but its bytes may still be on disk, and may
// legitimately reappear after recovery. Each kind runs a single ingest
// and a batch.
func TestWALSyncSiteFaults(t *testing.T) {
	for _, kind := range []Kind{DiskError, NoSpace} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, arm := range faultArms {
				t.Run(arm.name, func(t *testing.T) { walSyncSiteFault(t, kind, arm.ids) })
			}
		})
	}
}

func walSyncSiteFault(t *testing.T, kind Kind, during []string) {
	dir := t.TempDir()
	db := openChaosDB(t, dir)
	defer db.Close()
	if err := db.Ingest("pre", chaosSeq(1)); err != nil {
		t.Fatal(err)
	}
	f := &Fault{Kind: kind, Count: -1}
	db.SetWALFault(nil, f.Hook())
	for i, err := range ingestDuring(db, during, 2) {
		if !errors.Is(err, seqrep.ErrDegraded) {
			t.Fatalf("ingest of %s under %s = %v, want ErrDegraded", during[i], kind, err)
		}
	}
	assertInvisible(t, db, during)
	f.Clear()
	if err := db.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := db.Ingest("after", chaosSeq(3)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	acked, lost := []string{"pre", "after"}, during
	if len(during) > 1 {
		for i, err := range ingestDuring(db, during, 2) {
			if err != nil {
				t.Fatalf("re-ingest of %s after recovery: %v", during[i], err)
			}
		}
		acked, lost = append(acked, during...), nil
	}
	rebootAsserts(t, db, dir, acked, lost, true)
}

// TestCheckpointWriterSiteFaults walks the checkpoint's segment writer.
// A failed checkpoint must not lose anything (the log still covers the
// dirty records), must not degrade write service, and must succeed once
// the fault clears.
func TestCheckpointWriterSiteFaults(t *testing.T) {
	for _, kind := range []Kind{DiskError, NoSpace, TornWrite, SlowWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := openChaosDB(t, dir)
			defer db.Close()
			var acked []string
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("r-%d", i)
				if err := db.Ingest(id, chaosSeq(i)); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			f := &Fault{Kind: kind, Count: -1}
			db.WrapCheckpointWriter(f.WrapWriter())
			err := db.Checkpoint()
			if kind == SlowWrite {
				if err != nil {
					t.Fatalf("slow checkpoint failed: %v", err)
				}
			} else if err == nil {
				t.Fatalf("checkpoint under %s succeeded", kind)
			}
			if db.DegradedStatus().Degraded {
				t.Fatalf("checkpoint fault (%s) degraded the database: the log is fine", kind)
			}
			// Writes keep working through a failed checkpoint.
			if err := db.Ingest("after", chaosSeq(9)); err != nil {
				t.Fatalf("ingest after failed checkpoint: %v", err)
			}
			acked = append(acked, "after")
			f.Clear()
			db.WrapCheckpointWriter(nil)
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after fault cleared: %v", err)
			}
			rebootAsserts(t, db, dir, acked, nil, false)
		})
	}
}

// TestColdReadSiteFaults walks the residency subsystem's cold-read site:
// the segment tier's point lookup behind DB.SetSegmentReadFault, hit
// when a query pages an evicted payload back in. The contract differs
// from every write site — a read fault is query-scoped. It surfaces as
// ErrStorage to that caller, never degrades the database (the log is
// fine), never loses a record, and never disturbs the resident set; a
// SlowWrite (stalling pread) must simply succeed late.
func TestColdReadSiteFaults(t *testing.T) {
	for _, kind := range []Kind{DiskError, SlowWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := seqrep.OpenDir(dir, seqrep.Config{RecoveryProbeInterval: -1, MemoryBudget: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var acked []string
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("pre-%d", i)
				if err := db.Ingest(id, chaosSeq(i)); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			// The checkpoint makes every payload durable; the 1-byte
			// budget evicts them all, so the next read must page in.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			f := &Fault{Kind: kind, Count: 1}
			db.SetSegmentReadFault(f.Hook())
			_, err = db.Representation("pre-0")
			if kind == SlowWrite {
				if err != nil {
					t.Fatalf("stalled cold read failed: %v", err)
				}
			} else {
				if !errors.Is(err, seqrep.ErrStorage) {
					t.Fatalf("cold read under %s = %v, want ErrStorage", kind, err)
				}
				// Query-scoped: the record is still committed and the
				// database is healthy.
				if _, ok := db.Record("pre-0"); !ok {
					t.Fatal("record lost to a failed cold read")
				}
				// The fault window closed: the retry succeeds.
				if _, err := db.Representation("pre-0"); err != nil {
					t.Fatalf("cold read after fault window: %v", err)
				}
			}
			if db.DegradedStatus().Degraded {
				t.Fatal("cold-read fault degraded the database: the log is fine")
			}
			if f.Trips() == 0 {
				t.Fatal("fault never fired")
			}
			db.SetSegmentReadFault(nil)
			rebootAsserts(t, db, dir, acked, nil, false)
		})
	}
}
