package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestRecordHeapLayout counts what a stored record costs the heap: live
// objects and bytes per record after a GC, once after IngestBatch and
// once after a checkpoint, Close and an OpenDir boot. A record is its
// struct, id, profile, one series (header, a pointer-free segment array,
// one parameter array) and one block of derived floats behind its
// feature vectors and sketch; a per-segment or per-vector allocation
// shows here as a jump, and a booted record must be laid out like an
// ingested one.
func TestRecordHeapLayout(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts are meaningless under the race detector")
	}
	// The byte bounds are 200 and 700 under what a record held with one
	// parameter slice per segment and one slice per derived vector
	// (2 518 and 6 654 B, 23.6 and 54.1 objects ingested).
	corpora := []struct {
		name       string
		items      func() []BatchItem
		maxObjects float64
		maxBytes   float64
	}{
		{"walks", func() []BatchItem { return clusteredItems(6000, 128) }, 10, 2318},
		{"feature", func() []BatchItem { return featureCorpus(t, rand.New(rand.NewSource(33)), 4000) }, 12, 5954},
	}
	live := func() (objects, bytes float64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapObjects), float64(ms.HeapAlloc)
	}
	for _, c := range corpora {
		dir := t.TempDir()
		objects0, bytes0 := live()
		items := c.items()
		n := float64(len(items))
		db, err := OpenDir(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := db.IngestBatch(items); err != nil || got != len(items) {
			t.Fatalf("%s: ingest %d/%d: %v", c.name, got, len(items), err)
		}
		items = nil
		objects, bytes := live()
		ingestedObjects, ingestedBytes := (objects-objects0)/n, (bytes-bytes0)/n
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = nil
		objects0, bytes0 = live()
		if db, err = OpenDir(dir, Config{}); err != nil {
			t.Fatal(err)
		}
		objects, bytes = live()
		bootedObjects, bootedBytes := (objects-objects0)/n, (bytes-bytes0)/n
		runtime.KeepAlive(db)
		db.Close()
		t.Logf("%s: per record %.1f objects, %.0f B ingested; %.1f objects, %.0f B booted", c.name, ingestedObjects, ingestedBytes, bootedObjects, bootedBytes)
		if ingestedObjects > c.maxObjects || ingestedBytes > c.maxBytes {
			t.Errorf("%s: an ingested record holds %.1f objects and %.0f B; want at most %.0f and %.0f", c.name, ingestedObjects, ingestedBytes, c.maxObjects, c.maxBytes)
		}
		if bootedObjects > ingestedObjects+1 {
			t.Errorf("%s: a booted record holds %.1f objects, an ingested one %.1f; want at most one more", c.name, bootedObjects, ingestedObjects)
		}
	}
}
