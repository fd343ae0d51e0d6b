package core

// Tests for the mutation generation counter and the structured
// batch-error API — the core contracts the serving layer's result cache
// and batch endpoint build on. (The generation a reboot starts from is
// pinned in segments_test.go.)

import (
	"errors"
	"strings"
	"testing"

	"seqrep/internal/seq"
)

func rampSeq(n int, shift float64) seq.Sequence {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = shift + float64(i%7) + float64(i)/float64(n)
	}
	return seq.New(vals)
}

func TestGenerationBumpsOnMutations(t *testing.T) {
	db := mustDB(t, Config{})
	if g := db.Generation(); g != 0 {
		t.Fatalf("fresh database generation = %d, want 0", g)
	}
	mustIngest(t, db, "a", rampSeq(32, 0))
	g1 := db.Generation()
	if g1 == 0 {
		t.Fatal("generation unchanged after Ingest")
	}
	mustIngest(t, db, "b", rampSeq(32, 1))
	g2 := db.Generation()
	if g2 <= g1 {
		t.Fatalf("generation %d after second ingest, want > %d", g2, g1)
	}
	// A failed ingest (duplicate id) commits nothing and must not bump.
	if err := db.Ingest("a", rampSeq(32, 2)); err == nil {
		t.Fatal("duplicate ingest unexpectedly succeeded")
	}
	if g := db.Generation(); g != g2 {
		t.Fatalf("generation %d after failed ingest, want %d", g, g2)
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	g3 := db.Generation()
	if g3 <= g2 {
		t.Fatalf("generation %d after Remove, want > %d", g3, g2)
	}
	// A failed remove must not bump either.
	if err := db.Remove("missing"); err == nil {
		t.Fatal("removing unknown id unexpectedly succeeded")
	}
	if g := db.Generation(); g != g3 {
		t.Fatalf("generation %d after failed remove, want %d", g, g3)
	}
}

func TestIngestBatchItemsStructuredErrors(t *testing.T) {
	db := mustDB(t, Config{})
	mustIngest(t, db, "taken", rampSeq(32, 0))
	items := []BatchItem{
		{ID: "ok-0", Seq: rampSeq(32, 1)},
		{ID: "taken", Seq: rampSeq(32, 2)}, // duplicate: fails
		{ID: "ok-1", Seq: rampSeq(32, 3)},
		{ID: "", Seq: rampSeq(32, 4)}, // empty id: fails
		{ID: "ok-2", Seq: nil},        // empty sequence: fails
	}
	n, itemErrs := db.IngestBatchItems(items)
	if n != 2 {
		t.Fatalf("ingested %d, want 2", n)
	}
	if len(itemErrs) != 3 {
		t.Fatalf("got %d item errors, want 3: %v", len(itemErrs), itemErrs)
	}
	wantIdx := []int{1, 3, 4}
	wantID := []string{"taken", "", "ok-2"}
	for i, ie := range itemErrs {
		if ie.Index != wantIdx[i] || ie.ID != wantID[i] {
			t.Errorf("item error %d = (index %d, id %q), want (index %d, id %q)",
				i, ie.Index, ie.ID, wantIdx[i], wantID[i])
		}
		if ie.Err == nil {
			t.Errorf("item error %d carries no underlying error", i)
		}
	}

	// IngestBatch joins the same failures, each reachable via errors.As.
	db2 := mustDB(t, Config{})
	mustIngest(t, db2, "taken", rampSeq(32, 0))
	n, err := db2.IngestBatch(items)
	if n != 2 {
		t.Fatalf("IngestBatch ingested %d, want 2", n)
	}
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("joined batch error %v does not unwrap to *ItemError", err)
	}
	if !strings.Contains(err.Error(), `item 1 ("taken")`) {
		t.Errorf("joined error text lost the item position: %v", err)
	}
}
