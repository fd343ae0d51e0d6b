package store

import (
	"errors"
	"sync"
	"testing"
	"time"

	"seqrep/internal/synth"
)

func TestMemArchiveContract(t *testing.T) {
	a := NewMemArchive()
	s1 := synth.Sine(50, 2, 10, 0)
	s2 := synth.Line(30, 1, 5)

	if err := a.Put("alpha", s1); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("beta", s2); err != nil {
		t.Fatal(err)
	}

	got, err := a.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s1) {
		t.Fatalf("Get returned %d samples, want %d", len(got), len(s1))
	}
	for i := range s1 {
		if got[i] != s1[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], s1[i])
		}
	}

	// Overwrite.
	if err := a.Put("alpha", s2); err != nil {
		t.Fatal(err)
	}
	got, err = a.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s2) {
		t.Errorf("overwrite kept %d samples", len(got))
	}

	// Missing id.
	if _, err := a.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v", err)
	}

	// List is sorted.
	ids, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Errorf("List = %v", ids)
	}

	// Delete.
	if err := a.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if _, err := a.Get("alpha"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted id still readable")
	}

	// Empty id rejected.
	if err := a.Put("", s1); err == nil {
		t.Error("empty id accepted")
	}
}

func TestMemArchiveIsolation(t *testing.T) {
	a := NewMemArchive()
	s := synth.Const(5, 1)
	if err := a.Put("x", s); err != nil {
		t.Fatal(err)
	}
	s[0].V = 999 // mutate the caller's copy
	got, err := a.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].V == 999 {
		t.Error("archive shares storage with caller")
	}
	got[0].V = -1 // mutate the returned copy
	got2, _ := a.Get("x")
	if got2[0].V == -1 {
		t.Error("archive shares storage with reader")
	}
}

func TestMemArchiveStats(t *testing.T) {
	a := NewMemArchive()
	s := synth.Const(10, 0) // 10 samples = 160 bytes
	if err := a.Put("x", s); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("x"); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Writes != 1 || st.Reads != 2 {
		t.Errorf("stats %+v", st)
	}
	if st.BytesWritten != 160 || st.BytesRead != 320 {
		t.Errorf("bytes %+v", st)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
}

func TestMemArchiveLatency(t *testing.T) {
	a := NewMemArchive()
	a.ReadLatency = 20 * time.Millisecond
	if err := a.Put("x", synth.Const(2, 0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := a.Get("x"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("read latency not applied: %v", elapsed)
	}
}

func TestMemArchiveConcurrent(t *testing.T) {
	a := NewMemArchive()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := string(rune('a' + n))
			s := synth.Const(20, float64(n))
			for j := 0; j < 50; j++ {
				if err := a.Put(id, s); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.Get(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	ids, err := a.List()
	if err != nil || len(ids) != 8 {
		t.Errorf("List after concurrency: %v %v", ids, err)
	}
}
