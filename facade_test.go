package seqrep_test

import (
	"math/rand"
	"strings"
	"testing"

	"seqrep"
)

func TestFacadeQueryLanguage(t *testing.T) {
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fever, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("f", fever); err != nil {
		t.Fatal(err)
	}
	res, err := seqrep.ExecQuery(db, `MATCH PEAKS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "peaks" || len(res.IDs) != 1 || res.IDs[0] != "f" {
		t.Errorf("ExecQuery result: %+v", res)
	}
	if _, err := seqrep.ExecQuery(db, `garbage`); err == nil {
		t.Error("bad statement accepted")
	}
}

func TestFacadePyramid(t *testing.T) {
	ecg, rPeaks, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := seqrep.BuildPyramid(ecg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() < 3 {
		t.Errorf("Levels = %d", p.Levels())
	}
	res, err := p.FindPeaks(10, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Peaks) != len(rPeaks) {
		t.Errorf("coarse-to-fine found %d peaks, want %d", len(res.Peaks), len(rPeaks))
	}
}

func TestFacadeMelody(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iv, err := seqrep.GenerateRandomMelody(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := seqrep.GenerateMelody(iv, seqrep.MelodyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	up := seqrep.TransposeMelody(m, 5)
	if up[0].V != m[0].V+5 {
		t.Error("TransposeMelody")
	}
	slow, err := seqrep.ChangeMelodyTempo(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) <= len(m) {
		t.Errorf("tempo change: %d -> %d samples", len(m), len(slow))
	}
}

func TestFacadePatterns(t *testing.T) {
	if !strings.Contains(seqrep.ExactlyPeaksPattern(3), "{") &&
		seqrep.ExactlyPeaksPattern(3) == seqrep.ExactlyPeaksPattern(2) {
		t.Error("ExactlyPeaksPattern ignores k")
	}
	if seqrep.AtLeastPeaksPattern(2) == "" || seqrep.TwoPeakPattern() == "" {
		t.Error("empty canned patterns")
	}
	if seqrep.PeakUnitPattern != "U+F*D" {
		t.Errorf("PeakUnitPattern = %q", seqrep.PeakUnitPattern)
	}
}

func TestFacadePeakTableAndPreprocess(t *testing.T) {
	chain := seqrep.StandardPreprocess(3, 3)
	if chain.Len() != 3 {
		t.Errorf("standard chain stages = %d", chain.Len())
	}
	db, err := seqrep.New(seqrep.Config{Epsilon: 10, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	ecg, _, err := seqrep.GenerateECG(nil, seqrep.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("e", ecg); err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Record("e")
	series, err := db.Representation("e")
	if err != nil {
		t.Fatal(err)
	}
	table, err := seqrep.PeakTable(series, rec.Profile.Peaks)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "Rising Function") {
		t.Error("PeakTable header missing")
	}
}

func TestFacadeSeismicStockGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, starts, err := seqrep.GenerateSeismic(rng, seqrep.SeismicOpts{Samples: 900, Events: 1})
	if err != nil || len(starts) != 1 || len(s) != 900 {
		t.Errorf("GenerateSeismic: %v %v", starts, err)
	}
	st, err := seqrep.GenerateStock(rng, 100, 50, 0, 1)
	if err != nil || len(st) != 100 {
		t.Errorf("GenerateStock: %v", err)
	}
	three, err := seqrep.GenerateThreePeakFever(49)
	if err != nil || len(three) != 49 {
		t.Errorf("GenerateThreePeakFever: %v", err)
	}
}
