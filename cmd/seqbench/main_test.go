package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment into a buffer: each must
// succeed and produce non-trivial output. This keeps the reproduction
// harness itself from rotting.
func TestAllExperimentsRun(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if seen[e.name] {
				t.Fatalf("duplicate experiment name %q", e.name)
			}
			seen[e.name] = true
			var buf bytes.Buffer
			if err := e.run(&buf); err != nil {
				t.Fatalf("experiment failed: %v", err)
			}
			if buf.Len() < 40 {
				t.Errorf("suspiciously short output (%d bytes):\n%s", buf.Len(), buf.String())
			}
		})
	}
}

// Spot-check load-bearing claims in experiment output.
func TestExperimentClaims(t *testing.T) {
	var buf bytes.Buffer
	if err := expGoalpost(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exemplar", "three-peaks", "contraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("goalpost output missing %q", want)
		}
	}
	// The three-peak control must not match the two-peak pattern: its row
	// should contain no "match" in the pattern column. Cheap proxy: the
	// line contains at least two "-" cells.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "three-peaks") && strings.Count(line, "match") > 0 {
			t.Errorf("three-peaks unexpectedly matched: %q", line)
		}
	}

	buf.Reset()
	if err := expRRSeq(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "145 145 145") {
		t.Errorf("RR sequence output missing the regular trace: %q", buf.String())
	}

	buf.Reset()
	if err := expFig10(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "ecg2") || !strings.Contains(out, "no ECGs") {
		t.Errorf("fig10 output incomplete:\n%s", out)
	}
}
