package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for a second or two on a 300-record
// corpus, served in-process, in traced mode (which also produces every
// end-to-end figure), and checks that every metric BENCHMARK.json
// registers is emitted with its unit and that the oracle and the
// durability drill pass. It keeps the harness from rotting; it measures
// nothing.
func TestSmoke(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	start := time.Now()
	for _, cw := range c.Workloads {
		w := workloadByName(cw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program lacks", cw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := execute(runConfig{
				w: w, seed: 7, seconds: 1.5, trace: true, corpusN: 300, local: true, small: true,
				workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("run not correct: %v", res.Errors)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, m := range c.EndToEnd {
				if v, ok := res.EndToEnd[m.Name]; !ok || v.Unit != m.Unit || v.Value == 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a non-zero value in %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, m := range c.PerLayer {
				if v, ok := res.Layers[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Layers) != len(c.PerLayer) {
				t.Errorf("program emits %d per-layer metrics, BENCHMARK.json registers %d", len(res.Layers), len(c.PerLayer))
			}
		})
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke test took %v, want under 15s", d)
	}
}
