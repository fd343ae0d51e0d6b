package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json this program reads back: the
// registered names, units and bounds.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract() (*contract, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// repeatSeeds are the seeds of the repeatability self-check.
var repeatSeeds = []int64{1, 2, 3}

// repeatCheck runs every workload on every repeat seed, twice, and
// compares the two sets: for each workload × end-to-end metric it prints
// both medians, their relative gap in the metric's worse direction, and
// the registered bound. It returns 1 when any gap exceeds its bound or a
// run was wrong. The two sets interleave seed by seed so that a slow
// minute of the machine falls on both.
func repeatCheck(seconds float64) int {
	c, err := readContract()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// sets[set][workload][metric] = values over seeds
	sets := [2]map[string]map[string][]float64{{}, {}}
	exact := [2]map[string]float64{{}, {}}
	status := 0
	for _, w := range workloads {
		for _, seed := range repeatSeeds {
			for set := 0; set < 2; set++ {
				res, err := runOnce(w, seed, seconds, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("%s seed %d set %d: wrong answers or failed operations: %v\n", w.name, seed, set+1, res.Errors)
					status = 1
				}
				if sets[set][w.name] == nil {
					sets[set][w.name] = map[string][]float64{}
				}
				for name, v := range res.EndToEnd {
					sets[set][w.name][name] = append(sets[set][w.name][name], v.Value)
				}
				exact[set][fmt.Sprintf("%s seed %d disk_bytes", w.name, seed)] = float64(res.Parts["disk_bytes"].(int64))
			}
		}
	}
	fmt.Printf("%-18s %-26s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			a, b := median(sets[0][w.name][m.Name]), median(sets[1][w.name][m.Name])
			gap := (b - a) / a
			if m.Better == "higher" {
				gap = -gap
			}
			mark := ""
			if gap > m.Bound || -gap > m.Bound {
				mark = "  BEYOND BOUND"
				status = 1
			}
			fmt.Printf("%-18s %-26s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*gap, 100*m.Bound, mark)
		}
	}
	for k, v := range exact[0] {
		if exact[1][k] != v {
			fmt.Printf("note: %s differs between the sets (two clients interleave their writes): %v vs %v\n", k, v, exact[1][k])
		}
	}
	fmt.Println(`"claim": null`)
	return status
}
