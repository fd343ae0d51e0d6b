// Command bench is the repository's benchmark: it builds a seeded corpus,
// boots the real seqserved on it, drives it over HTTP, checks the answers
// and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() { os.Exit(realMain()) }

// realMain returns the exit code: 0 for a correct run, 2 for a usage
// error, 1 for anything else.
func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed of the corpus and of every generated request")
		seconds = flag.Float64("seconds", 15, "seconds of measured traffic")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
		repeat  = flag.Bool("repeat", false, "run every workload twice with the same seeds and compare the two sets")
		child   = flag.Bool("calibrator", false, "internal: serve calibration timings on standard input/output")
	)
	flag.Parse()
	if *child {
		calibratorMain()
		return 0
	}
	// A signal must not leave the child server or the calibrator behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		children.killAll()
		os.RemoveAll(scratchDir())
		os.Exit(1)
	}()
	if err := calib.start(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: starting the calibrator: %v\n", err)
		return 1
	}
	defer calib.stop()
	if *repeat {
		return repeatCheck(*seconds)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runOnce(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce performs one run against the real binary with scratch under
// .work/ and artefacts under out/, both beside this program.
func runOnce(w *workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	bin, err := filepath.Abs(filepath.Join(".work", "bin", "seqserved"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("server binary missing (start the benchmark with run.sh): %w", err)
	}
	work, err := filepath.Abs(scratchDir())
	if err != nil {
		return nil, err
	}
	res, err := execute(runConfig{
		w: w, seed: seed, seconds: seconds, trace: trace, corpusN: corpusN,
		workDir: work, outDir: "out", serverBin: bin,
	})
	if err != nil {
		return nil, err
	}
	if err := writeResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// scratchDir is this process's scratch directory; a run removes it when it
// ends.
func scratchDir() string { return filepath.Join(".work", fmt.Sprintf("run-%d", os.Getpid())) }

// summary is the record written beside each run. It ends with the claim,
// which for the change that defines the benchmark is none.
type summary struct {
	Schema string     `json:"schema"`
	Env    envRecord  `json:"environment"`
	Run    *runResult `json:"run"`
	Claim  *string    `json:"claim"`
}

func writeResult(res *runResult) error {
	t := 0
	if res.Trace {
		t = 1
	}
	data, err := json.MarshalIndent(summary{Schema: "seqrep-bench/1", Env: environment(), Run: res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", fmt.Sprintf("result-%s-seed%d-trace%d.json", res.Workload, res.Seed, t)), data, 0o644)
}

// printResult prints every metric by name with its unit, then the one
// line the harness reads.
func printResult(res *runResult) {
	metrics := res.EndToEnd
	if res.Trace {
		metrics = res.Layers
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: attempted %d failed %d (share %.5f) correct %v open-loop valid %v wall %.1fs\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.FailedShare, res.Correct, res.Valid, res.WallSeconds)
	for _, e := range res.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %-6s n=%d\n", n, metrics[n].Value, metrics[n].Unit, metrics[n].Samples)
	}
	fmt.Println(`  "claim": null`)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for n, v := range metrics {
		line.Metrics[n] = mv{v.Value, v.Unit}
	}
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
}
