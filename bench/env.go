package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envRecord is the machine and build a result was measured on.
type envRecord struct {
	GitSHA      string `json:"git_sha"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	FlushPolicy string `json:"flush_policy"`
}

func environment() envRecord {
	e := envRecord{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), // the server child runs with the same default
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		FlushPolicy: "every acknowledged write is WAL-appended and fsync'd (group commit) before the response; " +
			"checkpoints only where the workload schedules them (-checkpoint-interval 0); sandbox disk and page cache, not a device",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return e
}
