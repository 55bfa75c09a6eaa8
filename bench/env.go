package main

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is the stamp every machine-readable output carries, so a
// number can be traced to the code, toolchain and machine that produced it.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
}

// readEnvironment gathers the stamp. root is the benchmark directory; the
// commit is that of the repository containing it, or "unknown" when the
// checkout is not a git repository (the benchmark driver's is not).
func readEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			env.Commit = rev
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if key, val, ok := bytes.Cut(line, []byte{':'}); ok && strings.TrimSpace(string(key)) == "model name" {
				env.CPUModel = strings.TrimSpace(string(val))
				break
			}
		}
	}
	return env
}
