// Package chaostest is the kill-restart chaos harness: it runs bgpd as
// a real subprocess, SIGKILLs it at scripted points mid-sweep, restarts
// it against the same store directory, and asserts that the final
// served digests are byte-identical to an uninterrupted `bgpsim
// -digest` run of the same scenario — with the resumed run re-executing
// strictly fewer trials than the sweep width, proving the result cache
// actually carried state across the kills.
//
// The kill points are scripted in cache objects, not wall time: the
// harness polls the store's result cache and fires the SIGKILL when the
// k-th trial's object has been installed, so every run kills the daemon
// at the same logical progress points regardless of machine speed.
//
// Everything here lives in _test.go files on purpose: the package is
// pure harness, and the determinism linter's production-scope rules
// (no wall clock, no os/exec) do not apply to tests.
package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const (
	cliqueSize = 16
	trials     = 10
	seed       = 5
)

var runBody = fmt.Sprintf(
	`{"spec": {"topology": {"family": "clique", "size": %d}, "event": "tdown", "seed": %d}, "trials": %d}`,
	cliqueSize, seed, trials)

// buildBinaries compiles bgpd and bgpsim once into a shared temp dir.
func buildBinaries(t *testing.T) (bgpd, bgpsim string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bgpd = filepath.Join(dir, "bgpd")
	bgpsim = filepath.Join(dir, "bgpsim")
	for bin, pkg := range map[string]string{bgpd: "./cmd/bgpd", bgpsim: "./cmd/bgpsim"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return bgpd, bgpsim
}

// freePort reserves an ephemeral localhost port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// lockedBuffer collects subprocess output; exec's pipe-copier goroutine
// writes while the test reads, so both sides take the lock.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one bgpd lifecycle.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	out  lockedBuffer
}

// startDaemon launches bgpd against store and waits for /healthz.
func startDaemon(t *testing.T, bin, store, addr string) *daemon {
	t.Helper()
	d := &daemon{addr: addr}
	d.cmd = exec.Command(bin, "-listen", addr, "-store-dir", store, "-j", "1")
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("bgpd did not come up on %s\n%s", addr, d.out.String())
	return nil
}

// sigkill delivers SIGKILL — the crash model: no defers, no flushes, no
// goodbye — then reaps the process and joins its output copiers.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

// cacheObjects counts the trial results installed in the store's cache.
// Cache.Put writes a tmp-* file and renames it into place, so a result
// a kill cut short is still a tmp-* and is deliberately not counted.
func cacheObjects(store string) int {
	paths, _ := filepath.Glob(filepath.Join(store, "cache", "objects", "*", "*"))
	n := 0
	for _, p := range paths {
		if !strings.HasPrefix(filepath.Base(p), "tmp-") {
			n++
		}
	}
	return n
}

// waitObjects polls until at least k trial results are installed.
func waitObjects(t *testing.T, store string, k int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cacheObjects(store) >= k {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cache never reached %d objects (at %d)", k, cacheObjects(store))
}

// jobView is the slice of bgpd's GET /v1/runs/{id} response the harness
// needs.
type jobView struct {
	ID              string   `json:"id"`
	State           string   `json:"state"`
	Trials          int      `json:"trials"`
	Error           string   `json:"error"`
	AggregateDigest string   `json:"aggregateDigest"`
	ResultDigests   []string `json:"resultDigests"`
	Stats           *struct {
		Trials    int
		Executed  int
		CacheHits int
	} `json:"stats"`
}

// getJob fetches a job view.
func getJob(t *testing.T, addr, id string) (jobView, int) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// waitTerminal polls a job until done/failed/canceled.
func waitTerminal(t *testing.T, addr, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getJob(t, addr, id)
		if code == http.StatusOK && (v.State == "done" || v.State == "failed" || v.State == "canceled") {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobView{}
}

// TestKillRestartDigestParity is the chaos acceptance test: bgpd is
// SIGKILLed at three scripted cache-object counts mid-sweep, restarted
// each time, and the finally-served digests must be byte-identical to
// an uninterrupted bgpsim run — with the last lifecycle re-executing
// strictly fewer trials than the sweep width.
func TestKillRestartDigestParity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run; skipped in -short")
	}
	bgpd, bgpsim := buildBinaries(t)
	store := t.TempDir()
	addr := freePort(t)

	// Lifecycle 0: submit, then kill at the scripted checkpoints. The
	// kill points are logical trial counts, so the schedule is
	// machine-speed independent.
	d := startDaemon(t, bgpd, store, addr)
	resp, err := http.Post("http://"+addr+"/v1/runs", "application/json", strings.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	var submitted jobView
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, view %+v", resp.StatusCode, submitted)
	}
	jobID := submitted.ID

	killPoints := []int{2, 5, 8} // of 10 trials
	for i, k := range killPoints {
		waitObjects(t, store, k)
		d.sigkill(t)

		d = startDaemon(t, bgpd, store, addr)
		// Recovery must have re-enqueued the killed job, and its id must
		// answer immediately even while it reruns.
		if _, code := getJob(t, addr, jobID); code != http.StatusOK {
			t.Fatalf("after kill %d: GET %s = %d\n%s", i+1, jobID, code, d.out.String())
		}
	}

	final := waitTerminal(t, addr, jobID)
	if final.State != "done" {
		t.Fatalf("final job state = %s (%s)\n%s", final.State, final.Error, d.out.String())
	}
	if final.Stats == nil {
		t.Fatal("final job has no stats")
	}
	// The resumption proof: the last lifecycle executed strictly fewer
	// trials than the sweep width — at least the 8 installed before the
	// final kill were read back, not re-simulated.
	if final.Stats.Executed >= trials {
		t.Errorf("final lifecycle executed %d of %d trials; resume did nothing", final.Stats.Executed, trials)
	}
	if final.Stats.Executed+final.Stats.CacheHits != trials {
		t.Errorf("stats do not add up: %+v", final.Stats)
	}
	if len(final.ResultDigests) != trials {
		t.Errorf("served %d result digests, want %d", len(final.ResultDigests), trials)
	}

	// The parity oracle: an uninterrupted, cache-less bgpsim run of the
	// same scenario. Its aggregate digest must match byte for byte.
	out, err := exec.Command(bgpsim,
		"-topo", "clique", "-size", fmt.Sprint(cliqueSize), "-event", "tdown",
		"-seed", fmt.Sprint(seed), "-trials", fmt.Sprint(trials), "-digest").Output()
	if err != nil {
		t.Fatalf("bgpsim oracle: %v", err)
	}
	want := strings.TrimSpace(string(out))
	if final.AggregateDigest != want {
		t.Errorf("served aggregate digest %s != uninterrupted bgpsim digest %s", final.AggregateDigest, want)
	}

	// Clean shutdown of the last lifecycle; the terminal state must then
	// survive one more restart (WAL-restored, not recomputed).
	d.sigkill(t)
	d = startDaemon(t, bgpd, store, addr)
	restored, code := getJob(t, addr, jobID)
	if code != http.StatusOK || restored.State != "done" || restored.AggregateDigest != want {
		t.Fatalf("restored job after final restart = %d %+v", code, restored)
	}
	if !strings.Contains(d.out.String(), "WAL recovery") {
		t.Errorf("bgpd did not log WAL recovery:\n%s", d.out.String())
	}

	// The store is the two things recovery reads and nothing else.
	for path, want := range map[string]bool{
		filepath.Join("wal", "jobs.jsonl"): true,
		"cache":                            true,
		filepath.Join("cache", "journals"): false,
		filepath.Join("wal", "dist.jsonl"): false,
	} {
		if _, err := os.Stat(filepath.Join(store, path)); (err == nil) != want {
			t.Errorf("store path %s: present = %t, want %t", path, err == nil, want)
		}
	}
}
