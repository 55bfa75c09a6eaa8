package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/routing"
	"bgploop/internal/trace"
	"bgploop/internal/wire"
)

// TestBuildScenario drives the -topo/-size/-event/-enhance vocabulary
// through experiment.FlagScenario, the one function behind it here and
// in bgpverify.
func TestBuildScenario(t *testing.T) {
	tests := []struct {
		name    string
		topo    string
		size    int
		event   string
		enhance string
		wantErr bool
	}{
		{"clique tdown", "clique", 5, "tdown", "standard", false},
		{"clique tlong invalid", "clique", 5, "tlong", "standard", true},
		{"bclique tlong", "bclique", 4, "tlong", "standard", false},
		{"bclique tdown", "bclique", 4, "tdown", "standard", false},
		{"chain tdown", "chain", 4, "tdown", "standard", false},
		{"chain tlong invalid", "chain", 4, "tlong", "standard", true},
		{"ring tlong", "ring", 5, "tlong", "standard", false},
		{"ring tdown", "ring", 5, "tdown", "standard", false},
		{"figure1 tlong", "figure1", 0, "tlong", "standard", false},
		{"figure1 tdown", "figure1", 0, "tdown", "standard", false},
		{"figure2 tlong", "figure2", 3, "tlong", "standard", false},
		{"figure2 tdown", "figure2", 3, "tdown", "standard", false},
		{"internet tdown", "internet", 20, "tdown", "standard", false},
		{"internet tlong", "internet", 20, "tlong", "standard", false},
		{"unknown topo", "torus", 5, "tdown", "standard", true},
		{"unknown event", "clique", 5, "sideways", "standard", true},
		{"unknown enhancement", "clique", 5, "tdown", "turbo", true},
		{"ssld", "clique", 5, "tdown", "ssld", false},
		{"wrate", "clique", 5, "tdown", "wrate", false},
		{"assertion", "clique", 5, "tdown", "assertion", false},
		{"ghostflush", "clique", 5, "tdown", "ghostflush", false},
		{"star tdown", "star", 5, "tdown", "standard", false},
		{"star tlong invalid", "star", 5, "tlong", "standard", true},
		{"ba tdown", "ba", 12, "tdown", "standard", false},
		{"waxman tdown", "waxman", 12, "tdown", "standard", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := experiment.FlagScenario(tt.topo, tt.size, tt.event, 30*time.Second, tt.enhance, 1)
			if tt.wantErr {
				if err == nil {
					t.Errorf("accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("built scenario invalid: %v", err)
			}
		})
	}
}

func TestRunEndToEnd(t *testing.T) {
	cases := [][]string{
		{"-topo", "figure1", "-event", "tlong", "-loops"},
		{"-topo", "clique", "-size", "4", "-event", "tdown", "-csv"},
		{"-topo", "figure1", "-event", "tlong", "-trace", "5"},
		{"-topo", "clique", "-size", "4", "-event", "tdown", "-compare"},
		{"-topo", "clique", "-size", "4", "-event", "tdown", "-compare", "-csv"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-topo", "nope"}); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// captureRun runs the CLI with stdout and stderr sent to files and
// returns what it printed on each.
func captureRun(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	outs := make([]*os.File, 2)
	for i := range outs {
		f, ferr := os.Create(filepath.Join(dir, fmt.Sprint(i)))
		if ferr != nil {
			t.Fatal(ferr)
		}
		defer f.Close()
		outs[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outs[0], outs[1]
	err = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	var got [2]string
	for i, f := range outs {
		data, rerr := os.ReadFile(f.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		got[i] = string(data)
	}
	return got[0], got[1], err
}

// TestRunResumesFromCache: the result cache is the sweep's only
// checkpoint. The journal flags are unknown, and a second run on the same
// -cache-dir simulates nothing and prints the same digest.
func TestRunResumesFromCache(t *testing.T) {
	for _, flag := range []string{"-resume", "-journal-sync=1"} {
		if _, stderr, err := captureRun(t, flag); err == nil || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: err %v, stderr %q; want an unknown-flag refusal", flag, err, stderr)
		}
	}
	args := []string{"-topo", "clique", "-size", "5", "-event", "tdown", "-trials", "3", "-j", "1", "-cache-dir", t.TempDir(), "-digest"}
	cold, coldLog, err := captureRun(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmLog, err := captureRun(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldLog, "3 simulated") || !strings.Contains(warmLog, "0 simulated, 3 cache hits") {
		t.Errorf("summaries %q then %q, want 3 simulated then 0 simulated, 3 cache hits", coldLog, warmLog)
	}
	if cold == "" || warm != cold {
		t.Errorf("digests %q then %q, want one non-empty digest twice", cold, warm)
	}
}

func TestRunScenarioFileAndJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	spec := `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": 2}`
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing scenario file accepted")
	}
}

func TestRunWireAndMRTDumps(t *testing.T) {
	dir := t.TempDir()
	wirePath := filepath.Join(dir, "t.bgp")
	mrtPath := filepath.Join(dir, "t.mrt")
	if err := run([]string{"-topo", "figure1", "-event", "tlong", "-wiredump", wirePath, "-mrt", mrtPath}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{wirePath, mrtPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunTraceShowsTheFailure: on Internet(110) T_down seed 3, initial
// convergence alone sends thousands of events, so -trace must record past
// it and print exactly the first N events at or after the failure.
func TestRunTraceShowsTheFailure(t *testing.T) {
	const n = 5
	stdout, _, err := captureRun(t, "-topo", "internet", "-size", "110", "-event", "tdown", "-seed", "3", "-trace", fmt.Sprint(n))
	if err != nil {
		t.Fatal(err)
	}
	const header = "Protocol trace from the failure instant ("
	at := strings.Index(stdout, header)
	if at < 0 {
		t.Fatalf("no trace header in:\n%s", stdout)
	}
	rest := stdout[at+len(header):]
	end := strings.Index(rest, "):\n")
	if end < 0 {
		t.Fatalf("malformed trace header in:\n%s", stdout[at:])
	}
	failAt, err := time.ParseDuration(rest[:end])
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, line := range strings.Split(rest[end+len("):\n"):], "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[1] != "announce" && f[1] != "withdraw" && f[1] != "route") {
			continue
		}
		events = append(events, line)
		if eventAt, err := time.ParseDuration(f[0]); err != nil || eventAt < failAt {
			t.Errorf("event %q is not at or after the failure instant %v", line, failAt)
		}
	}
	if len(events) != n {
		t.Errorf("%d event lines after the trace header, want %d:\n%s", len(events), n, stdout[at:])
	}
}

// TestWriteDumpReportsDropped: a dump cut by the recorder's limit says how
// many events it is missing instead of passing for a whole trace.
func TestWriteDumpReportsDropped(t *testing.T) {
	rec := &trace.Recorder{Limit: 2}
	for i := 0; i < 5; i++ {
		rec.UpdateSent(time.Duration(i)*time.Second, 1, 2, bgp.Update{Dest: 0, Path: routing.Path{1, 0}})
	}
	path := filepath.Join(t.TempDir(), "t.bgp")
	var stderr strings.Builder
	if err := writeDump(&stderr, path, "UPDATE messages", rec, wire.DumpTrace); err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); !strings.Contains(got, "wrote 2 UPDATE messages") || !strings.Contains(got, "3 later protocol events are missing") {
		t.Errorf("stderr %q, want 2 written and 3 reported missing", got)
	}

	whole := &trace.Recorder{}
	whole.UpdateSent(time.Second, 1, 2, bgp.Update{Dest: 0, Withdraw: true})
	stderr.Reset()
	if err := writeDump(&stderr, path, "MRT records", whole, wire.DumpTraceMRT); err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); got != "bgpsim: wrote 1 MRT records to "+path+"\n" {
		t.Errorf("stderr %q for a whole trace, want only the count", got)
	}
}

func TestRunFaultPlanScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	spec := `{
		"topology": {"family": "ring", "size": 5},
		"seed": 3,
		"faultPlan": {
			"name": "two-cuts",
			"phases": [
				{"name": "cut-a", "delaySeconds": 1, "measure": true, "role": "main",
				 "actions": [{"op": "linkDown", "link": [1, 2]}]},
				{"name": "cut-b", "delaySeconds": 1, "measure": true,
				 "actions": [{"op": "linkUp", "link": [1, 2]}]}
			]
		}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-csv", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWatchdogFlags(t *testing.T) {
	// A 10ms horizon cannot fit initial convergence: the run must fail
	// with the structured non-quiescence diagnosis.
	err := run([]string{"-topo", "clique", "-size", "4", "-event", "tdown", "-horizon", "10ms"})
	if err == nil {
		t.Fatal("10ms horizon accepted")
	}
	if !strings.Contains(err.Error(), "did not quiesce") {
		t.Errorf("err = %v, want a quiescence diagnosis", err)
	}
	err = run([]string{"-topo", "clique", "-size", "6", "-event", "tdown", "-phase-budget", "40"})
	if err == nil {
		t.Fatal("40-event phase budget accepted")
	}
	if !strings.Contains(err.Error(), "verdict") {
		t.Errorf("err = %v, want a verdict in the diagnosis", err)
	}
}

// TestRunPreflightGate: -preflight runs the static gate once, before a
// single run or a sweep. Under warn BAD GADGET is simulated and fails on
// the watchdog's oscillating diagnosis; under strict it is refused
// before any trial runs, in every mode. A SAFE spec's static bound rides
// on every trial and leaves the sweep digest as it is without the gate.
func TestRunPreflightGate(t *testing.T) {
	gadget := "../../examples/specs/unsafe/badgadget.json"
	for _, mode := range []string{"single", "trials", "cache-dir"} {
		t.Run(mode, func(t *testing.T) {
			args := []string{"-scenario", gadget, "-digest"}
			dir := filepath.Join(t.TempDir(), "cache")
			switch mode {
			case "trials":
				args = append(args, "-trials", "2")
			case "cache-dir":
				args = append(args, "-cache-dir", dir)
			}
			_, _, err := captureRun(t, append(args, "-preflight", "strict")...)
			if !errors.Is(err, experiment.ErrStaticallyUnsafe) || strings.Contains(err.Error(), "trial") {
				t.Errorf("strict: err %v, want a statically UNSAFE refusal before any trial", err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("strict: cache dir exists (%v); the sweep must not have started", err)
			}
			_, stderr, err := captureRun(t, append(args, "-preflight", "warn")...)
			if err == nil || errors.Is(err, experiment.ErrStaticallyUnsafe) || !strings.Contains(err.Error(), "oscillating") {
				t.Errorf("warn: err %v, want the watchdog's oscillating diagnosis", err)
			}
			if !strings.Contains(stderr, "warning: scenario is statically UNSAFE") {
				t.Errorf("warn: stderr %q, want the UNSAFE warning", stderr)
			}
		})
	}

	clique := []string{"-scenario", "../../examples/specs/clique15-tdown.json", "-trials", "2", "-digest"}
	plain, _, err := captureRun(t, clique...)
	if err != nil {
		t.Fatal(err)
	}
	gated, stderr, err := captureRun(t, append(clique, "-preflight", "strict")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "preflight: SAFE") {
		t.Errorf("stderr %q, want the SAFE verdict", stderr)
	}
	const want = "867bd5100951f8c585799fff6fdb99d5374ad812046a47a05fc61b91d34fb7eb\n"
	if plain != want || gated != want {
		t.Errorf("digests %q without -preflight, %q with strict; want %q for both", plain, gated, want)
	}
}

func TestRunGuardFlag(t *testing.T) {
	if err := run([]string{"-topo", "clique", "-size", "4", "-event", "tdown", "-guard", "full"}); err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if err := run([]string{"-topo", "clique", "-size", "4", "-event", "tdown", "-guard", "sometimes"}); err == nil {
		t.Error("unknown guard cadence accepted")
	}
}

func TestRunShrinkEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// A guarded scenario with the corrupted-FIB self-test hook must fail;
	// a cache-backed sweep then writes the forensic bundle under
	// <cache>/forensics/, which -shrink reduces to a minimal reproducer.
	path := filepath.Join(dir, "s.json")
	spec := `{
		"topology": {"family": "clique", "size": 5},
		"event": "tdown", "seed": 3,
		"guard": {"cadence": "full", "corruptFIBNode": 2}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	err := run([]string{"-scenario", path, "-trials", "1", "-cache-dir", cacheDir})
	if err == nil {
		t.Fatal("corrupted-FIB sweep succeeded")
	}
	if !strings.Contains(err.Error(), "rib-fib-coherence") {
		t.Fatalf("err = %v, want a rib-fib-coherence violation", err)
	}
	forensics, ferr := os.ReadDir(filepath.Join(cacheDir, "forensics"))
	if ferr != nil || len(forensics) != 1 {
		t.Fatalf("forensics dir: %v (%d entries), want 1 bundle", ferr, len(forensics))
	}
	bundle := filepath.Join(cacheDir, "forensics", forensics[0].Name())

	out := filepath.Join(dir, "min.json")
	if err := run([]string{"-shrink", bundle, "-shrink-out", out, "-shrink-runs", "128"}); err != nil {
		t.Fatalf("-shrink: %v", err)
	}
	// The shrunk spec is itself a runnable -scenario file; it must still
	// reproduce the violation.
	err = run([]string{"-scenario", out})
	if err == nil || !strings.Contains(err.Error(), "rib-fib-coherence") {
		t.Errorf("shrunk scenario err = %v, want the preserved violation", err)
	}

	if err := run([]string{"-shrink", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing bundle accepted")
	}
}
