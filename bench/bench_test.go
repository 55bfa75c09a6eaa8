package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"bgploop/internal/analysis"
)

// benchmarkJSON mirrors BENCHMARK.json key for key; decoding with
// DisallowUnknownFields makes any other key a test failure.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractFile checks BENCHMARK.json against the limits of its schema
// and against the program's own tables: the declared workloads and metrics
// are exactly the ones the program runs and prints.
func TestContractFile(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(b.Command))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the lap counts are frozen for %d", b.RunSeconds, runSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	// The driver runs 4 + 22 x workloads runs inside 3420 s; a run is
	// run_seconds of measurement plus its set-ups and build check, which
	// the README sizes at under 11 s.
	if runs := 4 + 22*len(b.Workloads); runs*(b.RunSeconds+11) > 3420 {
		t.Errorf("%d runs of %d+11 s do not fit 3420 s", runs, b.RunSeconds)
	}

	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not well-formed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var declared, ran []string
	for _, w := range b.Workloads {
		use("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		ran = append(ran, w.name)
	}
	if !equalSets(declared, ran) {
		t.Errorf("declared workloads %v != the program's %v", declared, ran)
	}

	units := map[string]string{}
	hasSetup := false
	for _, m := range b.EndToEnd {
		use("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not well-formed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
		units[m.Name] = m.Unit
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	checkTable(t, "end-to-end", endToEnd, units)

	units = map[string]string{}
	for _, m := range b.PerLayer {
		use("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not well-formed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		units[m.Name] = m.Unit
	}
	checkTable(t, "per-layer", perLayer, units)
}

func checkTable(t *testing.T, kind string, defs []metricDef, declared map[string]string) {
	t.Helper()
	for _, d := range defs {
		unit, ok := declared[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is printed but not declared", kind, d.Name)
		case unit != d.Unit:
			t.Errorf("%s metric %s: declared unit %q, printed %q", kind, d.Name, unit, d.Unit)
		}
		delete(declared, d.Name)
	}
	for name := range declared {
		t.Errorf("%s metric %s is declared but never printed", kind, name)
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestSmokeEveryWorkload executes every workload, untraced and traced, at
// the one-op smoke scale: each must run to the end with correct outputs
// and report exactly the declared metrics. The workloads run side by side;
// nothing here reads a time.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				smokeOne(t, w, trace)
			}
		})
	}
}

func smokeOne(t *testing.T, w *workload, trace bool) {
	res, err := run(runConfig{root: ".", w: w, seed: 3, seconds: 1, trace: trace, smoke: true})
	if err != nil {
		t.Errorf("trace=%v: %v", trace, err)
		return
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, res.detail.Failures)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("trace=%v: %d metrics reported, %d declared", trace, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("trace=%v: metric %s reported as %+v (present=%v), want unit %s", trace, d.Name, v, ok, d.Unit)
		}
		if !trace && v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never read 0", d.Name, v.Value)
		}
	}
}

// TestDetlintClean keeps the benchmark inside the repository's
// determinism gate: it sits outside every scoped analyzer, and the one
// repo-wide rule (no global math/rand) must hold here too.
func TestDetlintClean(t *testing.T) {
	diags, err := analysis.Run("..", []string{"./bench"}, analysis.DefaultAnalyzers(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
