package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"bgploop/internal/durable"
	"bgploop/internal/invariant"
)

// ForensicsDirName is the subdirectory of a sweep cache directory where
// trial forensic bundles are written.
const ForensicsDirName = "forensics"

// ForensicsDir returns the forensic-bundle directory under a sweep cache
// root.
func ForensicsDir(cacheDir string) string {
	return filepath.Join(cacheDir, ForensicsDirName)
}

// FailureSignature classifies a trial error into the stable signature the
// scenario shrinker preserves: "invariant:<id>" for guard violations,
// "panic:<value>" for recovered panics, "no-quiescence:<verdict>" for
// watchdog diagnoses, and "" for anything else (including success).
func FailureSignature(err error) string {
	if err == nil {
		return ""
	}
	var ve *invariant.ViolationError
	if errors.As(err, &ve) {
		return "invariant:" + ve.V.ID
	}
	var pe *invariant.PanicError
	if errors.As(err, &pe) {
		return "panic:" + pe.Value
	}
	var qf *QuiescenceFailure
	if errors.As(err, &qf) {
		return "no-quiescence:" + qf.Verdict
	}
	var tf *TrialFailure
	if errors.As(err, &tf) && tf.Panicked {
		// Guards-off panics carry no typed PanicError; the recover path's
		// stringified value is the same signature CapturePanic would give.
		return "panic:" + tf.PanicValue
	}
	return ""
}

// newForensicBundle builds the serializable forensic record for a failed
// trial, or nil when the failure has no shrinkable signature (generator
// errors, cancellations).
func newForensicBundle(fail *TrialFailure) *invariant.Bundle {
	sig := FailureSignature(fail)
	if sig == "" {
		return nil
	}
	b := &invariant.Bundle{
		Version:   invariant.BundleVersion,
		CacheKey:  fail.Scenario.CacheKey(),
		Seed:      fail.Seed,
		Signature: sig,
	}
	var ve *invariant.ViolationError
	var pe *invariant.PanicError
	switch {
	case errors.As(fail.Err, &ve):
		v := ve.V
		b.Violation = &v
		b.Trail = v.Trail
		b.RIBDigests = ve.RIBDigests
	case errors.As(fail.Err, &pe):
		b.PanicValue = pe.Value
		b.Stack = pe.Stack
		b.Trail = pe.Trail
		b.RIBDigests = pe.RIBDigests
	case fail.Panicked:
		b.PanicValue = fail.PanicValue
		b.Stack = fail.Stack
	}
	if spec, err := NewScenarioSpec(fail.Scenario); err == nil {
		if raw, err := json.Marshal(spec); err == nil {
			b.Scenario = raw
		}
	}
	return b
}

// attachForensics converts a trial failure into its forensic bundle and,
// when the sweep has a cache directory, persists the bundle under
// ForensicsDir for later `bgpsim -shrink`. The write goes through the
// sweep's durable.FS (nil means the real filesystem), so fault-injection
// schedules cover this path too. Bundle write errors are swallowed:
// forensics must never turn a diagnosable failure into an undiagnosable
// one.
func attachForensics(fail *TrialFailure, dir string, fsys durable.FS) {
	b := newForensicBundle(fail)
	if b == nil {
		return
	}
	fail.Forensic = b
	if dir == "" {
		return
	}
	if p, err := invariant.WriteBundleFS(fsys, dir, b); err == nil {
		fail.ForensicPath = p
	}
}

// runForSignature executes a scenario spec and reports its failure
// signature, recovering panics so guards-off crashes classify the same
// way the guard layer's CapturePanic would. An unbuildable candidate
// returns "" (never reproduces).
func runForSignature(spec ScenarioSpec) (sig string) {
	defer func() {
		if r := recover(); r != nil {
			sig = "panic:" + fmt.Sprint(r)
		}
	}()
	s, err := spec.Scenario()
	if err != nil {
		return ""
	}
	_, err = RunContext(context.Background(), s)
	return FailureSignature(err)
}

// ShrinkFailure minimizes a forensic bundle's scenario while preserving
// its failure signature: it canonicalizes the bundle's spec into the
// self-contained "edges" topology form, verifies the failure reproduces,
// and then delta-debugs it — removing topology nodes and links, dropping
// fault-plan slack, and halving budgets. maxRuns caps the candidate
// trials executed (invariant.DefaultShrinkRuns when <= 0). The returned
// stats count the verification run.
func ShrinkFailure(b *invariant.Bundle, maxRuns int) (ScenarioSpec, invariant.ShrinkStats, error) {
	var zero ScenarioSpec
	if b == nil || len(b.Scenario) == 0 {
		return zero, invariant.ShrinkStats{}, errors.New("experiment: bundle carries no replayable scenario spec")
	}
	var spec ScenarioSpec
	if err := json.Unmarshal(b.Scenario, &spec); err != nil {
		return zero, invariant.ShrinkStats{}, fmt.Errorf("experiment: decode bundle scenario: %w", err)
	}
	s, err := spec.Scenario()
	if err != nil {
		return zero, invariant.ShrinkStats{}, fmt.Errorf("experiment: bundle scenario: %w", err)
	}
	canon, err := NewScenarioSpec(s)
	if err != nil {
		return zero, invariant.ShrinkStats{}, fmt.Errorf("experiment: bundle scenario is not shrinkable: %w", err)
	}
	if got := runForSignature(*canon); got != b.Signature {
		return zero, invariant.ShrinkStats{Runs: 1, Signature: b.Signature},
			fmt.Errorf("experiment: bundle does not reproduce: got signature %q, want %q", got, b.Signature)
	}
	passes := []func(ScenarioSpec) []ScenarioSpec{
		shrinkRemoveNode,
		shrinkRemoveEdge,
		shrinkBudget,
	}
	min, stats := invariant.Shrink(*canon, b.Signature, runForSignature, passes, maxRuns)
	stats.Runs++ // account for the verification run above
	return min, stats, nil
}

// cloneSpec deep-copies a spec through its JSON form so candidate edits
// never alias the current scenario's slices.
func cloneSpec(spec ScenarioSpec) ScenarioSpec {
	raw, err := json.Marshal(spec)
	if err != nil {
		invariant.Unreachable("experiment-clone-spec", err.Error())
	}
	var out ScenarioSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		invariant.Unreachable("experiment-clone-spec", err.Error())
	}
	return out
}

// specBuildable reports whether a candidate materialises into a valid
// Scenario (connectivity, bridge constraints, dest and guard validity all
// checked by Scenario/Validate), so obviously-dead candidates never spend
// a trial from the shrink budget.
func specBuildable(spec ScenarioSpec) bool {
	_, err := spec.Scenario()
	return err == nil
}

// visitRefs calls node on every node id and link on every [a, b] link the
// spec names outside its topology: the destination, the guard's corruption
// target, the tlong link, and every fault-plan action's targets (the spec
// codec refuses target fields an op does not read, so each one counts).
// The callbacks get pointers into spec and may rewrite them in place.
func (spec *ScenarioSpec) visitRefs(node func(*int), link func(*[2]int)) {
	if spec.Dest != nil {
		node(spec.Dest)
	}
	if spec.Guard != nil && spec.Guard.CorruptFIBNode != nil {
		node(spec.Guard.CorruptFIBNode)
	}
	if spec.FailLink != nil {
		link(spec.FailLink)
	}
	if spec.FaultPlan == nil {
		return
	}
	for _, ph := range spec.FaultPlan.Phases {
		for _, a := range ph.Actions {
			if a.Node != nil {
				node(a.Node)
			}
			if a.Link != nil {
				link(a.Link)
			}
			for i := range a.Links {
				link(&a.Links[i])
			}
		}
	}
}

// shrinkRemoveNode proposes candidates with one node removed that the
// spec does not name (its incident links dropped, remaining ids relabeled
// to stay dense: ids above the removed one shift down).
func shrinkRemoveNode(spec ScenarioSpec) []ScenarioSpec {
	if spec.Topology.Family != "edges" {
		return nil
	}
	pinned := map[int]bool{0: spec.Dest == nil} // an omitted dest is AS 0
	pin := func(id *int) { pinned[*id] = true }
	spec.visitRefs(pin, func(l *[2]int) { pin(&l[0]); pin(&l[1]) })
	var out []ScenarioSpec
	for v := 0; v < spec.Topology.Size; v++ {
		if pinned[v] {
			continue
		}
		relabel := func(id *int) {
			if *id > v {
				*id--
			}
		}
		relabelLink := func(l *[2]int) { relabel(&l[0]); relabel(&l[1]) }
		c := cloneSpec(spec)
		c.Topology.Size--
		edges := c.Topology.Edges[:0]
		for _, e := range c.Topology.Edges {
			if e[0] == v || e[1] == v {
				continue
			}
			relabelLink(&e)
			edges = append(edges, e)
		}
		c.Topology.Edges = edges
		c.visitRefs(relabel, relabelLink)
		if specBuildable(c) {
			out = append(out, c)
		}
	}
	return out
}

// shrinkRemoveEdge proposes candidates with one link removed that the spec
// does not name.
func shrinkRemoveEdge(spec ScenarioSpec) []ScenarioSpec {
	if spec.Topology.Family != "edges" {
		return nil
	}
	// Links compare as the spec spells them, ordered: no id is narrowed
	// to a Node, so an id no Node holds never aliases a real one.
	norm := func(l [2]int) [2]int { return [2]int{min(l[0], l[1]), max(l[0], l[1])} }
	pinned := map[[2]int]bool{}
	spec.visitRefs(func(*int) {}, func(l *[2]int) { pinned[norm(*l)] = true })
	var out []ScenarioSpec
	for i, e := range spec.Topology.Edges {
		if pinned[norm(e)] {
			continue
		}
		c := cloneSpec(spec)
		c.Topology.Edges = append(c.Topology.Edges[:i], c.Topology.Edges[i+1:]...)
		if specBuildable(c) {
			out = append(out, c)
		}
	}
	return out
}

// shrinkBudget proposes candidates with scenario slack removed: pre-flap
// cycles dropped or halved, the recovery delay dropped, non-main
// fault-plan phases dropped, and the event/time budgets halved.
func shrinkBudget(spec ScenarioSpec) []ScenarioSpec {
	var out []ScenarioSpec
	propose := func(edit func(*ScenarioSpec)) {
		c := cloneSpec(spec)
		edit(&c)
		if specBuildable(c) {
			out = append(out, c)
		}
	}
	if spec.FlapCycles > 0 {
		propose(func(c *ScenarioSpec) { c.FlapCycles = 0 })
	}
	if spec.FlapCycles > 1 {
		propose(func(c *ScenarioSpec) { c.FlapCycles /= 2 })
	}
	if spec.RestoreDelaySeconds > 0 {
		propose(func(c *ScenarioSpec) { c.RestoreDelaySeconds = 0 })
	}
	if spec.FaultPlan != nil {
		for i, ph := range spec.FaultPlan.Phases {
			if ph.Role == "main" {
				continue
			}
			propose(func(c *ScenarioSpec) {
				c.FaultPlan.Phases = append(c.FaultPlan.Phases[:i], c.FaultPlan.Phases[i+1:]...)
			})
		}
	}
	if spec.MaxEvents > 1 {
		propose(func(c *ScenarioSpec) { c.MaxEvents /= 2 })
	}
	if spec.HorizonSeconds > 0 {
		propose(func(c *ScenarioSpec) { c.HorizonSeconds /= 2 })
	}
	return out
}
