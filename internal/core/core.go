// Package core is the top-level orchestration layer of the study: it runs
// scenarios, cross-validates the two independent loop measurements (the
// TTL-exhaustion proxy from the data plane and the exact cycle intervals
// from the FIB history), checks the paper's analytic §3.2 bound, and
// renders comparison tables.
package core

import (
	"context"
	"fmt"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/report"
)

// Report is the enriched outcome of a single scenario run.
type Report struct {
	experiment.Result

	// BoundViolations lists loops whose observed duration exceeded the
	// paper's worst-case bound (m-1) x MRAI plus a processing/propagation
	// allowance. A faithful path-vector implementation produces none for
	// single-failure workloads; the field exists as a built-in validity
	// check on every run.
	BoundViolations []loopanalysis.Loop

	// LoopCoverage is the fraction of the convergence window during
	// which at least one loop was alive (§4.3 notes "there is not always
	// a loop during the overall looping duration"; this measures it).
	LoopCoverage float64
	// MaxConcurrentLoops is the peak number of simultaneously-alive
	// loops.
	MaxConcurrentLoops int
}

// boundSlack allows for the processing and propagation delays the §3.2
// analysis abstracts away (the bound counts only MRAI waits; each hop also
// costs up to 0.5 s processing and messages may queue).
const boundSlackPerHop = 2 * time.Second

// Run executes the scenario and enriches the raw result.
func Run(s experiment.Scenario) (*Report, error) {
	return RunContext(context.Background(), s)
}

// RunContext is Run with cooperative cancellation (see
// experiment.RunContext): ctx stops the simulation between kernel event
// chunks, so Ctrl-C in cmd/bgpsim aborts an in-flight run promptly.
func RunContext(ctx context.Context, s experiment.Scenario) (*Report, error) {
	res, err := experiment.RunContext(ctx, s)
	if err != nil {
		return nil, err
	}
	rep := &Report{Result: *res}
	if res.ConvergenceTime > 0 {
		window := res.ConvergenceTime
		free := loopanalysis.LoopFreeTime(res.Loops, res.FailAt, res.FailAt+window)
		rep.LoopCoverage = 1 - free.Seconds()/window.Seconds()
	}
	rep.MaxConcurrentLoops = loopanalysis.MaxConcurrent(res.Loops)
	for _, l := range res.Loops {
		bound := loopanalysis.WorstCaseResolution(l.Size(), s.BGP.MRAI) +
			time.Duration(l.Size())*boundSlackPerHop
		// The bound covers one loop instance's resolution; only resolved
		// loops are checked (an unresolved interval is clipped by the
		// horizon, not by protocol action).
		if l.Resolved && l.Duration() > bound {
			rep.BoundViolations = append(rep.BoundViolations, l)
		}
	}
	return rep, nil
}

// SummaryTable renders the paper's §4.2 metrics for one run.
func (r *Report) SummaryTable() *report.Table {
	workload := r.Event.String()
	if r.Event == 0 && r.Plan != "" {
		workload = fmt.Sprintf("plan %q", r.Plan)
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("%s %s (%s, MRAI %s)", r.Topology, workload, r.Enhancement, r.MRAI),
		Columns: []string{"metric", "value"},
	}
	tbl.AddRow("convergence_time", r.ConvergenceTime.Round(time.Millisecond).String())
	tbl.AddRow("overall_looping_duration", r.LoopingDuration.Round(time.Millisecond).String())
	tbl.AddRow("ttl_exhaustions", fmt.Sprintf("%d", r.TTLExhaustions))
	tbl.AddRow("packets_sent", fmt.Sprintf("%d", r.PacketsSent))
	tbl.AddRow("looping_ratio", fmt.Sprintf("%.3f", r.LoopingRatio))
	tbl.AddRow("packets_delivered", fmt.Sprintf("%d", r.Replay.Delivered))
	tbl.AddRow("packets_no_route", fmt.Sprintf("%d", r.Replay.NoRoute))
	tbl.AddRow("loop_intervals", fmt.Sprintf("%d", r.LoopStats.Count))
	tbl.AddRow("max_loop_size", fmt.Sprintf("%d", r.LoopStats.MaxSize))
	tbl.AddRow("max_loop_duration", r.LoopStats.MaxDuration.Round(time.Millisecond).String())
	tbl.AddRow("loop_coverage", fmt.Sprintf("%.3f", r.LoopCoverage))
	tbl.AddRow("max_concurrent_loops", fmt.Sprintf("%d", r.MaxConcurrentLoops))
	tbl.AddRow("updates_sent", fmt.Sprintf("%d", r.UpdatesSent))
	tbl.AddRow("withdrawals_sent", fmt.Sprintf("%d", r.Withdrawals))
	tbl.AddRow("bound_violations", fmt.Sprintf("%d", len(r.BoundViolations)))
	// Transport and session rows appear only when the run exercised the
	// respective layer, so unimpaired runs keep the historical table.
	if n := r.Net; n.Retransmitted > 0 || n.Dropped > 0 || n.Duplicated > 0 || n.Reordered > 0 {
		tbl.AddRow("msgs_retransmitted", fmt.Sprintf("%d", n.Retransmitted))
		tbl.AddRow("msgs_dropped", fmt.Sprintf("%d", n.Dropped))
		tbl.AddRow("msgs_duplicated", fmt.Sprintf("%d", n.Duplicated))
		tbl.AddRow("msgs_reordered", fmt.Sprintf("%d", n.Reordered))
	}
	if r.OpensSent > 0 {
		tbl.AddRow("sessions_established", fmt.Sprintf("%d", r.SessionsEstablished))
		tbl.AddRow("opens_sent", fmt.Sprintf("%d", r.OpensSent))
		tbl.AddRow("keepalives_sent", fmt.Sprintf("%d", r.KeepalivesSent))
		tbl.AddRow("keepalives_suppressed", fmt.Sprintf("%d", r.KeepalivesSuppressed))
		tbl.AddRow("hold_expiries", fmt.Sprintf("%d", r.HoldExpiries))
	}
	return tbl
}

// PhaseTable renders the per-phase metrics of a multi-phase fault plan:
// one row per measured phase, in plan order.
func (r *Report) PhaseTable() *report.Table {
	tbl := &report.Table{
		Title: "Fault-plan phases",
		Columns: []string{
			"phase", "role", "inject_at", "convergence",
			"looping_duration", "ttl_exhaustions", "looping_ratio", "loops",
		},
	}
	for _, ph := range r.Phases {
		role := ph.Role
		if role == "" {
			role = "-"
		}
		tbl.AddRow(ph.Name, role,
			ph.InjectAt.Round(time.Millisecond).String(),
			ph.ConvergenceTime.Round(time.Millisecond).String(),
			ph.LoopingDuration.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", ph.TTLExhaustions),
			fmt.Sprintf("%.3f", ph.LoopingRatio),
			fmt.Sprintf("%d", ph.LoopStats.Count))
	}
	return tbl
}

// LoopTable renders the exact per-loop intervals of a run — the statistics
// the paper's §6 lists as future work.
func (r *Report) LoopTable() *report.Table {
	tbl := &report.Table{
		Title:   "Transient loops",
		Columns: []string{"nodes", "size", "start", "end", "duration", "resolved"},
	}
	for _, l := range r.Loops {
		nodes := ""
		for i, v := range l.Nodes {
			if i > 0 {
				nodes += "-"
			}
			nodes += fmt.Sprintf("%d", v)
		}
		tbl.AddRow(nodes,
			fmt.Sprintf("%d", l.Size()),
			l.Start.Round(time.Millisecond).String(),
			l.End.Round(time.Millisecond).String(),
			l.Duration().Round(time.Millisecond).String(),
			fmt.Sprintf("%v", l.Resolved))
	}
	return tbl
}

// CompareEnhancements runs the same scenario under each protocol variant
// of bgp.Variants (standard, SSLD, WRATE, Assertion, Ghost Flushing) and
// tabulates the §4.2 metrics side by side — the per-scenario view of
// Figures 8 and 9.
func CompareEnhancements(base experiment.Scenario) (*report.Table, error) {
	tbl := &report.Table{
		Title: fmt.Sprintf("Enhancement comparison: %s %s", base.Graph.Name(), base.Event),
		Columns: []string{
			"variant", "convergence_s", "looping_duration_s",
			"ttl_exhaustions", "looping_ratio", "updates_sent",
		},
	}
	for _, v := range bgp.Variants {
		s := base
		s.BGP = experiment.WithEnhancements(base.BGP, v.E)
		rep, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("core: variant %s: %w", v.Name, err)
		}
		tbl.AddFloats(v.Name,
			rep.ConvergenceTime.Seconds(),
			rep.LoopingDuration.Seconds(),
			float64(rep.TTLExhaustions),
			rep.LoopingRatio,
			float64(rep.UpdatesSent))
	}
	return tbl, nil
}
