package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/faultplan"
	"bgploop/internal/invariant"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/trace"
	"bgploop/internal/transport"
)

// ErrNoQuiescence is returned when a simulation exceeds its event budget
// or virtual-time horizon, which indicates either a pathological scenario,
// a genuinely divergent policy oscillation, or a protocol bug. The
// concrete error is a *QuiescenceFailure carrying a structured diagnosis;
// use errors.As to inspect it.
var ErrNoQuiescence = errors.New("experiment: simulation did not quiesce within the event budget")

// Result carries everything measured in one run.
type Result struct {
	// Scenario echo for reporting.
	Topology    string
	Nodes       int
	Event       EventKind
	Plan        string
	Enhancement string
	MRAI        time.Duration
	Seed        int64

	// FailAt is the main-phase failure injection instant;
	// InitialConvergence is how long the pristine network took to
	// converge from cold start.
	FailAt             des.Time
	InitialConvergence time.Duration

	// ConvergenceTime is the paper's metric: failure instant to the last
	// BGP update sent.
	ConvergenceTime time.Duration

	// Replay aggregates the packet workload outcome over the convergence
	// window; LoopingDuration and LoopingRatio are derived from it.
	Replay          dataplane.ReplayResult
	LoopingDuration time.Duration
	LoopingRatio    float64
	TTLExhaustions  int
	PacketsSent     int

	// Loops are the exact transient-loop intervals extracted from the
	// FIB history after the failure.
	Loops     []loopanalysis.Loop
	LoopStats loopanalysis.Stats

	// Control-plane totals over the whole run.
	UpdatesSent            int
	Announcements          int
	Withdrawals            int
	BestChanges            int
	SSLDConversions        int
	GhostFlushes           int
	AssertionInvalidations int
	RoutesSuppressed       int
	RoutesReused           int
	FIBChanges             int
	EventsExecuted         uint64

	// Net is the network-layer message accounting, including the
	// degraded-transport counters (drops, duplicates, reorders,
	// retransmissions) — all zero on an ideal transport.
	Net netsim.Stats
	// Session FSM totals across all speakers (zero with the FSM off).
	OpensSent            int
	KeepalivesSent       int
	KeepalivesSuppressed int
	HoldExpiries         int
	SessionsEstablished  int

	// Phases holds the per-phase measurements of every measured fault-
	// plan phase (the main phase included).
	Phases []PhaseResult

	// Trace holds the protocol event trace when Scenario.TraceLimit > 0.
	Trace *trace.Recorder

	// Recovery holds the T_up phase when the plan has a recovery-role
	// phase (legacy: Scenario.RestoreDelay > 0).
	Recovery *Recovery
}

// PhaseResult carries the §4.2 metrics for one measured fault-plan phase.
type PhaseResult struct {
	// Name and Role echo the plan phase.
	Name string
	Role string
	// InjectAt is the phase's injection instant; End the quiescence
	// instant of the phase.
	InjectAt des.Time
	End      des.Time
	// ConvergenceTime is injection instant -> last update sent within
	// the phase.
	ConvergenceTime time.Duration
	// Replay covers packets sent during the phase's convergence window;
	// the derived metrics mirror the paper's §4.2 set.
	Replay          dataplane.ReplayResult
	LoopingDuration time.Duration
	LoopingRatio    float64
	TTLExhaustions  int
	PacketsSent     int
	// Loops are the transient loops attributed to this phase.
	Loops     []loopanalysis.Loop
	LoopStats loopanalysis.Stats
	// EventsExecuted counts the DES events the phase consumed.
	EventsExecuted uint64
}

// Recovery captures the T_up phase of a flap scenario: the failed
// element is repaired and the network re-converges onto the original
// routes.
type Recovery struct {
	// RestoreAt is the repair instant.
	RestoreAt des.Time
	// ConvergenceTime is repair instant -> last update sent.
	ConvergenceTime time.Duration
	// Replay covers packets sent during the recovery window.
	Replay dataplane.ReplayResult
	// LoopingDuration/LoopingRatio/TTLExhaustions mirror the §4.2
	// metrics for the recovery window.
	LoopingDuration time.Duration
	LoopingRatio    float64
	TTLExhaustions  int
	// Loops are transient loops observed during recovery.
	Loops []loopanalysis.Loop
}

// observer records the FIB changes of every tracked destination and the
// last update sent.
type observer struct {
	// histories is indexed by destination node id; nil marks a
	// destination the run does not measure.
	histories []*dataplane.History
	lastSent  des.Time
	anySent   bool
	err       error
}

func (o *observer) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	if o.err != nil || node == dest {
		// The destination delivers locally; it has no forwarding next hop
		// and must not appear as a self-loop in the FIB history.
		return
	}
	h := o.histories[dest]
	if h == nil {
		return
	}
	if err := h.Record(now, node, nexthop); err != nil {
		o.err = err
	}
}

func (o *observer) UpdateSent(now des.Time, from, to topology.Node, update bgp.Update) {
	if now > o.lastSent {
		o.lastSent = now
	}
	o.anySent = true
}

var _ bgp.Observer = (*observer)(nil)

// phaseExec is the execution record of one plan phase.
type phaseExec struct {
	phase       faultplan.Phase
	injectAt    des.Time
	end         des.Time
	convergedAt des.Time
	used        uint64
}

// Run executes the scenario: originate the destination, converge, then
// drive the fault plan phase by phase (legacy single-event scenarios
// compile to a canonical plan via CanonicalPlan), re-converging after each
// phase. Measured phases get the packet workload replayed over their
// convergence window and their exact transient-loop intervals extracted.
func Run(s Scenario) (*Result, error) {
	return RunContext(context.Background(), s)
}

// quiescenceChunk bounds how many events the kernel executes between
// cancellation polls. The chunking changes nothing about the simulation —
// RunLimitUntil executes events strictly in order, so splitting the
// budget into chunks yields the identical event sequence — it only bounds
// how long a canceled run keeps computing.
const quiescenceChunk = 50_000

// RunContext is Run with cooperative cancellation: the watchdog polls ctx
// between bounded event chunks, so an aborted sweep (fail-fast failure
// elsewhere, failure-ratio doom, Ctrl-C) stops an in-flight trial in
// bounded time. The DES kernel itself stays single-threaded and knows
// nothing about contexts; cancellation lives entirely in this harness
// layer. The returned error wraps ctx.Err() when the run was interrupted,
// also in the re-run that diagnoses a watchdog cut: a run cut by its event
// budget, phase budget or horizon runs twice (see execute).
//
// With guards enabled (Scenario.Guard or BGPSIM_GUARD) an invariant
// engine observes the run through the kernel exec hook, the network tap,
// and the speaker observer; a violation aborts the run with a
// *invariant.ViolationError, and an internal panic is converted into a
// *invariant.PanicError carrying the event trail and RIB digests. Guards
// are observation-only: they never change a successful run's Result.
func RunContext(ctx context.Context, s Scenario) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s, plan, err := s.lowered()
	if err != nil {
		return nil, err
	}
	out, err := s.execute(ctx, plan, []topology.Node{s.Dest}, nil)
	if err != nil {
		return nil, err
	}

	phases := out.phases[0]
	main := phases[out.main]
	res := &Result{
		Topology:           s.Graph.Name(),
		Nodes:              s.Graph.NumNodes(),
		Event:              s.Event,
		Plan:               plan.Name,
		Enhancement:        s.BGP.Enhancements.String(),
		MRAI:               s.BGP.MRAI,
		Seed:               s.Seed,
		FailAt:             main.InjectAt,
		InitialConvergence: out.initialConv,
		ConvergenceTime:    main.ConvergenceTime,
		Replay:             main.Replay,
		LoopingDuration:    main.LoopingDuration,
		LoopingRatio:       main.LoopingRatio,
		TTLExhaustions:     main.TTLExhaustions,
		PacketsSent:        main.PacketsSent,
		Loops:              main.Loops,
		LoopStats:          main.LoopStats,
		FIBChanges:         out.histories[s.Dest].TotalChanges(),
		EventsExecuted:     out.executed,
		Phases:             phases,
		Trace:              out.trace,
	}
	if out.recovery >= 0 {
		rec := phases[out.recovery]
		res.Recovery = &Recovery{
			RestoreAt:       rec.InjectAt,
			ConvergenceTime: rec.ConvergenceTime,
			Replay:          rec.Replay,
			LoopingDuration: rec.LoopingDuration,
			LoopingRatio:    rec.LoopingRatio,
			TTLExhaustions:  rec.TTLExhaustions,
			Loops:           rec.Loops,
		}
	}
	for _, sp := range out.speakers {
		st := sp.Stats()
		res.Announcements += st.AnnouncementsSent
		res.Withdrawals += st.WithdrawalsSent
		res.BestChanges += st.BestChanges
		res.SSLDConversions += st.SSLDConversions
		res.GhostFlushes += st.GhostFlushes
		res.AssertionInvalidations += st.AssertionInvalidations
		res.RoutesSuppressed += st.RoutesSuppressed
		res.RoutesReused += st.RoutesReused
		res.OpensSent += st.OpensSent
		res.KeepalivesSent += st.KeepalivesSent
		res.KeepalivesSuppressed += st.KeepalivesSuppressed
		res.HoldExpiries += st.HoldExpiries
		res.SessionsEstablished += st.SessionsEstablished
	}
	res.UpdatesSent = res.Announcements + res.Withdrawals
	res.Net = out.net
	return res, nil
}

// execution is what one pass of the run loop hands to its views
// (RunContext, RunMulti): the per-origin phase measurements and the state
// the run totals are read from.
type execution struct {
	// initialConv is the instant of the last update of the cold-start
	// convergence.
	initialConv des.Time
	// phases[k] holds the measured phases of origins[k] in plan order;
	// main and recovery index into it (recovery is -1 without a
	// recovery-role phase).
	phases   [][]PhaseResult
	main     int
	recovery int
	// histories is the observer's per-destination FIB history, indexed by
	// node id.
	histories []*dataplane.History
	speakers  []*bgp.Speaker
	net       netsim.Stats
	executed  uint64
	trace     *trace.Recorder
}

// fanOut is the run's one observer fan-out, in call order: the
// measurement observer, then the trace, the oscillation probe and the
// guards, which ride last so the views they check have already seen each
// event. An absent view reaches Tee as a nil interface, never as a
// typed-nil pointer (which Tee would keep), so an untraced, unguarded run
// hands the speakers the bare *observer.
func fanOut(obs *observer, recorder *trace.Recorder, probe *bgp.OscillationProbe, eng *invariant.Engine) bgp.Observer {
	var traceView, probeView, guardView bgp.Observer
	if recorder != nil {
		traceView = recorder
	}
	if probe != nil {
		probeView = probe
	}
	if eng != nil {
		guardView = &guardObserver{eng: eng}
	}
	return bgp.Tee(obs, traceView, probeView, guardView)
}

// execute is the run loop, the only one: s is a validated, defaults-
// applied scenario and plan its effective fault plan (see lowered). Every
// node in origins originates its own prefix — a Scenario has the one
// origin s.Dest — the network converges, and the plan is driven phase by
// phase under the quiescence watchdog and, when enabled, the invariant
// guards. Each measured phase is then measured once per origin. The
// streaming guards watch all traffic; the sweep checks and the
// oscillation probe watch the routes toward s.Dest only. Runs pass a nil
// probe; a watchdog cut is then run again with one attached from phase 0,
// so a run that quiesces never pays for the diagnosis.
func (s Scenario) execute(ctx context.Context, plan *faultplan.Plan, origins []topology.Node, probe *bgp.OscillationProbe) (out *execution, err error) {
	mainIdx := plan.MainPhase()
	if mainIdx < 0 {
		return nil, errors.New("experiment: fault plan has no measured phase")
	}
	numNodes := s.Graph.NumNodes()

	sched := des.NewScheduler()
	net := netsim.New(sched, s.Graph, s.LinkDelay)
	rng := des.NewRNG(s.Seed)
	if (s.Transport != nil && s.Transport.Active()) || plan.NeedsTransport() {
		// The model draws only from its own named per-link streams, and an
		// idle model draws nothing, so installing it cannot perturb any
		// existing digest (pinned by TestTransportDisabledIsNoOp).
		net.SetImpairment(transport.NewModel(rng, s.Transport))
	}
	// s.Dest is tracked even when it originates nothing (a multi-prefix
	// T_down may fail a node outside origins): the rib-fib sweep check
	// reads its history, which then stays empty.
	obs := &observer{histories: make([]*dataplane.History, numNodes)}
	obs.histories[s.Dest] = dataplane.NewHistory(numNodes)
	for _, o := range origins {
		if obs.histories[o] == nil {
			obs.histories[o] = dataplane.NewHistory(numNodes)
		}
	}
	if probe == nil {
		defer func() {
			if cut, ok := err.(*QuiescenceFailure); ok {
				_, again := s.execute(ctx, plan, origins, bgp.NewOscillationProbe(numNodes, s.Dest))
				err = sameCut(cut, again)
			}
		}()
	}

	var recorder *trace.Recorder
	if s.TraceLimit > 0 {
		recorder = &trace.Recorder{Limit: s.TraceLimit}
	}

	// The guard engine is built before the speakers, which send as they
	// are made when the FSM is on: its checks read the speakers through
	// &speakers, which holds none until all of them exist.
	var speakers []*bgp.Speaker

	var eng *invariant.Engine
	if s.Guard.Enabled() {
		if eng, err = buildGuardEngine(s, sched, &speakers, obs); err != nil {
			return nil, err
		}
		sched.SetExecHook(eng.NoteExec)
		net.SetTap(&guardTap{eng: eng, sched: sched})
		// Panic-to-diagnostic conversion: with guards on, an internal
		// panic becomes a structured PanicError carrying the event trail
		// and RIB digests instead of unwinding to the trial recovery.
		defer func() {
			if r := recover(); r != nil {
				out = nil
				err = eng.CapturePanic(r, debug.Stack())
			}
		}()
	}

	if speakers, err = bgp.NewSpeakers(sched, net, s.BGP, rng, fanOut(obs, recorder, probe, eng), origins); err != nil {
		return nil, fmt.Errorf("experiment: speakers: %w", err)
	}

	horizon := des.Time(math.MaxInt64)
	if s.Horizon > 0 {
		horizon = s.Horizon
	} else if s.staticHorizon > 0 {
		horizon = s.staticHorizon
	}
	budget := s.MaxEvents

	// runToQuiescence drains the scheduler under the watchdog: the
	// remaining global budget, the optional per-phase budget, and the
	// virtual-time horizon. On exhaustion it returns a structured
	// *QuiescenceFailure diagnosis.
	runToQuiescence := func(phaseName string) (uint64, error) {
		limit := budget
		if s.PhaseEventBudget > 0 && s.PhaseEventBudget < limit {
			limit = s.PhaseEventBudget
		}
		var (
			used       uint64
			hitHorizon bool
		)
		for used < limit && !hitHorizon {
			if err := ctx.Err(); err != nil {
				return used, fmt.Errorf("experiment: run canceled during %s: %w", phaseName, err)
			}
			chunk := limit - used
			if chunk > quiescenceChunk {
				chunk = quiescenceChunk
			}
			var n uint64
			n, hitHorizon = sched.RunLimitUntil(chunk, horizon)
			used += n
			budget -= n
			if eng != nil {
				if verr := eng.Err(); verr != nil {
					return used, verr
				}
			}
			if n < chunk {
				break // queue drained before the chunk ran out
			}
		}
		pending, _, _ := sched.PendingCensus()
		if (used >= limit && pending > 0) || hitHorizon {
			return used, diagnoseQuiescenceFailure(phaseName, sched, probe, limit, used, hitHorizon)
		}
		if obs.err != nil {
			return used, obs.err
		}
		if eng != nil {
			// Quiescence reached: the queue is drained, so message
			// conservation must hold with equality and a sweep pass runs
			// regardless of cadence.
			eng.PhaseBoundary(sched.Now(), phaseName)
			if verr := eng.Err(); verr != nil {
				return used, verr
			}
		}
		return used, nil
	}

	// Phase 0: cold-start convergence.
	if probe != nil {
		probe.BeginPhase(sched.Now())
	}
	for _, o := range origins {
		if err := speakers[o].Originate(o); err != nil {
			return nil, err
		}
	}
	if _, err := runToQuiescence("initial convergence"); err != nil {
		return nil, err
	}
	initialConv := obs.lastSent

	// Drive the plan: each phase schedules its action timeline at
	// quiescence + delay, then re-converges.
	execs := make([]phaseExec, len(plan.Phases))
	for i, ph := range plan.Phases {
		injectAt := sched.Now() + ph.Delay
		for _, a := range ph.Actions {
			if err := a.Schedule(net, injectAt); err != nil {
				return nil, fmt.Errorf("experiment: phase %q: %w", ph.Name, err)
			}
		}
		if ph.Measure {
			obs.lastSent = 0 // reset: measure the last update after this injection
			obs.anySent = false
		}
		if probe != nil {
			probe.BeginPhase(sched.Now())
		}
		used, err := runToQuiescence(ph.Name)
		if err != nil {
			return nil, err
		}
		convergedAt := injectAt
		if ph.Measure && obs.anySent && obs.lastSent > injectAt {
			convergedAt = obs.lastSent
		}
		execs[i] = phaseExec{phase: ph, injectAt: injectAt, end: sched.Now(), convergedAt: convergedAt, used: used}
	}

	// slot maps plan phase i to its index among the measured phases.
	slot := func(i int) int {
		n := 0
		for _, ph := range plan.Phases[:i] {
			if ph.Measure {
				n++
			}
		}
		return n
	}
	out = &execution{
		initialConv: initialConv,
		phases:      make([][]PhaseResult, len(origins)),
		main:        slot(mainIdx),
		recovery:    -1,
		histories:   obs.histories,
		speakers:    speakers,
		net:         net.Stats(),
		executed:    sched.Executed(),
		trace:       recorder,
	}
	if recIdx := plan.RecoveryPhase(); recIdx >= 0 {
		out.recovery = slot(recIdx)
	}
	// Replay the packet workload and extract exact loop intervals per
	// origin and measured phase.
	for k, dest := range origins {
		sources := make([]topology.Node, 0, numNodes-1)
		for _, v := range s.Graph.Nodes() {
			if v != dest {
				sources = append(sources, v)
			}
		}
		for i, ex := range execs {
			if !ex.phase.Measure {
				continue
			}
			pr, err := s.measurePhase(obs.histories[dest], dest, sources, execs, i)
			if err != nil {
				return nil, err
			}
			out.phases[k] = append(out.phases[k], pr)
		}
	}
	return out, nil
}

// sameCut turns the re-run of a cut run into its diagnosis: the re-run's
// own at the same cut, its cancellation as is, else an error naming both.
func sameCut(cut *QuiescenceFailure, rerun error) error {
	again, ok := rerun.(*QuiescenceFailure)
	switch {
	case ok && again.cut() == cut.cut():
		return again
	case ok:
		return fmt.Errorf("experiment: diagnosis re-run stopped in %s, the run in %s", again.cut(), cut.cut())
	case errors.Is(rerun, context.Canceled) || errors.Is(rerun, context.DeadlineExceeded):
		return rerun
	}
	return fmt.Errorf("experiment: the run stopped in %s, its diagnosis re-run with %v", cut.cut(), rerun)
}

// measurePhase computes the §4.2 metrics of measured phase i for one
// destination: packet replay over the phase's convergence window and the
// transient loops attributed to the phase.
func (s Scenario) measurePhase(history *dataplane.History, dest topology.Node, sources []topology.Node, execs []phaseExec, i int) (PhaseResult, error) {
	ex := execs[i]
	replay, err := dataplane.Replay(history, dataplane.ReplayConfig{
		Dest:      dest,
		Sources:   sources,
		Start:     ex.injectAt,
		End:       ex.convergedAt,
		Interval:  s.PacketInterval,
		TTL:       s.TTL,
		LinkDelay: s.LinkDelay,
	})
	if err != nil {
		return PhaseResult{}, err
	}

	// The loop horizon is the end of the phase (not convergedAt): the
	// last *sent* update still needs delivery and processing before the
	// receiving FIB changes, so loops can outlive the paper's
	// convergence instant by a propagation-plus-processing delay.
	horizon := ex.end
	if ex.convergedAt > horizon {
		horizon = ex.convergedAt
	}
	// A loop belongs to this phase if it was alive after the phase's
	// injection and born before the next phase's injection (if any).
	var (
		nextInject des.Time
		hasNext    = i+1 < len(execs)
	)
	if hasNext {
		nextInject = execs[i+1].injectAt
	}
	var loops []loopanalysis.Loop
	for _, l := range loopanalysis.FindLoops(history, horizon) {
		if l.End > ex.injectAt && (!hasNext || l.Start < nextInject) {
			loops = append(loops, l)
		}
	}

	return PhaseResult{
		Name:            ex.phase.Name,
		Role:            string(ex.phase.Role),
		InjectAt:        ex.injectAt,
		End:             ex.end,
		ConvergenceTime: ex.convergedAt - ex.injectAt,
		Replay:          replay,
		LoopingDuration: replay.OverallLoopingDuration(),
		LoopingRatio:    replay.LoopingRatio(),
		TTLExhaustions:  replay.TTLExhausted,
		PacketsSent:     replay.Sent,
		Loops:           loops,
		LoopStats:       loopanalysis.Summarize(loops),
		EventsExecuted:  ex.used,
	}, nil
}
