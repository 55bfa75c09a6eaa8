package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/experiment"
	"bgploop/internal/faultplan"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// This file is the traced trial: experiment.RunContext re-assembled from
// the layers' public constructors, with one span per layer boundary and
// counters taken through the kernel's observation-only hooks. It exists
// because the run loop itself has no spans yet (ROADMAP item 5); until it
// does, parity_test.go pins that this copy and experiment.Run produce the
// same Result, so the attribution cannot drift from the real loop
// unnoticed. Scenario features no workload uses (transport impairment,
// guards, protocol traces, horizons) are refused, not mirrored.

// streamRec is one entry of the control-plane log a traced trial records:
// an update handed to the network, or a session lost to a link failure.
type streamRec struct {
	down     bool
	at       des.Time
	from, to topology.Node // down: the link's two endpoints
	up       bgp.Update
}

// trialRecorder is the traced trial's observer, network tap and exec
// hook. Like the experiment observer it mirrors, it feeds the FIB history
// and tracks the last update sent; unlike it, it also logs what the
// apportioning replays need.
type trialRecorder struct {
	dest    topology.Node
	sched   *des.Scheduler
	history *dataplane.History

	lastSent des.Time
	anySent  bool
	err      error

	times      []des.Time // timestamp of every executed event, in order
	pendingMax int
	pendingSum int
	pendingN   int
	stream     []streamRec
	delivered  int
	lost       int
	records    int
	recordTime time.Duration
}

// pendingSampleEvery is how often the exec hook samples the queue depth:
// Scheduler.Len walks the whole queue, so reading it on every event would
// make the traced control plane quadratic.
const pendingSampleEvery = 64

func (r *trialRecorder) execHook(at des.Time) {
	if len(r.times)%pendingSampleEvery == 0 {
		n := r.sched.Len()
		if n > r.pendingMax {
			r.pendingMax = n
		}
		r.pendingSum += n
		r.pendingN++
	}
	r.times = append(r.times, at)
}

func (r *trialRecorder) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	if dest != r.dest || r.err != nil || node == r.dest {
		return
	}
	t0 := time.Now()
	err := r.history.Record(now, node, nexthop)
	r.recordTime += time.Since(t0)
	r.records++
	if err != nil {
		r.err = err
	}
}

func (r *trialRecorder) UpdateSent(now des.Time, from, to topology.Node, update bgp.Update) {
	if now > r.lastSent {
		r.lastSent = now
	}
	r.anySent = true
	r.stream = append(r.stream, streamRec{at: now, from: from, to: to, up: update})
}

func (r *trialRecorder) MessageSent(from, to topology.Node, id uint64) {}
func (r *trialRecorder) MessageDelivered(from, to topology.Node, id uint64) {
	r.delivered++
}
func (r *trialRecorder) MessageLost(a, b topology.Node, id uint64) { r.lost++ }
func (r *trialRecorder) SessionDown(a, b topology.Node) {
	r.stream = append(r.stream, streamRec{down: true, at: r.sched.Now(), from: a, to: b})
}
func (r *trialRecorder) SessionUp(a, b topology.Node) {}

var (
	_ bgp.Observer = (*trialRecorder)(nil)
	_ netsim.Tap   = (*trialRecorder)(nil)
)

// counts are the exact counters of traced trials: they depend on the seed
// alone, so two laps of the same ring must agree on them bit for bit
// (the struct is comparable for that purpose).
type counts struct {
	Nodes, Edges                     int
	Events                           uint64
	PendingMax                       int
	Sent, Delivered, Lost            int
	Updates, Withdrawals             int
	Received, BestChanges            int
	Packets, Hops, TTLExhausted      int
	FIBChanges, Records, Loops       int
	ResultBytes                      int
	TableOps, PathLenSum, PathsCount int
}

// kernelProfile is what traced trials did, layer by layer: exact counts,
// span time, and the apportioned self times. Profiles add up, so one
// covers a lap of trials.
type kernelProfile struct {
	Trials int
	counts

	// Span time.
	Generate, Setup, CtrlInitial, CtrlConverge time.Duration
	Replay, Find, Encode, Digest, Trial        time.Duration
	CacheKey, Decode                           time.Duration
	RecordTime                                 time.Duration

	// Apportioned from outside (see apportion).
	DesSelf, NetsimAll, RoutingSelf, Wire           time.Duration
	DesAllocs, NetsimAllocs, RoutingAllocs, WireOps uint64
	WireAllocs                                      uint64
}

func (p *kernelProfile) add(o *kernelProfile) {
	p.Trials += o.Trials
	p.Nodes += o.Nodes
	p.Edges += o.Edges
	p.Events += o.Events
	p.PendingMax = max(p.PendingMax, o.PendingMax)
	p.Sent += o.Sent
	p.Delivered += o.Delivered
	p.Lost += o.Lost
	p.Updates += o.Updates
	p.Withdrawals += o.Withdrawals
	p.Received += o.Received
	p.BestChanges += o.BestChanges
	p.Packets += o.Packets
	p.Hops += o.Hops
	p.TTLExhausted += o.TTLExhausted
	p.FIBChanges += o.FIBChanges
	p.Records += o.Records
	p.Loops += o.Loops
	p.ResultBytes += o.ResultBytes
	p.TableOps += o.TableOps
	p.PathLenSum += o.PathLenSum
	p.PathsCount += o.PathsCount
	p.Generate += o.Generate
	p.Setup += o.Setup
	p.CtrlInitial += o.CtrlInitial
	p.CtrlConverge += o.CtrlConverge
	p.Replay += o.Replay
	p.Find += o.Find
	p.Encode += o.Encode
	p.Digest += o.Digest
	p.Trial += o.Trial
	p.CacheKey += o.CacheKey
	p.Decode += o.Decode
	p.RecordTime += o.RecordTime
	p.DesSelf += o.DesSelf
	p.NetsimAll += o.NetsimAll
	p.RoutingSelf += o.RoutingSelf
	p.Wire += o.Wire
	p.DesAllocs += o.DesAllocs
	p.NetsimAllocs += o.NetsimAllocs
	p.RoutingAllocs += o.RoutingAllocs
	p.WireOps += o.WireOps
	p.WireAllocs += o.WireAllocs
}

// Ctrl is the control-plane span time.
func (p *kernelProfile) Ctrl() time.Duration { return p.CtrlInitial + p.CtrlConverge }

// NetsimSelf is the network layer's time net of the scheduler work its
// deliveries cost (one event per message).
func (p *kernelProfile) NetsimSelf() time.Duration {
	if p.Events == 0 {
		return 0
	}
	perEvent := float64(p.DesSelf) / float64(p.Events)
	self := float64(p.NetsimAll) - perEvent*float64(p.Sent)
	if self < 0 {
		return 0
	}
	return time.Duration(self)
}

// BGPSelf is the residual of the control-plane spans once the scheduler,
// network, RIB and FIB-recording shares are taken out. It is computed,
// not measured; a negative residual (replays slower than the real run)
// reads as 0.
func (p *kernelProfile) BGPSelf() time.Duration {
	self := p.Ctrl() - p.DesSelf - p.NetsimSelf() - p.RoutingSelf - p.RecordTime
	if self < 0 {
		return 0
	}
	return self
}

// quiescenceChunk mirrors the run loop's event chunking.
const quiescenceChunk = 50_000

// tracedTrial generates a scenario with gen and runs it as
// experiment.RunContext does, returning the same Result. It records spans
// under parent (op id op) into tr and adds counters and apportioned self
// times to prof. genInOp says whether the workload's op includes the
// generator: if so generation is a child span of the trial, if not it is
// timed all the same but before the trial span opens.
func tracedTrial(gen func() (experiment.Scenario, error), genInOp bool, tr *tracer, op, parent int, prof *kernelProfile) (*experiment.Result, error) {
	var p kernelProfile
	p.Trials = 1
	var (
		s      experiment.Scenario
		trial  = -1
		t0     time.Time
		genErr error
	)
	generate := func() {
		sp := tr.begin("topology.generate", op, trial)
		start := time.Now()
		s, genErr = gen()
		p.Generate = time.Since(start)
		tr.end(sp)
	}
	if genInOp {
		trial, t0 = tr.begin("trial", op, parent), time.Now()
		generate()
	} else {
		generate()
		trial, t0 = tr.begin("trial", op, parent), time.Now()
	}
	if genErr != nil {
		return nil, genErr
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Transport != nil || s.TraceLimit > 0 || s.Guard.Enabled() || s.Horizon > 0 ||
		s.PhaseEventBudget > 0 || s.BGP.PolicyFor != nil {
		return nil, errors.New("bench: traced trial does not mirror transport, trace, guard, horizon, phase-budget or per-node-policy scenarios")
	}
	// Scenario.withDefaults, spelled out.
	if s.PacketInterval == 0 {
		s.PacketInterval = dataplane.DefaultInterval
	}
	if s.TTL == 0 {
		s.TTL = dataplane.DefaultTTL
	}
	if s.LinkDelay == 0 {
		s.LinkDelay = 2 * time.Millisecond
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 50_000_000
	}
	plan := s.FaultPlan
	if plan == nil {
		var err error
		if plan, err = experiment.CanonicalPlan(s); err != nil {
			return nil, err
		}
	}
	if plan.NeedsTransport() {
		return nil, errors.New("bench: traced trial does not mirror degraded-transport plans")
	}
	mainIdx := plan.MainPhase()
	if mainIdx < 0 {
		return nil, errors.New("bench: fault plan has no measured phase")
	}
	n := s.Graph.NumNodes()
	p.Nodes, p.Edges = n, len(s.Graph.Edges())

	// experiment.setup: scheduler + network + n speakers.
	sp := tr.begin("experiment.setup", op, trial)
	start := time.Now()
	sched := des.NewScheduler()
	net := netsim.New(sched, s.Graph, s.LinkDelay)
	rng := des.NewRNG(s.Seed)
	rec := &trialRecorder{dest: s.Dest, sched: sched, history: dataplane.NewHistory(n)}
	probe := bgp.NewOscillationProbe(n, s.Dest)
	obs := bgp.Tee(rec, probe)
	sched.SetExecHook(rec.execHook)
	net.SetTap(rec)
	speakers := make([]*bgp.Speaker, n)
	for _, v := range s.Graph.Nodes() {
		spk, err := bgp.NewSpeaker(v, sched, net, s.BGP, rng, obs)
		if err != nil {
			return nil, fmt.Errorf("bench: speaker %d: %w", v, err)
		}
		speakers[v] = spk
	}
	p.Setup = time.Since(start)
	tr.end(sp)

	budget := s.MaxEvents
	runToQuiescence := func(phase string) (uint64, error) {
		var used uint64
		for used < budget {
			chunk := budget - used
			if chunk > quiescenceChunk {
				chunk = quiescenceChunk
			}
			ran, _ := sched.RunLimitUntil(chunk, des.Time(math.MaxInt64))
			used += ran
			if ran < chunk {
				break
			}
		}
		budget -= used
		if pending, _, _ := sched.PendingCensus(); pending > 0 {
			return used, fmt.Errorf("bench: %s did not quiesce within the event budget", phase)
		}
		return used, rec.err
	}

	// ctrl.initial: cold-start convergence.
	sp = tr.begin("ctrl.initial", op, trial)
	start = time.Now()
	probe.BeginPhase(sched.Now())
	if err := speakers[s.Dest].Originate(s.Dest); err != nil {
		return nil, err
	}
	if _, err := runToQuiescence("initial convergence"); err != nil {
		return nil, err
	}
	initialConv := rec.lastSent
	p.CtrlInitial = time.Since(start)
	tr.end(sp)

	// ctrl.converge: drive the fault plan phase by phase.
	type phaseExec struct {
		phase                      faultplan.Phase
		injectAt, end, convergedAt des.Time
		used                       uint64
	}
	sp = tr.begin("ctrl.converge", op, trial)
	start = time.Now()
	execs := make([]phaseExec, len(plan.Phases))
	for i, ph := range plan.Phases {
		injectAt := sched.Now() + ph.Delay
		for _, a := range ph.Actions {
			if err := a.Schedule(net, injectAt); err != nil {
				return nil, fmt.Errorf("bench: phase %q: %w", ph.Name, err)
			}
		}
		if ph.Measure {
			rec.lastSent = 0
			rec.anySent = false
		}
		probe.BeginPhase(sched.Now())
		used, err := runToQuiescence(ph.Name)
		if err != nil {
			return nil, err
		}
		convergedAt := injectAt
		if ph.Measure && rec.anySent && rec.lastSent > injectAt {
			convergedAt = rec.lastSent
		}
		execs[i] = phaseExec{phase: ph, injectAt: injectAt, end: sched.Now(), convergedAt: convergedAt, used: used}
	}
	p.CtrlConverge = time.Since(start)
	tr.end(sp)

	// dataplane.replay and loopanalysis.find, per measured phase.
	sources := make([]topology.Node, 0, n-1)
	for _, v := range s.Graph.Nodes() {
		if v != s.Dest {
			sources = append(sources, v)
		}
	}
	var phases []experiment.PhaseResult
	byIndex := make(map[int]int, len(plan.Phases))
	for i, ex := range execs {
		if !ex.phase.Measure {
			continue
		}
		sp = tr.begin("dataplane.replay", op, trial)
		start = time.Now()
		replay, err := dataplane.Replay(rec.history, dataplane.ReplayConfig{
			Dest: s.Dest, Sources: sources, Start: ex.injectAt, End: ex.convergedAt,
			Interval: s.PacketInterval, TTL: s.TTL, LinkDelay: s.LinkDelay,
		})
		if err != nil {
			return nil, err
		}
		p.Replay += time.Since(start)
		tr.end(sp)
		p.Packets += replay.Sent
		p.Hops += replay.TotalHops
		p.TTLExhausted += replay.TTLExhausted

		sp = tr.begin("loopanalysis.find", op, trial)
		start = time.Now()
		horizon := ex.end
		if ex.convergedAt > horizon {
			horizon = ex.convergedAt
		}
		hasNext := i+1 < len(execs)
		var loops []loopanalysis.Loop
		for _, l := range loopanalysis.FindLoops(rec.history, horizon) {
			if l.End > ex.injectAt && (!hasNext || l.Start < execs[i+1].injectAt) {
				loops = append(loops, l)
			}
		}
		p.Find += time.Since(start)
		tr.end(sp)
		p.Loops += len(loops)

		byIndex[i] = len(phases)
		phases = append(phases, experiment.PhaseResult{
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
		})
	}

	main := phases[byIndex[mainIdx]]
	res := &experiment.Result{
		Topology:           s.Graph.Name(),
		Nodes:              n,
		Event:              s.Event,
		Plan:               plan.Name,
		Enhancement:        s.BGP.Enhancements.String(),
		MRAI:               s.BGP.MRAI,
		Seed:               s.Seed,
		FailAt:             main.InjectAt,
		InitialConvergence: initialConv,
		ConvergenceTime:    main.ConvergenceTime,
		Replay:             main.Replay,
		LoopingDuration:    main.LoopingDuration,
		LoopingRatio:       main.LoopingRatio,
		TTLExhaustions:     main.TTLExhaustions,
		PacketsSent:        main.PacketsSent,
		Loops:              main.Loops,
		LoopStats:          main.LoopStats,
		FIBChanges:         rec.history.TotalChanges(),
		EventsExecuted:     sched.Executed(),
		Phases:             phases,
	}
	if recIdx := plan.RecoveryPhase(); recIdx >= 0 {
		r := phases[byIndex[recIdx]]
		res.Recovery = &experiment.Recovery{
			RestoreAt:       r.InjectAt,
			ConvergenceTime: r.ConvergenceTime,
			Replay:          r.Replay,
			LoopingDuration: r.LoopingDuration,
			LoopingRatio:    r.LoopingRatio,
			TTLExhaustions:  r.TTLExhaustions,
			Loops:           r.Loops,
		}
	}
	for _, spk := range speakers {
		st := spk.Stats()
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
		p.Received += st.UpdatesReceived
	}
	res.UpdatesSent = res.Announcements + res.Withdrawals
	res.Net = net.Stats()

	// experiment.encode / experiment.digest: the codec the cache, the
	// journal and the wire all share.
	sp = tr.begin("experiment.encode", op, trial)
	start = time.Now()
	encoded, err := experiment.EncodeResult(res)
	if err != nil {
		return nil, err
	}
	p.Encode = time.Since(start)
	tr.end(sp)
	sp = tr.begin("experiment.digest", op, trial)
	start = time.Now()
	if _, err := experiment.DigestResult(res); err != nil {
		return nil, err
	}
	p.Digest = time.Since(start)
	tr.end(sp)
	tr.end(trial)
	p.Trial = time.Since(t0)

	p.Events = sched.Executed()
	p.PendingMax = rec.pendingMax
	p.Sent, p.Delivered, p.Lost = res.Net.Sent, rec.delivered, rec.lost
	p.Updates, p.Withdrawals = res.UpdatesSent, res.Withdrawals
	p.BestChanges = res.BestChanges
	p.FIBChanges = res.FIBChanges
	p.Records, p.RecordTime = rec.records, rec.recordTime
	p.ResultBytes = len(encoded)

	// Off the trial path: the read side of the codec and the content
	// address, on this trial's own payload. The warm sweep runs them back
	// to back, eight to an op; the median of a few calls is that steady
	// state, a single call right after a trial is not.
	var err2 error
	if p.CacheKey, err2 = timeEach(5, func(int) error {
		if s.CacheKey() == "" {
			return errors.New("bench: scenario has no content address")
		}
		return nil
	}); err2 != nil {
		return nil, err2
	}
	if p.Decode, err2 = timeEach(5, func(int) error {
		_, err := experiment.DecodeResult(encoded)
		return err
	}); err2 != nil {
		return nil, err2
	}

	if err := apportion(s, rec, &p); err != nil {
		return nil, err
	}
	prof.add(&p)
	return res, nil
}

// sink is the do-nothing handler the network replay attaches to every
// node, so a delivery costs the network layer's work and nothing else.
type sink struct{}

func (sink) Deliver(topology.Node, any) {}
func (sink) PeerDown(topology.Node)     {}
func (sink) PeerUp(topology.Node)       {}

// apportion splits the two control-plane spans between the layers below
// the speaker, from outside: each layer is driven alone with the load the
// trial put on it, and what remains of the spans is the speaker's own.
func apportion(s experiment.Scenario, rec *trialRecorder, p *kernelProfile) error {

	// des: the recorded event-time schedule through a bare scheduler with
	// no-op closures, held at the trial's mean queue depth — every
	// executed event schedules the next unscheduled timestamp.
	depth := 1
	if rec.pendingN > 0 {
		depth = max(1, rec.pendingSum/rec.pendingN)
	}
	{
		sched := des.NewScheduler()
		next := 0
		var failed error
		var scheduleNext func()
		scheduleNext = func() {
			if next >= len(rec.times) {
				return
			}
			at := rec.times[next]
			next++
			if _, err := sched.At(at, func() { scheduleNext() }); err != nil {
				failed = err
			}
		}
		a0 := exactMallocs()
		start := time.Now()
		for i := 0; i < depth; i++ {
			scheduleNext()
		}
		ran := sched.Run()
		p.DesSelf = time.Since(start)
		a1 := exactMallocs()
		p.DesAllocs = a1 - a0
		if failed != nil {
			return fmt.Errorf("bench: des replay: %w", failed)
		}
		if ran != uint64(len(rec.times)) {
			return fmt.Errorf("bench: des replay ran %d of %d events", ran, len(rec.times))
		}
	}

	// netsim: the recorded sends through a network with sink handlers.
	{
		sched := des.NewScheduler()
		net := netsim.New(sched, s.Graph, s.LinkDelay)
		for _, v := range s.Graph.Nodes() {
			net.Attach(v, sink{})
		}
		a0 := exactMallocs()
		start := time.Now()
		for i := range rec.stream {
			r := &rec.stream[i]
			if r.down {
				continue
			}
			sched.RunUntil(r.at)
			if err := net.Send(r.from, r.to, r.up); err != nil {
				return fmt.Errorf("bench: netsim replay: %w", err)
			}
		}
		sched.Run()
		p.NetsimAll = time.Since(start)
		a1 := exactMallocs()
		p.NetsimAllocs = a1 - a0
	}

	// routing: the recorded per-receiver update/withdraw stream through
	// one RIB per node. A best change costs what the speaker spends on it
	// in the RIB: one next-hop read and one best-path build for the FIB
	// record, and one best-path build per peer for the advertisement.
	{
		policy := s.BGP.Policy
		if policy == nil {
			policy = routing.ShortestPath{}
		}
		tables := make([]*routing.Table, s.Graph.NumNodes())
		a0 := exactMallocs()
		start := time.Now()
		changed := func(v topology.Node) {
			t := tables[v]
			_ = t.NextHop()
			_ = t.Best()
			for range s.Graph.Neighbors(v) {
				_ = t.Best()
			}
			p.TableOps += 2 + s.Graph.Degree(v)
		}
		for i := range rec.stream {
			r := &rec.stream[i]
			if r.down {
				for _, end := range [2][2]topology.Node{{r.from, r.to}, {r.to, r.from}} {
					if t := tables[end[0]]; t != nil {
						p.TableOps++
						if t.RemovePeer(end[1]) {
							changed(end[0])
						}
					}
				}
				continue
			}
			t := tables[r.to]
			if t == nil {
				t = routing.NewTable(r.to, s.Dest, policy)
				tables[r.to] = t
			}
			p.TableOps++
			var ch bool
			if r.up.Withdraw {
				ch = t.Withdraw(r.from)
			} else {
				ch = t.Update(r.from, r.up.Path)
				p.PathLenSum += r.up.Path.Len()
				p.PathsCount++
			}
			if ch {
				changed(r.to)
			}
		}
		p.RoutingSelf = time.Since(start)
		a1 := exactMallocs()
		p.RoutingAllocs = a1 - a0
	}

	return wireRoundTrip(rec.stream, p)
}
