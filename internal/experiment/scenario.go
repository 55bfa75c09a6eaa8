// Package experiment assembles full simulation scenarios — topology,
// speakers, failure event, packet workload — runs them to quiescence, and
// extracts the paper's metrics (§4.2): convergence time, overall looping
// duration, number of TTL exhaustions, and looping ratio.
package experiment

import (
	"errors"
	"fmt"
	"os"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/faultplan"
	"bgploop/internal/invariant"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// EventKind selects the paper's topology-change event.
type EventKind int

const (
	// TDown makes the destination AS unreachable: every link of the
	// destination fails simultaneously.
	TDown EventKind = iota + 1
	// TLong fails a single link, forcing the network onto less-preferred
	// (longer) paths without disconnecting the destination.
	TLong
)

// String names the event as in the paper.
func (k EventKind) String() string {
	switch k {
	case TDown:
		return "Tdown"
	case TLong:
		return "Tlong"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Scenario fully describes one simulation run.
type Scenario struct {
	// Graph is the AS topology. It is not mutated by Run.
	Graph *topology.Graph
	// Dest is the destination AS; every other AS hosts a packet source.
	Dest topology.Node
	// Event is the topology change to inject after initial convergence.
	Event EventKind
	// FailLink is the link failed by a TLong event; ignored for TDown.
	FailLink topology.Edge
	// BGP configures every speaker.
	BGP bgp.Config
	// PacketInterval is the per-source constant packet gap
	// (dataplane.DefaultInterval if zero).
	PacketInterval time.Duration
	// TTL is the initial packet TTL (dataplane.DefaultTTL if zero).
	TTL int
	// LinkDelay is the propagation delay per link (2 ms if zero).
	LinkDelay time.Duration
	// Transport, when non-nil and active, impairs every link from t=0
	// (loss, duplication, reordering, jitter — see internal/transport).
	// Nil or inactive leaves the transport ideal; the impairment layer is
	// then a strict no-op and all digests match the pre-transport engine.
	// Per-link, time-bounded impairments come from faultplan Degrade
	// actions instead.
	Transport *transport.Config
	// SettleDelay separates initial convergence from the failure
	// injection (1 s if zero).
	SettleDelay time.Duration
	// Seed drives all randomness in the run.
	Seed int64
	// MaxEvents guards against runaway simulations (50M if zero).
	MaxEvents uint64
	// TraceLimit, when positive, records up to that many protocol events
	// (updates sent, route changes) into Result.Trace. It is a Go-level
	// switch: spec files do not carry it, and a traced scenario is
	// uncacheable.
	TraceLimit int
	// RestoreDelay, when positive, repairs the failed link(s) that long
	// after the post-failure convergence quiesces — a T_up recovery event
	// (an extension beyond the paper) — and records the recovery phase in
	// Result.Recovery.
	RestoreDelay time.Duration
	// FlapCycles, when positive, runs that many fail+repair cycles of the
	// configured event *before* the measured failure. With route flap
	// damping enabled (bgp.Config.Damping) the pre-flaps accumulate
	// penalties, changing how the measured failure unfolds.
	FlapCycles int
	// FaultPlan, when non-nil, replaces the single-event model: the
	// plan's phases drive failure injection and per-phase measurement,
	// and Event, FailLink, RestoreDelay, and FlapCycles are ignored.
	// The legacy fields compile to such a plan internally; see
	// CanonicalPlan.
	FaultPlan *faultplan.Plan
	// PhaseEventBudget, when positive, caps the events any single plan
	// phase may execute (the watchdog's per-phase budget). Zero lets
	// each phase spend the remaining global MaxEvents budget, matching
	// the legacy behaviour.
	PhaseEventBudget uint64
	// Horizon, when positive, caps the total virtual time of the run:
	// a phase whose next pending event lies beyond the horizon aborts
	// with a QuiescenceFailure diagnosis. Zero disables the cap.
	Horizon time.Duration
	// Guard configures the runtime invariant guards (internal/invariant).
	// An unset cadence consults the BGPSIM_GUARD environment variable
	// (off/phase/every-n/full) and falls back to Off. Guards are
	// observation-only: enabling them never changes a run's Result.
	Guard invariant.Config
	// NamedPolicy selects the routing policy by its name in the policy
	// table (PolicyShortestPath, PolicyBadGadget, PolicyGaoRexford); ""
	// is shortest path. The table's hooks are installed when the scenario
	// is lowered, never stored here, so a named scenario sets neither
	// BGP.PolicyFor nor BGP.Export, and its cache key hashes the name.
	NamedPolicy string

	// staticHorizon is a derived watchdog horizon installed by
	// WithStaticBound for statically-SAFE scenarios. It applies only
	// when Horizon is zero and is deliberately excluded from CacheKey:
	// a SAFE scenario converges well inside the bound, so the horizon
	// is observation-only and results are unchanged — unless it fires,
	// which indicates a bug in either the static or the dynamic layer.
	staticHorizon time.Duration
}

func (s Scenario) withDefaults() Scenario {
	if s.PacketInterval == 0 {
		s.PacketInterval = dataplane.DefaultInterval
	}
	if s.TTL == 0 {
		s.TTL = dataplane.DefaultTTL
	}
	if s.LinkDelay == 0 {
		s.LinkDelay = 2 * time.Millisecond
	}
	if s.SettleDelay == 0 {
		s.SettleDelay = time.Second
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 50_000_000
	}
	if s.Guard.Cadence == invariant.CadenceUnset {
		s.Guard.Cadence = invariant.FromEnv(os.Getenv("BGPSIM_GUARD"))
	}
	return s
}

// lowered is the one place a scenario becomes what the run loop, the
// cache key and the static bound all work from: the scenario with its
// defaults applied and its named policy's hooks installed, and its
// effective fault plan — the explicit FaultPlan when set, otherwise the
// canonical compilation of the legacy fields.
func (s Scenario) lowered() (Scenario, *faultplan.Plan, error) {
	s, err := s.withDefaults().withPolicy()
	if err != nil {
		return s, nil, err
	}
	if s.FaultPlan != nil {
		return s, s.FaultPlan, nil
	}
	plan, err := CanonicalPlan(s)
	return s, plan, err
}

// corruptFIBNode is the guard's corruption target, or None without one.
// The target must be a node of the topology other than the destination.
func (s Scenario) corruptFIBNode() (topology.Node, error) {
	n := s.Guard.CorruptFIBNode
	if n == nil {
		return topology.None, nil
	}
	v, err := topology.NodeOf(*n)
	if err != nil || !s.Graph.Valid(v) {
		return topology.None, fmt.Errorf("experiment: CorruptFIBNode %d not in topology", *n)
	}
	if v == s.Dest {
		return topology.None, errors.New("experiment: CorruptFIBNode must not be the destination (the destination has no forwarding entry)")
	}
	return v, nil
}

// Validate reports scenario construction errors.
func (s Scenario) Validate() error {
	if s.Graph == nil {
		return errors.New("experiment: nil topology")
	}
	if !s.Graph.Valid(s.Dest) {
		return fmt.Errorf("experiment: destination %d not in topology", s.Dest)
	}
	if !s.Graph.Connected() {
		return errors.New("experiment: topology must start connected")
	}
	if s.Horizon < 0 {
		return fmt.Errorf("experiment: negative horizon %v", s.Horizon)
	}
	if s.Transport != nil {
		if err := s.Transport.Validate(); err != nil {
			return err
		}
	}
	if err := s.Guard.Validate(); err != nil {
		return err
	}
	if _, err := s.policy(); err != nil {
		return err
	}
	if _, err := s.corruptFIBNode(); err != nil {
		return err
	}
	if s.FaultPlan != nil {
		// The plan supersedes the single-event fields entirely.
		if err := s.FaultPlan.Validate(s.Graph); err != nil {
			return err
		}
		return s.BGP.Validate()
	}
	switch s.Event {
	case TDown:
		// Nothing else to check.
	case TLong:
		if !s.Graph.HasEdge(s.FailLink.A, s.FailLink.B) {
			return fmt.Errorf("experiment: Tlong link %v not in topology", s.FailLink)
		}
		if !s.Graph.ConnectedWithout(s.FailLink) {
			return fmt.Errorf("experiment: Tlong link %v is a bridge; failing it would disconnect the network", s.FailLink)
		}
	default:
		return fmt.Errorf("experiment: unknown event kind %d", int(s.Event))
	}
	if s.FlapCycles < 0 {
		return fmt.Errorf("experiment: negative flap cycles %d", s.FlapCycles)
	}
	if err := s.BGP.Validate(); err != nil {
		return err
	}
	return nil
}

// CanonicalPlan expresses the scenario's legacy single-event fields
// (Event, FailLink, SettleDelay, FlapCycles, RestoreDelay) as an explicit
// fault plan: FlapCycles pre-flap phase pairs, one measured "failure"
// phase, and — when RestoreDelay is set — one measured "recovery" phase.
// Run compiles legacy scenarios through this function, so installing the
// returned plan in Scenario.FaultPlan reproduces the legacy event
// schedule, traces, and metrics byte for byte.
func CanonicalPlan(s Scenario) (*faultplan.Plan, error) {
	s = s.withDefaults()
	var fail, repair faultplan.Action
	switch s.Event {
	case TDown:
		fail = faultplan.FailNode(s.Dest)
		repair = faultplan.RestoreNode(s.Dest)
	case TLong:
		fail = faultplan.FailLink(s.FailLink)
		repair = faultplan.RestoreLink(s.FailLink)
	default:
		return nil, fmt.Errorf("experiment: unknown event kind %d", int(s.Event))
	}
	p := &faultplan.Plan{Name: fmt.Sprintf("canonical-%s", s.Event)}
	for c := 0; c < s.FlapCycles; c++ {
		p.Phases = append(p.Phases,
			faultplan.Phase{
				Name:    fmt.Sprintf("preflap-%d-down", c),
				Delay:   s.SettleDelay,
				Actions: []faultplan.Action{fail},
			},
			faultplan.Phase{
				Name:    fmt.Sprintf("preflap-%d-up", c),
				Delay:   s.SettleDelay,
				Actions: []faultplan.Action{repair},
			},
		)
	}
	p.Phases = append(p.Phases, faultplan.Phase{
		Name:    "failure",
		Delay:   s.SettleDelay,
		Actions: []faultplan.Action{fail},
		Measure: true,
		Role:    faultplan.RoleMain,
	})
	if s.RestoreDelay > 0 {
		p.Phases = append(p.Phases, faultplan.Phase{
			Name:    "recovery",
			Delay:   s.RestoreDelay,
			Actions: []faultplan.Action{repair},
			Measure: true,
			Role:    faultplan.RoleRecovery,
		})
	}
	return p, nil
}

// TDownScenario builds the paper's T_down experiment on g: destination AS
// dest becomes unreachable.
func TDownScenario(g *topology.Graph, dest topology.Node, cfg bgp.Config, seed int64) Scenario {
	return Scenario{Graph: g, Dest: dest, Event: TDown, BGP: cfg, Seed: seed}
}

// TLongScenario builds the paper's T_long experiment on g: link fails but
// dest stays reachable over longer paths.
func TLongScenario(g *topology.Graph, dest topology.Node, link topology.Edge, cfg bgp.Config, seed int64) Scenario {
	return Scenario{Graph: g, Dest: dest, Event: TLong, FailLink: link, BGP: cfg, Seed: seed}
}
