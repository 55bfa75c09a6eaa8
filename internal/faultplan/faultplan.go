// Package faultplan provides a declarative, deterministic fault-script
// engine for the simulation harness: an ordered timeline of topology and
// session events (link/node failures and repairs, correlated SRLG-style
// failure groups, periodic flap generators, BGP session resets) organised
// into phases that compile onto the DES scheduler.
//
// A Plan is a sequence of Phases. Each phase waits a configurable delay
// after the network quiesced from the previous phase, schedules its
// actions (each action carries an offset within the phase, so a phase is
// itself a small timeline), and runs the network back to quiescence. A
// phase marked Measure gets its own convergence/looping/replay metrics in
// the experiment results.
//
// The engine generalises the harness's original single-event model:
// T_down, T_long, RestoreDelay and FlapCycles are all expressible as
// canonical plans (see experiment.CanonicalPlan) that replay byte-for-byte
// identically to the legacy hard-coded sequence.
//
// The package owns the fault vocabulary and its timing: netsim offers five
// operations that act on one link now, the ops table below gives each Op
// its name, the Action fields it reads and the operation it applies, and
// Action.Schedule alone gives an operation a time. No other package lists
// the ops.
package faultplan

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// Op enumerates the action kinds a plan can schedule.
type Op int

const (
	// LinkDown fails Link: the link stops carrying traffic, in-flight
	// messages are lost, both endpoints see PeerDown.
	LinkDown Op = iota + 1
	// LinkUp repairs Link; both endpoints see PeerUp and re-exchange
	// full tables.
	LinkUp
	// NodeDown fails every link incident to Node simultaneously (the
	// paper's T_down event shape).
	NodeDown
	// NodeUp repairs every failed link incident to Node.
	NodeUp
	// GroupDown fails every link in Links in one instant — a correlated
	// SRLG-style failure (one fiber cut, several logical links).
	GroupDown
	// GroupUp repairs every link in Links in one instant.
	GroupUp
	// SessionReset bounces the BGP session on Link: in-flight messages
	// are lost and both endpoints see PeerDown immediately followed by
	// PeerUp, while the physical link stays up.
	SessionReset
	// FlapLink is a periodic flap generator: Cycles fail/repair cycles
	// of Link with Period between consecutive transitions, all compiled
	// onto the scheduler when the action fires.
	FlapLink
	// Degrade installs the action's Impairment on Link (or on every link
	// in Links — a correlated degradation group: one flaky fiber shared
	// by several logical links). The link keeps carrying traffic, but
	// lossy/duplicated/reordered/jittered, per internal/transport.
	Degrade
	// Undegrade removes the impairment override from Link (or Links),
	// reverting to the scenario's base impairment or to a clean link.
	Undegrade
)

// Fields says which Action fields an op reads beside Op and At. An op
// with both Link and Links set takes either: Links when non-empty,
// otherwise Link.
type Fields struct {
	Link, Node, Links bool
	// Repeat covers Cycles and Period.
	Repeat     bool
	Impairment bool
}

// step does one thing to one link at the current instant.
type step func(net *netsim.Network, e topology.Edge, a Action)

func fail(net *netsim.Network, e topology.Edge, _ Action)      { net.Fail(e) }
func restore(net *netsim.Network, e topology.Edge, _ Action)   { net.Restore(e) }
func bounce(net *netsim.Network, e topology.Edge, _ Action)    { net.BounceSession(e) }
func degrade(net *netsim.Network, e topology.Edge, a Action)   { net.Degrade(e, *a.Impairment) }
func undegrade(net *netsim.Network, e topology.Edge, _ Action) { net.Undegrade(e) }

type opRow struct {
	name string
	Fields
	steps []step
	// transport marks an op that needs an installed impairment model.
	transport bool
}

// ops is the fault vocabulary, one row per Op: its name in the JSON
// scenario schema, the Action fields that name its links and parameters,
// and what it does to each link — one step, or several taken in rotation,
// one scheduler event each (see Action.Schedule). Row 0 stays zero and
// stands in for every unknown op. Everything below and the spec codec
// (experiment.ActionSpec) read this table: adding an op is a constant
// above, a row here and, if wanted, a builder at the end of the file.
var ops = [...]opRow{
	LinkDown:     {"linkDown", Fields{Link: true}, []step{fail}, false},
	LinkUp:       {"linkUp", Fields{Link: true}, []step{restore}, false},
	NodeDown:     {"nodeDown", Fields{Node: true}, []step{fail}, false},
	NodeUp:       {"nodeUp", Fields{Node: true}, []step{restore}, false},
	GroupDown:    {"groupDown", Fields{Links: true}, []step{fail}, false},
	GroupUp:      {"groupUp", Fields{Links: true}, []step{restore}, false},
	SessionReset: {"sessionReset", Fields{Link: true}, []step{bounce}, false},
	FlapLink:     {"flapLink", Fields{Link: true, Repeat: true}, []step{fail, restore}, false},
	Degrade:      {"degrade", Fields{Link: true, Links: true, Impairment: true}, []step{degrade}, true},
	Undegrade:    {"undegrade", Fields{Link: true, Links: true}, []step{undegrade}, true},
}

// Ops lists the vocabulary in declaration order.
func Ops() []Op {
	out := make([]Op, len(ops)-1)
	for i := range out {
		out[i] = Op(i + 1)
	}
	return out
}

// row returns o's table row, the zero row for an unknown op.
func (o Op) row() *opRow {
	if o < 0 || int(o) >= len(ops) {
		o = 0
	}
	return &ops[o]
}

// String names the op as in the JSON scenario schema.
func (o Op) String() string {
	if name := o.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// OpFromString parses the JSON scenario schema's op name.
func OpFromString(s string) (Op, error) {
	names := make([]string, len(ops)-1)
	for i, row := range ops[1:] {
		if row.name == s {
			return Op(i + 1), nil
		}
		names[i] = row.name
	}
	return 0, fmt.Errorf("faultplan: unknown op %q (want %s)", s, strings.Join(names, ", "))
}

// Action is one entry of a phase's timeline.
type Action struct {
	// Op selects the action kind. It reads the fields below that its table
	// row names (see Fields) and ignores the others.
	Op Op
	// At is the action's offset from the phase's injection instant.
	At time.Duration
	// Link, Node (its incident links) and Links (a correlated group, acted
	// on in the given order) name the links.
	Link  topology.Edge
	Node  topology.Node
	Links []topology.Edge
	// Cycles and Period parameterise FlapLink.
	Cycles int
	Period time.Duration
	// Impairment parameterises Degrade (required there, forbidden
	// elsewhere). Undegrade needs no config: it removes the override.
	Impairment *transport.Config
}

// Fields returns the fields this action reads: its op's, with a
// link-or-group op settled on the one it will use. Zero for an unknown op.
func (a Action) Fields() Fields {
	f := a.Op.row().Fields
	if f.Link && f.Links {
		f.Link, f.Links = len(a.Links) == 0, len(a.Links) > 0
	}
	return f
}

// links returns the links the action acts on, in the order it acts on
// them: a node's in Graph.IncidentEdges order, a group's as given.
func (a Action) links(g *topology.Graph) []topology.Edge {
	switch f := a.Fields(); {
	case f.Node:
		return g.IncidentEdges(a.Node)
	case f.Links:
		return a.Links
	case f.Link:
		return []topology.Edge{a.Link}
	}
	return nil
}

// String renders the action for diagnostics.
func (a Action) String() string {
	s, f := a.Op.String(), a.Fields()
	switch {
	case f.Node:
		s += fmt.Sprintf(" %d", a.Node)
	case f.Links:
		s += fmt.Sprintf(" %v", a.Links)
	case f.Link:
		s += fmt.Sprintf(" %v", a.Link)
	}
	if f.Repeat {
		s += fmt.Sprintf(" x%d every %v", a.Cycles, a.Period)
	}
	return s
}

// Validate checks the action against the topology it will run on.
func (a Action) Validate(g *topology.Graph) error {
	f := a.Fields()
	switch {
	case a.At < 0:
		return fmt.Errorf("faultplan: action %v has negative offset %v", a, a.At)
	case a.Op.row().steps == nil:
		return fmt.Errorf("faultplan: unknown op %d", int(a.Op))
	case f.Node && !g.Valid(a.Node):
		return fmt.Errorf("faultplan: %s node %d not in topology", a.Op, a.Node)
	case f.Links && len(a.Links) == 0:
		return fmt.Errorf("faultplan: %s with empty link group", a.Op)
	case f.Repeat && a.Cycles < 1:
		return fmt.Errorf("faultplan: %s needs at least one cycle, got %d", a.Op, a.Cycles)
	case f.Repeat && a.Period <= 0:
		return fmt.Errorf("faultplan: %s needs a positive period, got %v", a.Op, a.Period)
	case f.Impairment && a.Impairment == nil:
		return fmt.Errorf("faultplan: %s without an impairment config", a.Op)
	case !f.Impairment && a.Impairment != nil:
		return fmt.Errorf("faultplan: %s carries an impairment config", a.Op)
	}
	for _, e := range a.links(g) {
		if !g.HasEdge(e.A, e.B) {
			return fmt.Errorf("faultplan: %s link %v not in topology", a.Op, e)
		}
	}
	if f.Impairment {
		if err := a.Impairment.Validate(); err != nil {
			return fmt.Errorf("faultplan: %s: %w", a.Op, err)
		}
	}
	return nil
}

// Schedule compiles the action onto the network's scheduler, one event
// per step: the first at virtual time at + a.At, and for a repeating op
// (FlapLink: down, up, down, up, …) 2·Cycles of them, Period apart. Each
// event applies its step to the action's links in order. Events are
// inserted in firing order, so among the same instant's events those of
// an earlier-scheduled action run first.
func (a Action) Schedule(net *netsim.Network, at des.Time) error {
	row := a.Op.row()
	if row.steps == nil {
		return fmt.Errorf("faultplan: unknown op %d", int(a.Op))
	}
	if row.transport && !net.HasImpairmentModel() {
		return fmt.Errorf("faultplan: %s without an impairment model (netsim.SetImpairment)", a.Op)
	}
	links := a.links(net.Graph())
	events := len(row.steps)
	if row.Repeat {
		events *= a.Cycles
	}
	for k := 0; k < events; k++ {
		do := row.steps[k%len(row.steps)]
		if err := net.At(at+a.At+des.Time(k)*a.Period, func() {
			for _, e := range links {
				do(net, e, a)
			}
		}); err != nil {
			return fmt.Errorf("faultplan: schedule %v: %w", a, err)
		}
	}
	return nil
}

// NeedsTransport reports whether any action in the plan requires an
// installed impairment model (Degrade/Undegrade); the experiment harness
// uses it to install a model even when the scenario has no base
// impairment.
func (p *Plan) NeedsTransport() bool {
	if p == nil {
		return false
	}
	for _, ph := range p.Phases {
		for _, a := range ph.Actions {
			if a.Op.row().transport {
				return true
			}
		}
	}
	return false
}

// Role tags a measured phase so the experiment harness can map it onto the
// legacy top-level result fields.
type Role string

const (
	// RoleNone is an ordinary phase.
	RoleNone Role = ""
	// RoleMain marks the phase whose metrics populate the top-level
	// result (convergence time, looping duration, ...). Without an
	// explicit RoleMain the first measured phase is the main phase.
	RoleMain Role = "main"
	// RoleRecovery marks the phase that populates Result.Recovery, the
	// legacy T_up block.
	RoleRecovery Role = "recovery"
)

// Phase is one run-to-quiescence segment of a plan.
type Phase struct {
	// Name labels the phase in results and diagnoses.
	Name string
	// Delay separates the previous phase's quiescence from this phase's
	// injection instant.
	Delay time.Duration
	// Actions is the phase's timeline; all offsets are relative to the
	// injection instant.
	Actions []Action
	// Measure requests per-phase convergence/looping/replay metrics.
	Measure bool
	// Role maps the phase onto legacy result fields; see Role.
	Role Role
}

// Plan is an ordered fault script.
type Plan struct {
	// Name labels the plan in results.
	Name string
	// Phases run in order; each waits for quiescence of its predecessor.
	Phases []Phase
}

// Validate checks the plan against the topology it will run on. A runnable
// plan needs at least one phase, at least one measured phase, and every
// action must reference existing topology elements.
func (p *Plan) Validate(g *topology.Graph) error {
	if p == nil {
		return errors.New("faultplan: nil plan")
	}
	if len(p.Phases) == 0 {
		return errors.New("faultplan: plan has no phases")
	}
	measured := 0
	for i, ph := range p.Phases {
		if ph.Delay < 0 {
			return fmt.Errorf("faultplan: phase %d (%s) has negative delay %v", i, ph.Name, ph.Delay)
		}
		if len(ph.Actions) == 0 {
			return fmt.Errorf("faultplan: phase %d (%s) has no actions", i, ph.Name)
		}
		switch ph.Role {
		case RoleNone, RoleMain, RoleRecovery:
		default:
			return fmt.Errorf("faultplan: phase %d (%s) has unknown role %q", i, ph.Name, ph.Role)
		}
		if ph.Measure {
			measured++
		}
		for _, a := range ph.Actions {
			if err := a.Validate(g); err != nil {
				return fmt.Errorf("faultplan: phase %d (%s): %w", i, ph.Name, err)
			}
		}
	}
	if measured == 0 {
		return errors.New("faultplan: plan has no measured phase")
	}
	return nil
}

// MainPhase returns the index of the phase whose metrics populate the
// top-level result: the first RoleMain phase, else the first measured
// phase, else -1.
func (p *Plan) MainPhase() int {
	for i, ph := range p.Phases {
		if ph.Role == RoleMain && ph.Measure {
			return i
		}
	}
	for i, ph := range p.Phases {
		if ph.Measure {
			return i
		}
	}
	return -1
}

// RecoveryPhase returns the index of the first measured RoleRecovery
// phase, or -1.
func (p *Plan) RecoveryPhase() int {
	for i, ph := range p.Phases {
		if ph.Role == RoleRecovery && ph.Measure {
			return i
		}
	}
	return -1
}

// Convenience action builders.

// FailLink fails link e.
func FailLink(e topology.Edge) Action { return Action{Op: LinkDown, Link: e} }

// RestoreLink repairs link e.
func RestoreLink(e topology.Edge) Action { return Action{Op: LinkUp, Link: e} }

// FailNode fails every link of node v.
func FailNode(v topology.Node) Action { return Action{Op: NodeDown, Node: v} }

// RestoreNode repairs every failed link of node v.
func RestoreNode(v topology.Node) Action { return Action{Op: NodeUp, Node: v} }

// FailGroup fails the listed links in one correlated instant.
func FailGroup(links ...topology.Edge) Action {
	return Action{Op: GroupDown, Links: links}
}

// RestoreGroup repairs the listed links in one correlated instant.
func RestoreGroup(links ...topology.Edge) Action {
	return Action{Op: GroupUp, Links: links}
}

// ResetSession bounces the BGP session on link e.
func ResetSession(e topology.Edge) Action { return Action{Op: SessionReset, Link: e} }

// Flap generates cycles fail/repair cycles of link e with period between
// consecutive transitions.
func Flap(e topology.Edge, cycles int, period time.Duration) Action {
	return Action{Op: FlapLink, Link: e, Cycles: cycles, Period: period}
}

// DegradeLink installs impairment cfg on link e.
func DegradeLink(e topology.Edge, cfg transport.Config) Action {
	c := cfg
	return Action{Op: Degrade, Link: e, Impairment: &c}
}

// DegradeGroup installs impairment cfg on every listed link in one
// correlated instant.
func DegradeGroup(cfg transport.Config, links ...topology.Edge) Action {
	c := cfg
	return Action{Op: Degrade, Links: links, Impairment: &c}
}

// RestoreImpairment removes link e's impairment override.
func RestoreImpairment(e topology.Edge) Action { return Action{Op: Undegrade, Link: e} }

// AtOffset returns the action shifted to fire at offset d within its
// phase.
func (a Action) AtOffset(d time.Duration) Action {
	a.At = d
	return a
}
