package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/core/sortedmap"
	"bgploop/internal/faultplan"
	"bgploop/internal/invariant"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// ScenarioSpec is the JSON scenario-file schema consumed by LoadScenario
// and `bgpsim -scenario <file>`. Durations are given in seconds for easy
// hand-editing; zero values fall back to the harness defaults.
type ScenarioSpec struct {
	Topology TopologySpec `json:"topology"`
	// Event is "tdown" or "tlong".
	Event string `json:"event"`
	// Dest is the destination AS. Omitted means AS 0. -1 picks the
	// family default: AS 0 again, except for the internet family, where it
	// is the paper's draw among the lowest-degree ASes, keyed by Seed (see
	// drawTDownDest, and drawTLong for a tlong event) — the destination
	// trial 0 of InternetTDown/InternetTLong picks for the same seed.
	Dest *int `json:"dest,omitempty"`
	// FailLink is the [a, b] link a tlong event fails. It defaults to the
	// paper's [0, n] shortcut for bclique, [4 0] for figure1, [0 1] for
	// ring and figure2, and for internet with "dest": -1 to the link drawn
	// together with the destination; no other family has a default.
	FailLink *[2]int `json:"failLink,omitempty"`

	// Policy names the routing policy (Scenario.NamedPolicy): "" or
	// "shortestPath" keeps the paper's shortest-path ranking;
	// "badGadget" installs Griffin's BAD GADGET per-node ranking, the
	// repo's reference UNSAFE configuration (a 4-node topology with dest
	// 0 only); and "gaoRexford" installs Gao-Rexford ranking and
	// valley-free export over the relationships
	// topology.InternetRelations assigns to the graph (any graph of at
	// least 4 nodes, any dest), which the analyzer proves SAFE. The name
	// is part of the cache key. Named policies are how spec
	// files — and hence the bgpd service — reach policy routing and
	// statically-UNSAFE configurations at all.
	Policy string `json:"policy,omitempty"`

	// MRAISeconds sets the MRAI timer; zero keeps the default, and a
	// negative value means an explicit zero MRAI (no rate limiting).
	MRAISeconds         float64         `json:"mraiSeconds,omitempty"`
	MRAIContinuous      bool            `json:"mraiContinuous,omitempty"`
	Enhancements        map[string]bool `json:"enhancements,omitempty"`
	Damping             bool            `json:"damping,omitempty"`
	FlapCycles          int             `json:"flapCycles,omitempty"`
	RestoreDelaySeconds float64         `json:"restoreDelaySeconds,omitempty"`
	Seed                int64           `json:"seed,omitempty"`
	// Workload parameters; zero keeps the harness defaults.
	PacketIntervalSeconds float64 `json:"packetIntervalSeconds,omitempty"`
	TTL                   int     `json:"ttl,omitempty"`
	LinkDelaySeconds      float64 `json:"linkDelaySeconds,omitempty"`
	SettleDelaySeconds    float64 `json:"settleDelaySeconds,omitempty"`
	// Transport, when present, impairs every link from t=0; see
	// TransportSpec. Per-link time-bounded impairments use faultPlan
	// degrade actions instead.
	Transport *TransportSpec `json:"transport,omitempty"`
	// Session, when present, enables the BGP session FSM (hold/keepalive
	// timers, backoff re-establishment); see SessionSpec.
	Session *SessionSpec `json:"session,omitempty"`
	// Guard configures the runtime invariant guards; nil keeps the
	// Scenario default (BGPSIM_GUARD environment variable, else off).
	Guard *invariant.Config `json:"guard,omitempty"`
	// FaultPlan, when present, replaces the single-event model ("event",
	// "failLink", "flapCycles", "restoreDelaySeconds" are then ignored
	// and "event" may be omitted).
	FaultPlan *FaultPlanSpec `json:"faultPlan,omitempty"`
	// MaxEvents caps the whole run; PhaseEventBudget caps each plan
	// phase; HorizonSeconds caps the run's virtual time. Zero keeps the
	// harness defaults (50M events, unlimited phase budget and horizon).
	MaxEvents        uint64            `json:"maxEvents,omitempty"`
	PhaseEventBudget uint64            `json:"phaseEventBudget,omitempty"`
	HorizonSeconds   float64           `json:"horizonSeconds,omitempty"`
	Extra            map[string]string `json:"-"`
}

// TransportSpec is the JSON form of a transport.Config (seconds-based
// durations, harness defaults for the zero retransmission parameters).
type TransportSpec struct {
	Loss                 float64 `json:"loss,omitempty"`
	Duplicate            float64 `json:"duplicate,omitempty"`
	ReorderProb          float64 `json:"reorderProb,omitempty"`
	ReorderWindowSeconds float64 `json:"reorderWindowSeconds,omitempty"`
	JitterSeconds        float64 `json:"jitterSeconds,omitempty"`
	RTOInitialSeconds    float64 `json:"rtoInitialSeconds,omitempty"`
	RTOMaxSeconds        float64 `json:"rtoMaxSeconds,omitempty"`
	MaxRetries           int     `json:"maxRetries,omitempty"`
}

// Config materialises the spec.
func (ts TransportSpec) Config() transport.Config {
	return transport.Config{
		Loss:          ts.Loss,
		Duplicate:     ts.Duplicate,
		ReorderProb:   ts.ReorderProb,
		ReorderWindow: time.Duration(ts.ReorderWindowSeconds * float64(time.Second)),
		Jitter:        time.Duration(ts.JitterSeconds * float64(time.Second)),
		RTOInitial:    time.Duration(ts.RTOInitialSeconds * float64(time.Second)),
		RTOMax:        time.Duration(ts.RTOMaxSeconds * float64(time.Second)),
		MaxRetries:    ts.MaxRetries,
	}
}

// NewTransportSpec renders a transport config back into spec form; nil
// for a nil config.
func NewTransportSpec(cfg *transport.Config) *TransportSpec {
	if cfg == nil {
		return nil
	}
	return &TransportSpec{
		Loss:                 cfg.Loss,
		Duplicate:            cfg.Duplicate,
		ReorderProb:          cfg.ReorderProb,
		ReorderWindowSeconds: cfg.ReorderWindow.Seconds(),
		JitterSeconds:        cfg.Jitter.Seconds(),
		RTOInitialSeconds:    cfg.RTOInitial.Seconds(),
		RTOMaxSeconds:        cfg.RTOMax.Seconds(),
		MaxRetries:           cfg.MaxRetries,
	}
}

// SessionSpec is the JSON form of a bgp.SessionConfig.
type SessionSpec struct {
	HoldSeconds            float64 `json:"holdSeconds"`
	KeepaliveSeconds       float64 `json:"keepaliveSeconds,omitempty"`
	ConnectRetrySeconds    float64 `json:"connectRetrySeconds,omitempty"`
	ConnectRetryMaxSeconds float64 `json:"connectRetryMaxSeconds,omitempty"`
}

// Config materialises the spec.
func (ss SessionSpec) Config() bgp.SessionConfig {
	return bgp.SessionConfig{
		HoldTime:          time.Duration(ss.HoldSeconds * float64(time.Second)),
		KeepaliveInterval: time.Duration(ss.KeepaliveSeconds * float64(time.Second)),
		ConnectRetry:      time.Duration(ss.ConnectRetrySeconds * float64(time.Second)),
		ConnectRetryMax:   time.Duration(ss.ConnectRetryMaxSeconds * float64(time.Second)),
	}
}

// NewSessionSpec renders a session config back into spec form; nil when
// the FSM is disabled (the spec's absence means disabled).
func NewSessionSpec(cfg bgp.SessionConfig) *SessionSpec {
	if !cfg.Enabled() {
		return nil
	}
	return &SessionSpec{
		HoldSeconds:            cfg.HoldTime.Seconds(),
		KeepaliveSeconds:       cfg.KeepaliveInterval.Seconds(),
		ConnectRetrySeconds:    cfg.ConnectRetry.Seconds(),
		ConnectRetryMaxSeconds: cfg.ConnectRetryMax.Seconds(),
	}
}

// FaultPlanSpec is the JSON form of a faultplan.Plan.
type FaultPlanSpec struct {
	Name   string      `json:"name,omitempty"`
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec is the JSON form of a faultplan.Phase.
type PhaseSpec struct {
	Name         string       `json:"name,omitempty"`
	DelaySeconds float64      `json:"delaySeconds,omitempty"`
	Actions      []ActionSpec `json:"actions"`
	Measure      bool         `json:"measure,omitempty"`
	// Role is "", "main", or "recovery".
	Role string `json:"role,omitempty"`
}

// ActionSpec is the JSON form of a faultplan.Action. Beside op and
// atSeconds, an action carries exactly the fields its op reads
// (faultplan.Fields): one that is missing is refused, and so is one the op
// does not read, which would otherwise be dropped silently on the way into
// the cache key.
type ActionSpec struct {
	// Op is one of faultplan.Ops: linkDown, linkUp, nodeDown, nodeUp,
	// groupDown, groupUp, sessionReset, flapLink, degrade, undegrade.
	Op        string  `json:"op"`
	AtSeconds float64 `json:"atSeconds,omitempty"`
	// Link is the [a, b] link of linkDown/linkUp/sessionReset/flapLink;
	// Node the node of nodeDown/nodeUp; Links the non-empty correlated
	// group of groupDown/groupUp. degrade and undegrade take link or
	// links, never both.
	Link  *[2]int  `json:"link,omitempty"`
	Node  *int     `json:"node,omitempty"`
	Links [][2]int `json:"links,omitempty"`
	// Cycles and PeriodSeconds belong to flapLink alone.
	Cycles        int     `json:"cycles,omitempty"`
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
	// Impairment is the transport configuration a degrade action applies;
	// no other op takes one.
	Impairment *TransportSpec `json:"impairment,omitempty"`
}

// Plan materialises the spec into a faultplan.Plan.
func (ps *FaultPlanSpec) Plan() (*faultplan.Plan, error) {
	p := &faultplan.Plan{Name: ps.Name}
	for i, phs := range ps.Phases {
		ph := faultplan.Phase{
			Name:    phs.Name,
			Delay:   time.Duration(phs.DelaySeconds * float64(time.Second)),
			Measure: phs.Measure,
			Role:    faultplan.Role(phs.Role),
		}
		for _, as := range phs.Actions {
			a, err := as.action()
			if err != nil {
				return nil, fmt.Errorf("experiment: faultPlan phase %d (%s): %w", i, phs.Name, err)
			}
			ph.Actions = append(ph.Actions, a)
		}
		p.Phases = append(p.Phases, ph)
	}
	return p, nil
}

func (as ActionSpec) action() (faultplan.Action, error) {
	op, err := faultplan.OpFromString(as.Op)
	if err != nil {
		return faultplan.Action{}, err
	}
	a := faultplan.Action{
		Op:     op,
		At:     time.Duration(as.AtSeconds * float64(time.Second)),
		Cycles: as.Cycles,
		Period: time.Duration(as.PeriodSeconds * float64(time.Second)),
	}
	if as.Link != nil {
		if a.Link, err = topology.EdgeOf(as.Link[0], as.Link[1]); err != nil {
			return faultplan.Action{}, fmt.Errorf("op %s: link: %w", as.Op, err)
		}
	}
	if as.Node != nil {
		if a.Node, err = topology.NodeOf(*as.Node); err != nil {
			return faultplan.Action{}, fmt.Errorf("op %s: node: %w", as.Op, err)
		}
	}
	for _, l := range as.Links {
		e, err := topology.EdgeOf(l[0], l[1])
		if err != nil {
			return faultplan.Action{}, fmt.Errorf("op %s: links: %w", as.Op, err)
		}
		a.Links = append(a.Links, e)
	}
	if as.Impairment != nil {
		cfg := as.Impairment.Config()
		a.Impairment = &cfg
	}
	// Present means non-zero after conversion, so what NewFaultPlanSpec
	// renders of an accepted action is accepted again.
	reads := a.Fields()
	for _, f := range []struct {
		name          string
		present, read bool
	}{
		{"link", as.Link != nil, reads.Link},
		{"node", as.Node != nil, reads.Node},
		{"links", len(as.Links) > 0, reads.Links},
		{"cycles", a.Cycles != 0, reads.Repeat},
		{"periodSeconds", a.Period != 0, reads.Repeat},
		{"impairment", as.Impairment != nil, reads.Impairment},
	} {
		switch {
		case f.present && !f.read:
			return faultplan.Action{}, fmt.Errorf("op %s: unexpected %q", as.Op, f.name)
		case f.read && !f.present:
			return faultplan.Action{}, fmt.Errorf("op %s: missing %q", as.Op, f.name)
		}
	}
	return a, nil
}

// NewFaultPlanSpec renders a plan back into its JSON spec form — the
// inverse of FaultPlanSpec.Plan for plans whose durations are whole
// numbers of nanoseconds-in-seconds (the spec stores seconds as float64).
func NewFaultPlanSpec(p *faultplan.Plan) *FaultPlanSpec {
	if p == nil {
		return nil
	}
	spec := &FaultPlanSpec{Name: p.Name}
	for _, ph := range p.Phases {
		phs := PhaseSpec{
			Name:         ph.Name,
			DelaySeconds: ph.Delay.Seconds(),
			Measure:      ph.Measure,
			Role:         string(ph.Role),
		}
		for _, a := range ph.Actions {
			// Exactly the fields the action reads: rendering must be
			// lossless, because CacheKey hashes the rendered plan spec and
			// an omitted field would alias behaviourally distinct plans.
			as := ActionSpec{Op: a.Op.String(), AtSeconds: a.At.Seconds()}
			reads := a.Fields()
			if reads.Link {
				as.Link = &[2]int{int(a.Link.A), int(a.Link.B)}
			}
			if reads.Node {
				n := int(a.Node)
				as.Node = &n
			}
			if reads.Links {
				for _, l := range a.Links {
					as.Links = append(as.Links, [2]int{int(l.A), int(l.B)})
				}
			}
			if reads.Repeat {
				as.Cycles, as.PeriodSeconds = a.Cycles, a.Period.Seconds()
			}
			if reads.Impairment {
				as.Impairment = NewTransportSpec(a.Impairment)
			}
			phs.Actions = append(phs.Actions, as)
		}
		spec.Phases = append(spec.Phases, phs)
	}
	return spec
}

// TopologySpec names a topology family and its parameters.
type TopologySpec struct {
	// Family is one of the generated families of topology.Families
	// (clique, bclique, chain, ring, star, figure1, figure2, internet, ba,
	// waxman), or the spec-only forms file and edges.
	Family string `json:"family"`
	// Size is the family's size parameter; for family "edges" it is the
	// node count.
	Size int `json:"size,omitempty"`
	// Seed drives generated families (internet, ba, waxman).
	Seed int64 `json:"seed,omitempty"`
	// Path is the edge-list file for family "file".
	Path string `json:"path,omitempty"`
	// Edges is the explicit [a, b] link list for family "edges" — the
	// self-contained form forensic bundles and the scenario shrinker use,
	// since it survives node removal without re-running a generator.
	Edges [][2]int `json:"edges,omitempty"`
}

// Build constructs the topology described by the spec.
func (ts TopologySpec) Build() (*topology.Graph, error) {
	switch ts.Family {
	case "file":
		f, err := os.Open(ts.Path)
		if err != nil {
			return nil, fmt.Errorf("experiment: open topology file: %w", err)
		}
		defer func() { _ = f.Close() }()
		return topology.ReadEdgeList(f)
	case "edges":
		if ts.Size <= 0 {
			return nil, fmt.Errorf("experiment: edges topology needs a positive size, got %d", ts.Size)
		}
		g := topology.New(ts.Size)
		g.SetName(fmt.Sprintf("edges-%d", ts.Size))
		for _, l := range ts.Edges {
			e, err := topology.EdgeOf(l[0], l[1])
			if err != nil {
				return nil, fmt.Errorf("experiment: edges topology: %w", err)
			}
			if err := g.AddEdge(e.A, e.B); err != nil {
				return nil, fmt.Errorf("experiment: edges topology: %w", err)
			}
		}
		return g, nil
	default:
		return topology.Generate(ts.Family, ts.Size, ts.Seed)
	}
}

// FlagScenario materialises the CLIs' -topo/-size/-event/-mrai/-enhance/
// -seed vocabulary through the spec: the one -seed drives both the
// generated topology and the run, and the internet family takes the
// paper's destination draw, so `-topo internet -seed s` is trial 0 of
// InternetTDown/InternetTLong.
func FlagScenario(topo string, size int, event string, mrai time.Duration, enhance string, seed int64) (Scenario, error) {
	spec := ScenarioSpec{
		Topology:     TopologySpec{Family: topo, Size: size, Seed: seed},
		Event:        event,
		Enhancements: map[string]bool{enhance: true},
		Seed:         seed,
	}
	if topo == "internet" {
		draw := -1
		spec.Dest = &draw
	}
	s, err := spec.Scenario()
	// Not through MRAISeconds: 1001ms comes back from float seconds as
	// 1.000999999s, and a nanosecond of MRAI moves digests.
	s.BGP.MRAI = mrai
	return s, err
}

// LoadScenario parses a JSON scenario spec and builds the Scenario.
func LoadScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		return Scenario{}, fmt.Errorf("experiment: parse scenario: %w", err)
	}
	return spec.Scenario()
}

// LoadScenarioFile is LoadScenario for a file path.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("experiment: open scenario: %w", err)
	}
	defer func() { _ = f.Close() }()
	return LoadScenario(f)
}

// Scenario materialises the spec into a runnable Scenario.
func (spec ScenarioSpec) Scenario() (Scenario, error) {
	g, err := spec.Topology.Build()
	if err != nil {
		return Scenario{}, err
	}
	cfg := bgp.DefaultConfig()
	switch {
	case spec.MRAISeconds > 0:
		cfg.MRAI = time.Duration(spec.MRAISeconds * float64(time.Second))
	case spec.MRAISeconds < 0:
		cfg.MRAI = 0
	}
	cfg.MRAIContinuous = spec.MRAIContinuous
	// Sorted iteration: with several enhancement keys the map order is
	// random, and any future order-dependent handling (or error text)
	// must not vary between loads of the same spec.
	for _, name := range sortedmap.Keys(spec.Enhancements) {
		if !spec.Enhancements[name] {
			continue
		}
		e, err := bgp.VariantByName(name)
		if err != nil {
			return Scenario{}, fmt.Errorf("experiment: %w", err)
		}
		cfg.Enhancements = cfg.Enhancements.With(e)
	}
	if spec.Damping {
		cfg.Damping = bgp.DefaultDamping()
	}

	// An omitted dest and "dest": -1 on a fixed family both mean AS 0. On
	// the internet family -1 is the paper's draw, which for a tlong event
	// picks the failed link together with the destination.
	dest := topology.Node(0)
	var drawnLink *topology.Edge
	switch {
	case spec.Dest == nil:
	case *spec.Dest != -1:
		if dest, err = topology.NodeOf(*spec.Dest); err != nil {
			return Scenario{}, fmt.Errorf("experiment: dest: %w", err)
		}
	case spec.Topology.Family != "internet":
	case spec.Event == "tlong" && spec.FaultPlan == nil:
		d, link, err := drawTLong(g, spec.Seed)
		if err != nil {
			return Scenario{}, err
		}
		dest, drawnLink = d, &link
	default:
		dest = drawTDownDest(g, spec.Seed)
	}

	s := Scenario{
		Graph:            g,
		Dest:             dest,
		BGP:              cfg,
		NamedPolicy:      spec.Policy,
		Seed:             spec.Seed,
		FlapCycles:       spec.FlapCycles,
		RestoreDelay:     time.Duration(spec.RestoreDelaySeconds * float64(time.Second)),
		MaxEvents:        spec.MaxEvents,
		PhaseEventBudget: spec.PhaseEventBudget,
		Horizon:          time.Duration(spec.HorizonSeconds * float64(time.Second)),
		PacketInterval:   time.Duration(spec.PacketIntervalSeconds * float64(time.Second)),
		TTL:              spec.TTL,
		LinkDelay:        time.Duration(spec.LinkDelaySeconds * float64(time.Second)),
		SettleDelay:      time.Duration(spec.SettleDelaySeconds * float64(time.Second)),
	}
	if spec.Transport != nil {
		tc := spec.Transport.Config()
		s.Transport = &tc
	}
	if spec.Session != nil {
		cfg.Session = spec.Session.Config()
		s.BGP = cfg
	}
	if spec.Guard != nil {
		s.Guard = *spec.Guard
	}
	if spec.FaultPlan != nil {
		plan, err := spec.FaultPlan.Plan()
		if err != nil {
			return Scenario{}, err
		}
		s.FaultPlan = plan
		if err := s.Validate(); err != nil {
			return Scenario{}, err
		}
		return s, nil
	}
	switch spec.Event {
	case "tdown":
		s.Event = TDown
	case "tlong":
		s.Event = TLong
		// Without an explicit link, the per-family default: the failure the
		// paper (or, for ring and figure2, the §3.2 analysis) studies there.
		switch family := spec.Topology.Family; {
		case spec.FailLink != nil:
			if s.FailLink, err = topology.EdgeOf(spec.FailLink[0], spec.FailLink[1]); err != nil {
				return Scenario{}, fmt.Errorf("experiment: failLink: %w", err)
			}
		case drawnLink != nil:
			s.FailLink = *drawnLink
		default:
			switch family {
			case "bclique":
				s.FailLink = topology.BCliqueShortcut(spec.Topology.Size)
			case "figure1":
				s.FailLink = topology.Figure1FailedLink()
			case "ring", "figure2":
				s.FailLink = topology.NormEdge(0, 1)
			default:
				return Scenario{}, fmt.Errorf("experiment: tlong on family %q needs an explicit failLink (a scenario spec field): only bclique, figure1, ring, figure2 and internet with a drawn destination have a default", family)
			}
		}
	default:
		return Scenario{}, fmt.Errorf("experiment: unknown event %q (want tdown, tlong, or a faultPlan)", spec.Event)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// NewScenarioSpec renders a Scenario back into its JSON spec form — the
// inverse of ScenarioSpec.Scenario, used by forensic bundles so a failed
// trial can be replayed and shrunk from the serialized spec alone. The
// topology is emitted as a self-contained "edges" family (node count plus
// explicit link list), which survives the shrinker's node and link
// removals without re-running a generator.
//
// Not every Scenario is spec-representable: a custom routing Policy, a
// PolicyFor or Export hook set by hand (a named policy travels by its
// name), non-default jitter or processing-delay ranges, a non-default
// damping configuration, or an SSLDImmediate flag without SSLD all
// return an error. TraceLimit is not carried: a trace is observation
// only, and a spec replays the run, not its trace.
func NewScenarioSpec(s Scenario) (*ScenarioSpec, error) {
	if s.Graph == nil {
		return nil, errors.New("experiment: nil topology is not spec-representable")
	}
	if s.BGP.PolicyFor != nil {
		return nil, errors.New("experiment: per-node PolicyFor hooks are not spec-representable")
	}
	switch s.BGP.Policy.(type) {
	case nil, routing.ShortestPath:
	default:
		return nil, fmt.Errorf("experiment: custom policy %T is not spec-representable", s.BGP.Policy)
	}
	if s.BGP.Export != nil {
		return nil, fmt.Errorf("experiment: custom export policy %T is not spec-representable", s.BGP.Export)
	}
	def := bgp.DefaultConfig()
	if s.BGP.JitterMin != def.JitterMin || s.BGP.JitterMax != def.JitterMax ||
		s.BGP.ProcDelayMin != def.ProcDelayMin || s.BGP.ProcDelayMax != def.ProcDelayMax {
		return nil, errors.New("experiment: non-default jitter or processing-delay ranges are not spec-representable")
	}

	edges := s.Graph.Edges()
	spec := &ScenarioSpec{
		Topology: TopologySpec{
			Family: "edges",
			Size:   s.Graph.NumNodes(),
			Edges:  make([][2]int, len(edges)),
		},
		MRAIContinuous:      s.BGP.MRAIContinuous,
		FlapCycles:          s.FlapCycles,
		RestoreDelaySeconds: s.RestoreDelay.Seconds(),
		Seed:                s.Seed,
		MaxEvents:           s.MaxEvents,
		PhaseEventBudget:    s.PhaseEventBudget,
		HorizonSeconds:      s.Horizon.Seconds(),

		PacketIntervalSeconds: s.PacketInterval.Seconds(),
		TTL:                   s.TTL,
		LinkDelaySeconds:      s.LinkDelay.Seconds(),
		SettleDelaySeconds:    s.SettleDelay.Seconds(),
	}
	for i, e := range edges {
		spec.Topology.Edges[i] = [2]int{int(e.A), int(e.B)}
	}
	d := int(s.Dest)
	spec.Dest = &d
	spec.Policy = s.NamedPolicy

	if s.BGP.MRAI == 0 {
		spec.MRAISeconds = -1 // explicit zero, not "use the default"
	} else {
		spec.MRAISeconds = s.BGP.MRAI.Seconds()
	}

	if e := s.BGP.Enhancements; e.SSLDImmediate && !e.SSLD {
		return nil, errors.New("experiment: SSLDImmediate without SSLD is not spec-representable")
	} else if names := e.Names(); len(names) > 0 {
		spec.Enhancements = make(map[string]bool, len(names))
		for _, name := range names {
			spec.Enhancements[name] = true
		}
	}

	if s.BGP.Damping != nil {
		if *s.BGP.Damping != *bgp.DefaultDamping() {
			return nil, errors.New("experiment: non-default damping configuration is not spec-representable")
		}
		spec.Damping = true
	}

	spec.Transport = NewTransportSpec(s.Transport)
	spec.Session = NewSessionSpec(s.BGP.Session)

	if s.Guard != (invariant.Config{}) {
		gc := s.Guard
		spec.Guard = &gc
	}

	if s.FaultPlan != nil {
		spec.FaultPlan = NewFaultPlanSpec(s.FaultPlan)
		return spec, nil
	}
	switch s.Event {
	case TDown:
		spec.Event = "tdown"
	case TLong:
		spec.Event = "tlong"
		spec.FailLink = &[2]int{int(s.FailLink.A), int(s.FailLink.B)}
	default:
		return nil, fmt.Errorf("experiment: unknown event kind %d is not spec-representable", int(s.Event))
	}
	return spec, nil
}
