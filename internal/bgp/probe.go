package bgp

import (
	"sort"

	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Tee fans out observer events to several observers in call order. Nil
// entries are skipped; a single surviving observer is returned unwrapped,
// without allocating.
func Tee(obs ...Observer) Observer {
	n := 0
	var only Observer
	for _, o := range obs {
		if o != nil {
			n++
			only = o
		}
	}
	switch n {
	case 0:
		return NopObserver{}
	case 1:
		return only
	}
	list := make(teeObserver, 0, n)
	for _, o := range obs {
		if o != nil {
			list = append(list, o)
		}
	}
	return list
}

type teeObserver []Observer

// RouteChanged implements Observer.
func (t teeObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	for _, o := range t {
		o.RouteChanged(now, node, dest, nexthop, best)
	}
}

// UpdateSent implements Observer.
func (t teeObserver) UpdateSent(now des.Time, from, to topology.Node, update Update) {
	for _, o := range t {
		o.UpdateSent(now, from, to, update)
	}
}

var _ Observer = teeObserver{}

// maxTrackedStates caps the recurrence map so a pathological run cannot
// grow probe memory without bound; states beyond the cap are counted in
// StatesDropped and excluded from recurrence detection.
const maxTrackedStates = 1 << 16

// OscillationProbe is an Observer that fingerprints the global routing
// state for one destination and counts how often each distinct state
// recurs. A policy oscillation (e.g. Griffin's BAD GADGET) cycles through
// a small set of global RIB states, so a high recurrence count while
// updates are still flowing distinguishes "oscillating" from the merely
// "still converging" — the diagnosis the non-quiescence watchdog reports.
//
// The global fingerprint is maintained incrementally, XOR-ing out a
// node's old contribution and XOR-ing in the new one. Runs carry no probe:
// it rides only the deterministic re-run that diagnoses a watchdog cut.
type OscillationProbe struct {
	dest topology.Node

	// perNode[v] is v's current contribution to the combined fingerprint
	// (a mix of node ID and best-path hash); combined is the XOR of all
	// contributions — a canonical fingerprint of the global RIB state.
	perNode  []uint64
	combined uint64

	// counts tracks how many times each combined fingerprint has been
	// entered. Never iterated (detlint maprange); the statistics below
	// are maintained incrementally instead.
	counts        map[uint64]int
	maxRecurrence int
	statesDropped int

	// Per-phase counters, reset by BeginPhase.
	updates    []int
	phaseStart des.Time
}

// NewOscillationProbe creates a probe for a numNodes-node topology
// observing routes toward dest.
func NewOscillationProbe(numNodes int, dest topology.Node) *OscillationProbe {
	return &OscillationProbe{
		dest:    dest,
		perNode: make([]uint64, numNodes),
		counts:  make(map[uint64]int),
		updates: make([]int, numNodes),
	}
}

// BeginPhase resets the per-phase statistics (update counts, recurrence
// map) at a phase boundary. The routing-state fingerprint itself carries
// over: the network's state persists across phases, only the measurement
// window restarts.
func (p *OscillationProbe) BeginPhase(now des.Time) {
	p.phaseStart = now
	for i := range p.updates {
		p.updates[i] = 0
	}
	clear(p.counts)
	p.maxRecurrence = 0
	p.statesDropped = 0
}

// RouteChanged implements Observer: fold the node's new best path into the
// global fingerprint and record the resulting state.
func (p *OscillationProbe) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	if dest != p.dest || int(node) >= len(p.perNode) {
		return
	}
	h := uint64(2166136261) // FNV offset basis keeps "no route" distinct from zero
	h = mix64(h ^ uint64(int64(nexthop)))
	for _, v := range best {
		h = mix64(h ^ uint64(int64(v)))
	}
	contrib := mix64(h ^ (uint64(int64(node)) * 0x9E3779B97F4A7C15))
	p.combined ^= p.perNode[node] ^ contrib
	p.perNode[node] = contrib

	c, ok := p.counts[p.combined]
	if !ok && len(p.counts) >= maxTrackedStates {
		p.statesDropped++
		return
	}
	c++
	p.counts[p.combined] = c
	if c > p.maxRecurrence {
		p.maxRecurrence = c
	}
}

// UpdateSent implements Observer: count per-node update transmissions for
// the phase's top-talker report.
func (p *OscillationProbe) UpdateSent(now des.Time, from, to topology.Node, update Update) {
	if int(from) < len(p.updates) {
		p.updates[from]++
	}
}

var _ Observer = (*OscillationProbe)(nil)

// mix64 is the splitmix64 finalizer — a cheap avalanche so structurally
// similar paths land on unrelated fingerprints.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NodeUpdates is one row of the top-talker report: how many updates a node
// sent during the observed phase.
type NodeUpdates struct {
	Node      topology.Node
	Updates   int
	PerSecond float64
}

// OscillationStats is a snapshot of the probe's phase statistics, taken
// when a watchdog fires.
type OscillationStats struct {
	// PhaseStart/Now bound the observation window in virtual time.
	PhaseStart des.Time
	Now        des.Time
	// DistinctStates is the number of distinct global RIB fingerprints
	// entered during the phase; MaxRecurrence is how often the most
	// revisited one recurred. StatesDropped counts states beyond the
	// tracking cap.
	DistinctStates int
	MaxRecurrence  int
	StatesDropped  int
	// Talkers lists nodes that sent updates during the phase, most
	// talkative first (ties broken by node ID for determinism).
	Talkers []NodeUpdates
}

// Snapshot captures the phase statistics at virtual time now.
func (p *OscillationProbe) Snapshot(now des.Time) OscillationStats {
	st := OscillationStats{
		PhaseStart:     p.phaseStart,
		Now:            now,
		DistinctStates: len(p.counts),
		MaxRecurrence:  p.maxRecurrence,
		StatesDropped:  p.statesDropped,
	}
	window := (now - p.phaseStart).Seconds()
	for v, n := range p.updates {
		if n == 0 {
			continue
		}
		row := NodeUpdates{Node: topology.Node(v), Updates: n}
		if window > 0 {
			row.PerSecond = float64(n) / window
		}
		st.Talkers = append(st.Talkers, row)
	}
	sort.Slice(st.Talkers, func(i, j int) bool {
		if st.Talkers[i].Updates != st.Talkers[j].Updates {
			return st.Talkers[i].Updates > st.Talkers[j].Updates
		}
		return st.Talkers[i].Node < st.Talkers[j].Node
	})
	return st
}
