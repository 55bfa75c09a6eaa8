package bgp

import (
	"fmt"
	"math/rand"
	"slices"

	"bgploop/internal/des"
	"bgploop/internal/invariant"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Speaker is one AS's BGP process. It consumes updates delivered by the
// network, maintains a routing.Table per destination, and emits updates
// according to BGP's timing rules:
//
//   - a serial route processor: each received update occupies the node for
//     a uniform processing delay, and updates queue FIFO behind it;
//   - a per-(destination, peer) MRAI timer with multiplicative jitter that
//     rate-limits announcements (and, under WRATE, withdrawals);
//   - withdrawals bypass the MRAI timer (RFC 1771) unless WRATE is on;
//   - immediate session-failure detection (PeerDown).
//
// Speakers are driven entirely by the DES kernel and are not safe for
// concurrent use; the kernel is single-threaded by design.
//
// The speakers of a network are built in one pass (NewSpeakers) and live
// in one slab, sharing one validated Config; their per-peer and
// per-destination state is carved from slabs of the group.
type Speaker struct {
	id     topology.Node
	sched  *des.Scheduler
	net    *netsim.Network
	grp    *group
	cfg    *Config // the group's
	obs    Observer
	policy routing.Policy // resolved from cfg.PolicyFor / cfg.Policy

	rngProc *rand.Rand
	rngJit  *rand.Rand
	rngSess *rand.Rand // session backoff jitter; nil unless the FSM is on

	// nbrs is the node's neighbor list: the far ends of its links in
	// netsim's link order (sorted), copied at construction. A peer's
	// position in it — its slot — addresses every per-peer slice here and
	// in destState, and the link to it is link0+slot; a node that is not
	// in it is not a peer.
	nbrs  []topology.Node
	link0 int
	// up marks the slots whose peering currently carries routes.
	up []bool

	// sessions holds per-peer FSM state by slot (Config.Session enabled
	// only). With the FSM off, sessions is nil and up tracks the physical
	// link directly, as in the paper's model.
	sessions []sessionState

	// dests holds the state of each destination by its index in the
	// group (see group.index), so ranging over it visits destinations in
	// ascending order; nil marks one never heard of.
	dests []*destState
	// j is the speaker's position in its group and at the offset of its
	// first link among the group's links: they locate its share of the
	// group's slabs.
	j, at int

	// busyUntil models the serial route processor: the instant the node
	// finishes processing everything currently queued. The queued
	// processing events wait on procQ, in completion order.
	busyUntil des.Time
	procQ     des.Lane

	stats Stats
}

// group is what the speakers built in one pass share: the validated
// configuration, the destination index, the slabs their per-destination
// state is carved from and the storage the paths and announcements of their
// best changes are cut from.
type group struct {
	cfg Config
	// pos maps a destination to its index among the group's origins,
	// which ascends with the destination; -1 marks a node that originates
	// nothing. A speaker built alone (NewSpeaker) knows no origins: its
	// pos is nil and any node is a destination, at index = its id.
	pos []int32
	k   int // the number of origins, len(Speaker.dests) in the group
	// slabs holds the destState of speaker j for destination i at
	// j*k+i, and its per-peer slots at k*at+i*deg; empty without pos.
	slabs slabs
	// stamp holds, per node of the graph, the generation gen of the last
	// received path that named it (see simple); made on the first check.
	stamp []uint32
	gen   uint32
	// paths is the arena of every table's best path; ups and opens box
	// the announcements and the Opens the speakers send.
	paths routing.Arena
	ups   slab[Update]
	opens slab[Open]
}

// slab boxes messages in blocks that start at 16 and double up to 64: a
// trial leaves at most one block's tail unused. Nothing in a slab is
// reused: a message boxed there stays as it was sent while anything
// holds it.
type slab[T any] struct {
	free []T // the unused tail of the current block
	next int // the next block's size
}

// box copies m into the slab and returns its address.
func (s *slab[T]) box(m T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, max(s.next, 16))
		s.next = min(2*len(s.free), 64)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = m
	return p
}

// simple reports whether every AS on p is a node of an n-node graph and no
// AS repeats, in one pass: a node already stamped with this check's
// generation is on p twice. The stamps are cleared when gen wraps, so a
// stale stamp never equals a live generation.
func (g *group) simple(p routing.Path, n int) bool {
	if g.stamp == nil {
		g.stamp = make([]uint32, n)
	}
	if g.gen++; g.gen == 0 {
		clear(g.stamp)
		g.gen = 1
	}
	for _, v := range p {
		if uint(v) >= uint(len(g.stamp)) || g.stamp[v] == g.gen {
			return false
		}
		g.stamp[v] = g.gen
	}
	return true
}

// index returns dest's index in a speaker's dests; a negative one means
// dest is not a destination of the group.
func (g *group) index(dest topology.Node) int {
	switch {
	case g.pos == nil:
		return int(dest)
	case uint(dest) < uint(len(g.pos)):
		return int(g.pos[dest])
	}
	return -1
}

// slabs is storage for destStates and their per-peer slots.
type slabs struct {
	states []destState
	adv    []routing.Path
	mrai   []mraiState
	damp   []dampState // Config.Damping only
	raw    []routing.Candidate
}

func makeSlabs(states, slots int, damping bool) slabs {
	sl := slabs{
		states: make([]destState, states),
		adv:    make([]routing.Path, slots),
		mrai:   make([]mraiState, slots),
		raw:    make([]routing.Candidate, slots),
	}
	if damping {
		sl.damp = make([]dampState, slots)
	}
	return sl
}

// carve returns states[st] with the per-peer slots [at, at+deg) as its
// own and its best paths cut from arena. Every slice is cut with its
// capacity, so none can grow into a neighbour's slots.
func (sl *slabs) carve(st, at, deg int, self, dest topology.Node, policy routing.Policy, arena *routing.Arena) *destState {
	hi := at + deg
	ds := &sl.states[st]
	ds.table.Init(self, dest, policy, sl.raw[at:at:hi], arena)
	ds.wd = Update{Dest: dest, Withdraw: true}
	ds.adv = sl.adv[at:hi:hi]
	ds.mrai = sl.mrai[at:hi:hi]
	if sl.damp != nil {
		ds.damp = sl.damp[at:hi:hi]
	}
	return ds
}

// destState is the per-destination protocol state. Its per-peer slices
// are indexed by slot. It never moves once made: pending MRAI events
// carry a pointer to it.
type destState struct {
	table routing.Table
	// adv holds the last route advertised to each peer (nil = withdrawn
	// or never advertised). BGP advertises "only upon route changes", so
	// sends are suppressed when the desired route equals adv.
	adv []routing.Path
	// mrai holds the per-peer MRAI timer state for this destination.
	mrai []mraiState
	// damp holds per-peer flap-damping state, zero for a peer with no
	// flap history and again after its session ends (Config.Damping
	// only; nil otherwise).
	damp []dampState

	// announce is the message carrying the current best path, boxed in
	// the group's update slab on the first send after a best change and
	// handed to every peer that is told; wd is the destination's one
	// withdrawal, sent as &wd. Neither changes once sent.
	announce *Update
	wd       Update
}

// Event kinds a speaker schedules on itself (des.Receiver). n is always a
// peer slot.
const (
	evProcess = iota // an update's processing delay is over; arg is the *Update
	evMRAI           // an MRAI timer releases the sends waiting on it; arg is the *destState
	evRetry          // the session's ConnectRetry timer expired
	evHold           // the session's hold timer expired
	evKeep           // the session's keepalive timer ticked
	evReuse          // a damped route's suppression ends; arg is the *destState
)

// mraiState is the MRAI timer of one (destination, peer) pair.
type mraiState struct {
	// timer is the instant a waiting send is released. In the reset model
	// armMRAI reserves the expiry's key (des.Scheduler.Reserve), the timer
	// runs while the key is reserved, and only deferSend claims it as an
	// event: an expiry no send waits on never enters the event queue. In
	// the continuous model it is the next tick, reserved and claimed
	// together when a send goes pending.
	timer   des.Reservation
	pending bool // re-evaluate what to advertise when the timer releases

	// Continuous timer model (Config.MRAIContinuous): the timer
	// free-runs with a fixed jittered interval from a random phase, and
	// sends are released only at tick instants.
	interval  des.Time
	phase     des.Time
	continual bool // interval/phase initialised
}

// NewSpeakers creates the speakers of every node of net's graph, in
// ascending node order, attaches them to the network and starts their
// peerings; the result is indexed by node. origins are the destinations
// the speakers will route, each originated by its own node: a speaker
// ignores an update for any other, and only an origin may Originate.
func NewSpeakers(sched *des.Scheduler, net *netsim.Network, cfg Config, rng *des.RNG, obs Observer, origins []topology.Node) ([]*Speaker, error) {
	g := net.Graph()
	pos := make([]int32, g.NumNodes())
	for _, o := range origins {
		if !g.Valid(o) {
			return nil, fmt.Errorf("bgp: origin %d is not a node of the graph", o)
		}
		pos[o] = 1
	}
	k := 0
	for v, origin := range pos {
		pos[v] = -1
		if origin == 1 {
			pos[v], k = int32(k), k+1
		}
	}
	built, err := build(sched, net, cfg, rng, obs, 0, g.NumNodes(), pos, k)
	if err != nil {
		return nil, err
	}
	out := make([]*Speaker, len(built))
	for v := range built {
		out[v] = &built[v]
	}
	return out, nil
}

// NewSpeaker creates the speaker for node id alone, attaches it to the
// network and starts its peerings. It knows no origins, so it routes
// toward any node and its per-destination state is allocated as each
// destination is first heard of.
func NewSpeaker(id topology.Node, sched *des.Scheduler, net *netsim.Network, cfg Config, rng *des.RNG, obs Observer) (*Speaker, error) {
	s, err := build(sched, net, cfg, rng, obs, id, 1, nil, 0)
	if err != nil {
		return nil, err
	}
	return &s[0], nil
}

// build is the one construction pass: the speakers of nodes first through
// first+count-1, with destination index pos over k origins (see group).
// Each speaker is made, attached and, with the FSM on, starts connecting
// before the next is made, as if each had been built on its own.
func build(sched *des.Scheduler, net *netsim.Network, cfg Config, rng *des.RNG, obs Observer, first topology.Node, count int, pos []int32, k int) ([]Speaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	g := &group{cfg: cfg.withDefaults(), pos: pos, k: k}
	fsm := g.cfg.Session.Enabled()
	// The nodes' links are contiguous in netsim's table, from base.
	base, _ := net.Links(first)
	_, last := net.Links(first + topology.Node(count) - 1)
	links := last - base
	if pos != nil {
		g.slabs = makeSlabs(count*k, links*k, g.cfg.Damping)
	}
	speakers := make([]Speaker, count)
	nbrs := make([]topology.Node, 0, links)
	up := make([]bool, links)
	var sessions []sessionState
	streams := 2
	if fsm {
		sessions = make([]sessionState, links)
		streams = 3
	}
	rngs := make([]rand.Rand, streams*count)
	rng.OpenN(rngs[:count], "bgp/proc/", int(first))
	rng.OpenN(rngs[count:2*count], "bgp/jitter/", int(first))
	if fsm {
		rng.OpenN(rngs[2*count:], "bgp/session/", int(first))
	}
	dests := make([]*destState, count*k)

	for j := range speakers {
		id := first + topology.Node(j)
		lo, hi := net.Links(id)
		// Slot i is link lo+i because this loop makes it so.
		for l := lo; l < hi; l++ {
			nbrs = append(nbrs, net.LinkTo(l))
		}
		at, end := lo-base, hi-base
		s := &speakers[j]
		*s = Speaker{
			id:      id,
			sched:   sched,
			net:     net,
			grp:     g,
			cfg:     &g.cfg,
			obs:     obs,
			policy:  g.cfg.Policy,
			rngProc: &rngs[j],
			rngJit:  &rngs[count+j],
			nbrs:    nbrs[at:end:end],
			link0:   lo,
			up:      up[at:end:end],
			dests:   dests[j*k : (j+1)*k : (j+1)*k],
			j:       j,
			at:      at,
		}
		if g.cfg.PolicyFor != nil {
			s.policy = g.cfg.PolicyFor(id)
		}
		if fsm {
			s.rngSess = &rngs[2*count+j]
			s.sessions = sessions[at:end:end]
		}
		net.Attach(id, s)
		if fsm {
			// Cold start: every peering begins in Connect and must complete
			// a handshake before routes flow; the peer set stays empty
			// until the first establish (peerJoin).
			for slot := range s.nbrs {
				s.startConnect(slot)
			}
		} else {
			for slot := range s.up {
				s.up[slot] = true
			}
		}
	}
	return speakers, nil
}

// slot returns peer's position in the neighbor list, or -1 if peer is not
// a neighbor.
func (s *Speaker) slot(peer topology.Node) int {
	if i, ok := slices.BinarySearch(s.nbrs, peer); ok {
		return i
	}
	return -1
}

// ID returns the speaker's AS number.
func (s *Speaker) ID() topology.Node { return s.id }

// Stats returns a snapshot of the speaker's protocol counters.
func (s *Speaker) Stats() Stats { return s.stats }

// Peers returns the speaker's current (up) peers in ascending order.
func (s *Speaker) Peers() []topology.Node {
	var out []topology.Node
	for slot, peer := range s.nbrs {
		if s.up[slot] {
			out = append(out, peer)
		}
	}
	return out
}

// Table returns the routing table for dest, or nil if the speaker has
// never heard of it.
func (s *Speaker) Table(dest topology.Node) *routing.Table {
	if i := s.grp.index(dest); i >= 0 && i < len(s.dests) && s.dests[i] != nil {
		return &s.dests[i].table
	}
	return nil
}

// Originate declares that this speaker's AS originates the destination
// (dest must equal the speaker's ID) and announces it to all peers at the
// current virtual time.
func (s *Speaker) Originate(dest topology.Node) error {
	if dest != s.id {
		return fmt.Errorf("bgp: node %d cannot originate destination %d", s.id, dest)
	}
	st := s.destState(dest)
	if st == nil {
		return fmt.Errorf("bgp: node %d is not an origin of its speaker group", s.id)
	}
	s.obs.RouteChanged(s.sched.Now(), s.id, dest, st.table.NextHop(), st.table.Best())
	s.advertiseAll(st)
	return nil
}

// Deliver implements netsim.Handler. Session messages (Open, Keepalive)
// are handled at the delivery instant — only routing messages occupy the
// serial route processor. Updates additionally refresh the sender's hold
// timer on arrival: any TCP segment from the peer proves liveness. A
// message from a node that is not a neighbor is ignored.
func (s *Speaker) Deliver(from topology.Node, payload any) {
	slot := s.slot(from)
	if slot < 0 {
		return
	}
	if s.cfg.Session.Enabled() {
		switch m := payload.(type) {
		case *Open:
			if m != nil {
				s.handleOpen(slot, m)
				return
			}
		case Keepalive:
			s.refreshHold(slot)
			return
		case *Update:
			s.refreshHold(slot)
		}
	}
	up, ok := payload.(*Update)
	if !ok || up == nil {
		s.stats.MalformedDropped++
		return
	}
	now := s.sched.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	proc := des.Uniform(s.rngProc, s.cfg.ProcDelayMin, s.cfg.ProcDelayMax)
	completion := start + proc
	s.busyUntil = completion
	// completion = max(now, busyUntil) + proc with proc >= ProcDelayMin >= 0
	// (enforced by Config.Validate) and busyUntil only ever advanced, so
	// completion >= now, and >= every completion already on procQ, by
	// construction. The update goes on as it came: one *Update serves the
	// send, the delivery and this event.
	s.schedule(&s.procQ, completion, evProcess, slot, up)
}

// schedule queues a typed event on the speaker itself (see Fire), on lane
// when it is not nil. It is the one way a speaker sets a timer.
//
// Unreachability justification (robustness audit): ScheduleLane fails only
// for instants before Now or before the lane's latest, and every caller
// passes Now plus a delay that is non-negative by construction:
//   - the processor-queue completion (Deliver), which never decreases;
//   - the MRAI expiry and continuous tick (armMRAI, deferSend): a
//     validated MRAI >= 0 times a jitter factor Config.Validate keeps
//     positive, and a reset-model interval <= 0 is never armed;
//   - the hold time and keepalive interval (refreshHold, armKeepalive),
//     which SessionConfig.Validate refuses when negative (the hold time
//     is positive whenever the FSM runs);
//   - the connect backoff (armRetry), clamped to >= 1 after its jitter;
//   - the damping reuse delay (scheduleReuse): reuseDelay returns 0 at or
//     below the reuse threshold and above it a positive number of half
//     lives.
//
// The callers are netsim.Handler entry points and timer events, which have
// no error channel — a violated invariant here is a kernel/config bug, not
// a scenario condition, and must fail loudly at the violation site. Sweeps
// survive it: trial recovery converts the invariant.Unreachable panic into
// a forensic bundle with a stable, shrinkable signature.
func (s *Speaker) schedule(lane *des.Lane, at des.Time, kind, slot int, arg any) des.Handle {
	h, err := s.sched.ScheduleLane(lane, at, s, kind, slot, 0, arg)
	if err != nil {
		invariant.Unreachable("bgp-schedule", fmt.Sprintf("impossible past scheduling: %v", err))
	}
	return h
}

// reserve reserves the key of an MRAI release of slot at at; see schedule
// for why a refusal is unreachable.
func (s *Speaker) reserve(at des.Time, slot int, st *destState) des.Reservation {
	r, err := s.sched.Reserve(at, s, evMRAI, slot, 0, st)
	if err != nil {
		invariant.Unreachable("bgp-schedule", fmt.Sprintf("impossible past scheduling: %v", err))
	}
	return r
}

// Fire implements des.Receiver for the events schedule queues.
func (s *Speaker) Fire(kind, slot int, _ uint64, arg any) {
	switch kind {
	case evProcess:
		s.process(slot, arg.(*Update))
	case evMRAI:
		s.mraiExpired(arg.(*destState), slot)
	case evRetry:
		s.retryExpired(slot)
	case evHold:
		s.holdExpired(slot)
	case evKeep:
		s.keepTick(slot)
	case evReuse:
		s.reuseRoute(arg.(*destState), slot)
	}
}

// PeerDown implements netsim.Handler: the physical link to peer failed.
// With the FSM off the link is the session: all state learned from the
// peer is discarded immediately and the decision process reruns (the
// paper models failure detection as instantaneous; only *routing
// messages* incur processing delay). With the FSM on, the session dies
// with the link and the peering parks in Idle until PeerUp.
func (s *Speaker) PeerDown(peer topology.Node) {
	slot := s.slot(peer)
	if slot < 0 {
		return
	}
	if s.cfg.Session.Enabled() {
		s.stopTimers(slot)
		s.sessions[slot].state = SessionIdle
	}
	s.peerLeave(slot)
}

// peerLeave discards everything learned over the peering in slot — BGP's
// implicit withdrawal when a session ends, however it ended (physical
// failure, or hold-timer expiry via teardownSession).
func (s *Speaker) peerLeave(slot int) {
	if !s.up[slot] {
		return
	}
	s.up[slot] = false
	for _, st := range s.dests {
		if st == nil {
			continue
		}
		s.sched.Drop(st.mrai[slot].timer)
		st.mrai[slot] = mraiState{}
		if st.damp != nil {
			st.damp[slot].reuse.Cancel()
			st.damp[slot] = dampState{}
		}
		st.adv[slot] = nil
		if st.table.RemovePeer(s.nbrs[slot]) {
			s.bestChanged(st)
		}
	}
}

// PeerUp implements netsim.Handler: the physical link to peer
// (re)appeared. With the FSM off the session is up at once; with the FSM
// on a handshake must complete first (startConnect), and routes flow only
// after establish.
func (s *Speaker) PeerUp(peer topology.Node) {
	slot := s.slot(peer)
	if slot < 0 {
		return
	}
	if s.cfg.Session.Enabled() {
		if s.sessions[slot].state != SessionIdle {
			return
		}
		s.startConnect(slot)
		return
	}
	s.peerJoin(slot)
}

// peerJoin starts the routing exchange of a fresh peering: BGP exchanges
// full tables on session start, so the speaker advertises its current
// best route for every known destination to the new peer.
func (s *Speaker) peerJoin(slot int) {
	if s.up[slot] {
		return
	}
	s.up[slot] = true
	for _, st := range s.dests {
		if st == nil {
			continue
		}
		// Fresh session: no advertisement state, no timer state.
		st.adv[slot] = nil
		st.mrai[slot] = mraiState{}
		s.advertise(st, slot)
	}
}

// process applies one update received over slot after its processing
// delay. An announcement is accepted only if its path starts at the sender,
// names nodes of the graph and repeats none; the table then keeps that path
// as it came, shared with the sender and every other receiver.
func (s *Speaker) process(slot int, up *Update) {
	if !s.up[slot] {
		// The session died while the update sat in the processor queue;
		// its contents are obsolete by definition.
		return
	}
	from := s.nbrs[slot]
	s.stats.UpdatesReceived++
	if !up.Withdraw && (up.Path.First() != from || !s.grp.simple(up.Path, s.net.Graph().NumNodes())) {
		s.stats.MalformedDropped++
		return
	}
	st := s.destState(up.Dest)
	if st == nil {
		s.stats.MalformedDropped++ // not a destination of the group
		return
	}
	if s.cfg.Damping {
		applied, ok := s.dampUpdate(st, slot, up)
		if !ok {
			return // suppressed: buffered until the reuse timer fires
		}
		up = applied
	}
	var changed bool
	if up.Withdraw {
		changed = st.table.Withdraw(from)
	} else {
		changed = st.table.Update(from, up.Path)
	}
	if s.cfg.Enhancements.Assertion {
		changed = s.assertionSweep(st, from, up) || changed
	}
	if changed {
		s.bestChanged(st)
	}
}

// assertionSweep implements the Assertion enhancement (§5): when node v
// receives path(u, new) from neighbor u, v removes any stored path that
// includes u and contains a sub-path from u different from path(u, new);
// on a withdrawal from u, every stored path through u is removed.
func (s *Speaker) assertionSweep(st *destState, from topology.Node, up *Update) bool {
	invalidated := 0
	changed := st.table.Invalidate(func(peer topology.Node, path routing.Path) bool {
		if peer == from {
			return true
		}
		suffix, through := path.SuffixFrom(from)
		if !through {
			return true // does not involve u; no assertion applies
		}
		if up.Withdraw {
			invalidated++
			return false // u has no route, so no path through u is valid
		}
		if suffix.Equal(up.Path) {
			return true
		}
		invalidated++
		return false
	})
	s.stats.AssertionInvalidations += invalidated
	return changed
}

// bestChanged reacts to a loc-RIB change: records the FIB change and
// (re)advertises to every peer subject to the timing rules.
func (s *Speaker) bestChanged(st *destState) {
	s.stats.BestChanges++
	st.announce = nil
	s.obs.RouteChanged(s.sched.Now(), s.id, st.table.Dest(), st.table.NextHop(), st.table.Best())
	s.advertiseAll(st)
}

// advertiseAll runs advertise for every up peer in ascending order.
func (s *Speaker) advertiseAll(st *destState) {
	for slot, up := range s.up {
		if up {
			s.advertise(st, slot)
		}
	}
}

// advertise reconciles what the peer in slot should be told about st's
// destination with what it was last told, honouring SSLD, MRAI, WRATE, and
// Ghost Flushing. It is called on every best change and on MRAI expiry.
func (s *Speaker) advertise(st *destState, slot int) {
	peer := s.nbrs[slot]
	desired := st.table.Best()
	if desired != nil && s.cfg.Export != nil {
		learnedFrom := st.table.NextHop()
		if learnedFrom == s.id {
			learnedFrom = topology.None // self-originated
		}
		if !s.cfg.Export.ShouldExport(s.id, learnedFrom, peer) {
			// Policy forbids this peer from using us: withdraw whatever
			// we previously advertised (genuine withdrawal semantics).
			desired = nil
		}
	}
	ssldConverted := false
	if desired != nil && s.cfg.Enhancements.SSLD && desired.Contains(peer) {
		// The receiver appears in the path and would discard it; send the
		// poison-reverse information as an (MRAI-exempt) withdrawal.
		desired = nil
		ssldConverted = true
	}
	adv := st.adv[slot]
	blocked := s.mraiBlocked(st, slot)

	if desired == nil {
		if adv == nil {
			// Nothing advertised, nothing to withdraw. A pending flag, if
			// set, will re-evaluate when the timer releases.
			return
		}
		// Genuine unreachability withdrawals bypass the MRAI timer
		// (RFC 1771) unless WRATE. An SSLD-substituted withdrawal fully
		// inherits the behaviour of the announcement it replaces —
		// gated by the timer and (in the reset model) arming it when
		// sent — unless SSLDImmediate is set; see Config.SSLD.
		gated := s.cfg.Enhancements.WRATE ||
			(ssldConverted && !s.cfg.Enhancements.SSLDImmediate)
		if gated && blocked {
			s.deferSend(st, slot)
			return
		}
		s.send(slot, &st.wd)
		if ssldConverted {
			s.stats.SSLDConversions++
		}
		st.adv[slot] = nil
		if gated {
			s.noteRateLimitedSend(st, slot)
		}
		return
	}

	if blocked {
		s.deferSend(st, slot)
		s.maybeGhostFlush(st, slot, desired)
		return
	}
	if desired.Equal(adv) {
		return
	}
	if st.announce == nil {
		st.announce = s.grp.ups.box(Update{Dest: st.table.Dest(), Path: desired})
	}
	s.send(slot, st.announce)
	st.adv[slot] = desired
	s.noteRateLimitedSend(st, slot)
}

// mraiBlocked reports whether a rate-limited send toward the peer in slot
// must wait.
func (s *Speaker) mraiBlocked(st *destState, slot int) bool {
	if s.cfg.MRAI <= 0 {
		return false
	}
	m := &st.mrai[slot]
	if !s.cfg.MRAIContinuous {
		return s.sched.Reserved(m.timer)
	}
	s.initContinuous(m)
	delta := s.sched.Now() - m.phase
	return delta < 0 || delta%m.interval != 0
}

// deferSend marks the (destination, peer) pair dirty and ensures a flush
// will run when the timer releases: it claims the running expiry in the
// reset model (the timer is running whenever we are blocked), or the next
// free-running tick in the continuous model.
func (s *Speaker) deferSend(st *destState, slot int) {
	m := &st.mrai[slot]
	m.pending = true
	if s.cfg.MRAIContinuous && !s.sched.Reserved(m.timer) {
		next := m.phase
		if delta := s.sched.Now() - m.phase; delta >= 0 {
			next += (delta/m.interval + 1) * m.interval
		}
		m.timer = s.reserve(next, slot, st)
	}
	var ok bool
	if m.timer, ok = s.sched.Claim(m.timer, s, evMRAI, slot, 0, st); !ok {
		invariant.Unreachable("bgp-mrai-claim", "a send waits on an MRAI timer that is not running")
	}
}

// noteRateLimitedSend records that a rate-limited update went out: in the
// reset model this arms the timer; the continuous model free-runs.
func (s *Speaker) noteRateLimitedSend(st *destState, slot int) {
	if !s.cfg.MRAIContinuous {
		s.armMRAI(st, slot)
	}
}

// initContinuous lazily draws the free-running timer's jittered interval
// and random phase.
func (s *Speaker) initContinuous(m *mraiState) {
	if m.continual {
		return
	}
	factor := des.UniformFactor(s.rngJit, s.cfg.JitterMin, s.cfg.JitterMax)
	m.interval = des.Time(float64(s.cfg.MRAI) * factor)
	if m.interval <= 0 {
		m.interval = 1
	}
	m.phase = des.Uniform(s.rngJit, 0, m.interval-1)
	m.continual = true
}

// maybeGhostFlush implements Ghost Flushing: if the node has switched to a
// strictly longer path than the one this peer currently holds, and the
// announcement is blocked by the MRAI timer, send an immediate withdrawal
// so the peer flushes the obsolete (shorter) path now.
func (s *Speaker) maybeGhostFlush(st *destState, slot int, desired routing.Path) {
	if !s.cfg.Enhancements.GhostFlushing {
		return
	}
	adv := st.adv[slot]
	if adv == nil || desired.Len() <= adv.Len() {
		return
	}
	s.send(slot, &st.wd)
	s.stats.GhostFlushes++
	st.adv[slot] = nil
}

// mraiExpired runs when the (st, slot) MRAI timer releases a waiting
// send: a claimed reset-model expiry or a continuous-model tick. With an
// exec hook attached every reset-model expiry fires, waited on or not.
func (s *Speaker) mraiExpired(st *destState, slot int) {
	m := &st.mrai[slot]
	if !m.pending {
		return
	}
	m.pending = false
	if !s.up[slot] {
		return
	}
	s.advertise(st, slot)
}

// armMRAI starts the per-(destination, peer) MRAI timer with jitter. A
// zero MRAI disables rate limiting entirely.
func (s *Speaker) armMRAI(st *destState, slot int) {
	if s.cfg.MRAI <= 0 {
		return
	}
	factor := des.UniformFactor(s.rngJit, s.cfg.JitterMin, s.cfg.JitterMax)
	interval := des.Time(float64(s.cfg.MRAI) * factor)
	if interval <= 0 {
		return
	}
	st.mrai[slot].timer = s.reserve(s.sched.Now()+interval, slot, st)
}

// send hands up — shared by every peer it goes to — to the network and
// updates counters. A send that races a link failure is silently dropped,
// like the TCP session it models.
func (s *Speaker) send(slot int, up *Update) {
	if err := s.net.SendLink(s.link0+slot, up); err != nil {
		return
	}
	now := s.sched.Now()
	if up.Withdraw {
		s.stats.WithdrawalsSent++
	} else {
		s.stats.AnnouncementsSent++
	}
	s.stats.LastUpdateSent = now
	s.noteSent(slot)
	s.obs.UpdateSent(now, s.id, s.nbrs[slot], *up)
}

// destState returns (creating if needed) the state for dest, or nil if
// dest is not a destination of the speaker's group.
func (s *Speaker) destState(dest topology.Node) *destState {
	i := s.grp.index(dest)
	switch {
	case i < 0:
		return nil
	case i >= len(s.dests):
		// Only a speaker built alone indexes past its dests.
		s.dests = append(s.dests, make([]*destState, i+1-len(s.dests))...)
	case s.dests[i] != nil:
		return s.dests[i]
	}
	g, deg := s.grp, len(s.nbrs)
	sl, st, at := &g.slabs, s.j*g.k+i, g.k*s.at+i*deg
	if g.pos == nil {
		// A speaker built alone has no origins to carve for: each
		// destination gets slabs of its own.
		own := makeSlabs(1, deg, g.cfg.Damping)
		sl, st, at = &own, 0, 0
	}
	s.dests[i] = sl.carve(st, at, deg, s.id, dest, s.policy, &g.paths)
	return s.dests[i]
}

var (
	_ netsim.Handler = (*Speaker)(nil)
	_ des.Receiver   = (*Speaker)(nil)
)
