package dataplane

import (
	"fmt"
	"math"
	"slices"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// Paper data-plane defaults (§4.2).
const (
	// DefaultTTL is the initial packet TTL; with 2 ms hops a packet lives
	// 128 * 2ms = 256 ms before TTL exhaustion.
	DefaultTTL = 128
	// DefaultInterval is the inter-packet gap of each source's constant
	// rate stream (10 packets per second).
	DefaultInterval = 100 * time.Millisecond
)

// ReplayConfig describes the constant-rate packet streams to replay over a
// FIB history.
type ReplayConfig struct {
	// Dest is the destination node all packets are addressed to.
	Dest topology.Node
	// Sources lists the sending nodes; the destination itself is skipped
	// if present ("every other AS has one host").
	Sources []topology.Node
	// Start and End bound the send window: packets leave each source at
	// Start, Start+Interval, ... strictly before End.
	Start, End des.Time
	// Interval is the per-source inter-packet gap (DefaultInterval if 0).
	Interval time.Duration
	// TTL is the initial TTL (DefaultTTL if 0).
	TTL int
	// LinkDelay is the per-hop propagation delay (2 ms if 0).
	LinkDelay time.Duration
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 2 * time.Millisecond
	}
	return c
}

func (c ReplayConfig) validate() error {
	if c.End < c.Start {
		return fmt.Errorf("dataplane: send window ends (%v) before it starts (%v)", c.End, c.Start)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("dataplane: non-positive packet interval %v", c.Interval)
	}
	if c.TTL <= 0 {
		return fmt.Errorf("dataplane: non-positive TTL %d", c.TTL)
	}
	if c.LinkDelay <= 0 {
		return fmt.Errorf("dataplane: non-positive link delay %v", c.LinkDelay)
	}
	return nil
}

// ReplayResult aggregates the fate of every replayed packet.
type ReplayResult struct {
	// Sent counts packets that left a source inside the window.
	Sent int
	// Delivered counts packets that reached the destination.
	Delivered int
	// NoRoute counts packets dropped at a node with no route.
	NoRoute int
	// TTLExhausted counts packets dropped by TTL reaching zero — the
	// paper's loop indicator.
	TTLExhausted int
	// LoopEncounters counts packets that revisited a node at least once
	// (whether or not they later escaped).
	LoopEncounters int
	// DeliveredAfterLoop counts packets that revisited a node and still
	// reached the destination (escaped a transient loop).
	DeliveredAfterLoop int
	// FirstExhaustion and LastExhaustion bound the observed TTL
	// exhaustions; valid only when TTLExhausted > 0. The paper's "overall
	// looping duration" is LastExhaustion - FirstExhaustion.
	FirstExhaustion, LastExhaustion des.Time
	// TotalHops counts link traversals, a proxy for the network resources
	// consumed by looping packets.
	TotalHops int
	// DeliveredHops and EscapedHops aggregate the hop counts of delivered
	// packets (all of them, and the subset that escaped a loop first).
	// With constant link delay, hops x LinkDelay is the one-way delay, so
	// these support the extra-delay analysis of Hengartner et al. (packets
	// escaping a loop were delayed by an additional 25-1300 ms).
	DeliveredHops HopStats
	EscapedHops   HopStats
}

// HopStats aggregates per-packet hop counts.
type HopStats struct {
	Count int
	Total int
	Max   int
}

// Mean returns the average hop count (0 for an empty sample).
func (h HopStats) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Total) / float64(h.Count)
}

// addN records n > 0 packets of the same hop count.
func (h *HopStats) addN(hops, n int) {
	h.Count += n
	h.Total += hops * n
	if hops > h.Max {
		h.Max = hops
	}
}

// OverallLoopingDuration is the paper's §4.2 metric: the span from the
// first TTL exhaustion to the last (zero when no packet exhausted).
func (r ReplayResult) OverallLoopingDuration() time.Duration {
	if r.TTLExhausted == 0 {
		return 0
	}
	return r.LastExhaustion - r.FirstExhaustion
}

// LoopingRatio is the paper's §4.2 metric: the fraction of packets sent
// during the window that died of TTL exhaustion — the probability that a
// packet sent during convergence encounters looping.
func (r ReplayResult) LoopingRatio() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.TTLExhausted) / float64(r.Sent)
}

// Replay forwards every configured packet over the FIB history and
// aggregates outcomes. The result is exactly that of walking each packet
// hop by hop: lookup k of a packet sent at time at happens at
// at + k*LinkDelay on the node the packet stands on, sees the records with
// time <= that instant, takes LinkDelay and costs one TTL unit.
//
// The work is done epoch by epoch (see Epochs), and inside an epoch by
// source and by cohort rather than by packet. Inside an epoch the FIBs are
// one fixed functional graph, in which a packet's fate is a function of
// the node it stands on, and every source sends on the same grid
// Start + k*Interval, so:
//
//   - the epoch's send instants whose last lookup still falls in the epoch
//     are a prefix, the same for every packet of a source: they are added
//     in closed form from the source's class (fates), one multiply per
//     counter and source;
//   - of the rest, the instants whose tail and first lap of a cycle still
//     fall in the epoch are the next run: those packets are bound to
//     revisit a node and are parked (below) straight from their source;
//   - the remaining instants are launched, in send order, and each packet
//     is stepped over the epoch's next-hop array until its fate is sealed,
//     its next lookup leaves the epoch (it is carried into the next one) or
//     it has revisited a node and stands on a cycle;
//   - a looped packet on a cycle dies of TTL exhaustion at
//     send + TTL*LinkDelay unless a member of the cycle changes first, so
//     it is parked on the cycle's group as a cohort: one entry (deadline,
//     phase, count) holds every packet of its send instant that stands on
//     the same node. At each epoch end the entries due before it are
//     exhausted; at each boundary the groups that lost a member to
//     Epochs.Changed go back to flight, every entry fast-forwarded to the
//     epoch start by index into the ring, and every other group waits on.
//
// Every ReplayResult field is a sum, a minimum or a maximum over packets,
// so neither the order packets are resolved in nor how they are grouped
// can show: an entry is charged its hops up to the deadline when it parks
// and refunded the ones it did not take when it is released. Memory is
// O(nodes + cohorts alive), whatever the window: a packet lives
// TTL*LinkDelay, so at most sources x ceil(TTL*LinkDelay/Interval) are in
// flight, and a group holds at most one entry per ring node and send
// instant still alive.
func Replay(h *History, cfg ReplayConfig) (ReplayResult, error) {
	r, err := newReplayer(h, cfg)
	if err != nil {
		return ReplayResult{}, err
	}
	r.run()
	return r.res, nil
}

// newReplayer checks cfg and sets up its replay over h.
func newReplayer(h *History, cfg ReplayConfig) (replayer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return replayer{}, err
	}
	n := h.NumNodes()
	srcs := make([]source, 0, len(cfg.Sources))
	for _, src := range cfg.Sources {
		if src == cfg.Dest {
			continue
		}
		if src < 0 || int(src) >= n {
			return replayer{}, fmt.Errorf("dataplane: source %d out of range", src)
		}
		srcs = append(srcs, source{node: src})
	}
	r := replayer{
		cfg:    cfg,
		ep:     h.Epochs(),
		fates:  newFates(n),
		srcs:   srcs,
		ringOf: make([]ringRef, n),
	}
	for v := range r.ringOf {
		r.ringOf[v].group = -1
	}
	return r, nil
}

// run replays epoch after epoch until no packet is left to send, in flight
// or parked.
func (r *replayer) run() {
	send := r.cfg.Start // the next send instant
	for (send < r.cfg.End || len(r.flight) > 0 || len(r.live) > 0) && r.ep.Next() {
		r.classified = false
		for _, v := range r.ep.Changed {
			if g := r.ringOf[v].group; g >= 0 {
				r.release(g)
			}
		}
		live := 0
		for i := range r.flight {
			if !r.advance(&r.flight[i]) {
				r.flight[live] = r.flight[i]
				live++
			}
		}
		r.flight = r.flight[:live]
		if last := min(r.cfg.End, r.ep.End); send < last {
			k := int((last-send-1)/r.cfg.Interval) + 1
			r.send(send, k)
			send += des.Time(k) * r.cfg.Interval
		}
		r.sweep()
	}
}

// replayer is the state of one Replay call, positioned on the epoch r.ep.
type replayer struct {
	cfg ReplayConfig
	res ReplayResult
	ep  *Epochs
	// fates classifies r.ep.Hops when classified is set. An epoch is
	// classified on first need: one that sends no packet and parks none
	// costs only the stepping of the packets that cross it.
	fates      fates
	classified bool
	// srcs are the sources other than Dest.
	srcs []source
	// flight holds the packets carried over from earlier epochs.
	flight []packet
	// seen holds the visited sets, one bit per node, of the packets in
	// flight that have not revisited a node yet; spare lists the ones not
	// in use. Sets are reused, so the allocation count follows the packets
	// in flight at one time and not the window.
	seen  [][]uint64
	spare []int
	// groups holds the cycles packets are parked on: live lists the ones in
	// use, free the ones to reuse, and ringOf[v] places node v on the ring
	// of a live group, if any.
	groups []group
	live   []int32
	free   []int32
	ringOf []ringRef
	// merged counts the cohorts folded into an entry already parked, and
	// released the entries sent back to flight. Nothing reads them but
	// the tests, which show with them that their cases reach both.
	merged, released int
}

// source is a sending node and how it resolves the current epoch's send
// instants (see send): those before closed in closed form, those from
// closed to parked as cohorts parked on ring[phase] of group at the
// deadline, the rest by launch.
type source struct {
	node           topology.Node
	closed, parked int
	group          int32
	phase          int
}

// packet is a cohort in flight: n packets of one send instant, standing on
// one node, whose next lookup is still to happen. It holds no pointer, so
// carrying it costs the collector nothing. Its hop count is TTL - ttl.
type packet struct {
	pos topology.Node
	at  des.Time // instant of the next lookup, on pos
	ttl int
	// seen indexes the set of nodes the packet was looked up on, in
	// replayer.seen. The set is given back at the first revisit and seen
	// becomes looped: that mark never resets, so nothing reads the set
	// again. Only a launched packet (n == 1) ever has one: a released
	// cohort comes back looped.
	seen int
	n    int
}

// looped is packet.seen for a packet that has revisited a node.
const looped = -1

// group is a cycle of an epoch with the cohorts parked on it. Nothing on
// the ring has changed since the group formed: a change to a member
// releases the group.
type group struct {
	ring []topology.Node // in forwarding order
	// entries are ordered by deadline, and no two share deadline and phase.
	entries []entry
}

// entry is a parked cohort: n looped packets of one send instant that all
// do their last lookup, the one that finds the TTL exhausted, at deadline,
// on ring[phase].
type entry struct {
	deadline des.Time
	phase    int
	n        int
}

// ringRef places a node on the ring of a live group (group -1: on none).
type ringRef struct {
	group, index int32
}

// send resolves the k send instants first, first+Interval, ... of the
// current epoch for every source. A source's instants fall into three runs
// by how many lookups of a packet the epoch holds: the ones it holds every
// lookup of are resolved in closed form; then, for a source that leads
// into a cycle, the ones it holds the tail and one lap of are parked on
// the cycle; the rest are launched, in send order.
func (r *replayer) send(first des.Time, k int) {
	f := r.classify()
	res, ttl, iv := &r.res, r.cfg.TTL, r.cfg.Interval
	life := des.Time(ttl) * r.cfg.LinkDelay
	res.Sent += k * len(r.srcs)
	launchFrom := k
	for i := range r.srcs {
		s := &r.srcs[i]
		fate, d, lap := f.fate[s.node], int(f.dist[s.node]), f.firstLap(s.node)
		// ends: the walk reaches Dest or a dead end before the TTL runs out.
		// Arriving at Dest needs no lookup there; finding no route does, and
		// the walker looks up before it tests the TTL, so d == ttl still ends.
		ends := fate != fateCycle && d <= ttl
		lookups := ttl + 1
		if ends {
			lookups = d
			if fate == fateNoRoute {
				lookups++
			}
		}
		// revisits: the packet gets back to the node it entered the cycle
		// on, even if that is on its dying step.
		revisits := lap > 0 && lap <= ttl
		s.closed = r.fits(first, k, lookups)
		s.parked = s.closed
		if revisits {
			// With the tail and one lap inside the epoch, the revisit
			// happens whatever the FIBs say by then, and the packet parks
			// on the node it entered the cycle on: no visited set, no step.
			if s.parked = r.fits(first, k, lap); s.parked > s.closed {
				on := r.place(f.entry(s.node))
				s.group, s.phase = on.group, ringStep(int(on.index), ttl-lap, len(r.groups[on.group].ring))
				res.LoopEncounters += s.parked - s.closed
				res.TotalHops += (s.parked - s.closed) * ttl
			}
		}
		c := s.closed
		launchFrom = min(launchFrom, c)
		if c == 0 {
			continue
		}
		switch {
		case !ends:
			if revisits {
				res.LoopEncounters += c
			}
			res.TotalHops += c * ttl
			r.exhaust(first+life, first+des.Time(c-1)*iv+life, c)
		case fate == fateDelivered:
			res.Delivered += c
			res.DeliveredHops.addN(d, c)
			res.TotalHops += c * d
		default:
			res.NoRoute += c
			res.TotalHops += c * d
		}
	}
	for j := launchFrom; j < k; j++ {
		at := first + des.Time(j)*iv
		for i := range r.srcs {
			switch s := &r.srcs[i]; {
			case j < s.closed:
			case j < s.parked:
				r.add(&r.groups[s.group], entry{deadline: at + life, phase: s.phase, n: 1})
			default:
				r.launch(s.node, at)
			}
		}
	}
}

// fits returns how many of the k instants first, first+Interval, ... have
// a packet's first lookups lookups inside the current epoch.
func (r *replayer) fits(first des.Time, k, lookups int) int {
	if r.ep.End == maxTime {
		return k
	}
	room := r.ep.End - first - des.Time(lookups-1)*r.cfg.LinkDelay
	if room <= 0 {
		return 0
	}
	return min(k, int((room-1)/r.cfg.Interval)+1)
}

// launch puts the packet leaving src at time at in flight, with a visited
// set, and moves it through the epoch.
func (r *replayer) launch(src topology.Node, at des.Time) {
	p := packet{pos: src, at: at, ttl: r.cfg.TTL, n: 1}
	if k := len(r.spare); k > 0 {
		p.seen, r.spare = r.spare[k-1], r.spare[:k-1]
		clear(r.seen[p.seen])
	} else {
		p.seen = len(r.seen)
		r.seen = append(r.seen, make([]uint64, (len(r.ep.Hops)+63)/64))
	}
	if !r.advance(&p) {
		r.flight = append(r.flight, p)
	}
}

func (r *replayer) forget(p *packet) {
	if p.seen != looped {
		r.spare = append(r.spare, p.seen)
		p.seen = looped
	}
}

// advance moves p through the current epoch and reports whether it left
// flight: its fate was sealed or it was parked. If not, p's next lookup
// belongs to a later epoch. Per step the order is: destination test
// (time-independent, and Dest's own FIB entry is never consulted), revisit
// mark, lookup, no-route, TTL. A looped packet on a cycle parks before its
// lookup: no node of a cycle is Dest or lacks a route.
func (r *replayer) advance(p *packet) bool {
	res, next, end := &r.res, r.ep.Hops, r.ep.End
	for {
		if p.pos == r.cfg.Dest {
			hops := r.cfg.TTL - p.ttl
			res.Delivered += p.n
			res.DeliveredHops.addN(hops, p.n)
			if p.seen == looped {
				res.DeliveredAfterLoop += p.n
				res.EscapedHops.addN(hops, p.n)
			}
			r.forget(p)
			return true
		}
		if p.at >= end {
			return false
		}
		if p.seen != looped {
			word, bit := &r.seen[p.seen][p.pos>>6], uint64(1)<<(p.pos&63)
			if *word&bit != 0 {
				res.LoopEncounters += p.n
				r.forget(p)
			} else {
				*word |= bit
			}
		}
		if p.seen == looped && (r.ringOf[p.pos].group >= 0 || r.classify().onCycle(p.pos)) {
			r.park(p)
			return true
		}
		hop := next[p.pos]
		if hop == topology.None {
			res.NoRoute += p.n
			r.forget(p)
			return true
		}
		if p.ttl == 0 {
			r.exhaust(p.at, p.at, p.n)
			r.forget(p)
			return true
		}
		p.pos = hop
		p.ttl--
		p.at += r.cfg.LinkDelay
		res.TotalHops += p.n
	}
}

// park puts p, a looped packet standing on a cycle of the current epoch,
// on that cycle's group. Its remaining hops are charged now; release
// refunds the ones it does not take.
func (r *replayer) park(p *packet) {
	on := r.place(p.pos)
	g := &r.groups[on.group]
	r.res.TotalHops += p.ttl * p.n
	r.add(g, entry{
		deadline: p.at + des.Time(p.ttl)*r.cfg.LinkDelay,
		phase:    ringStep(int(on.index), p.ttl, len(g.ring)),
		n:        p.n,
	})
}

// place returns where v, a node on a cycle of the current epoch, stands on
// its group's ring, forming the group if there is none.
func (r *replayer) place(v topology.Node) ringRef {
	if on := r.ringOf[v]; on.group >= 0 {
		return on
	}
	var id int32
	if k := len(r.free); k > 0 {
		id, r.free = r.free[k-1], r.free[:k-1]
	} else {
		id = int32(len(r.groups))
		// Room for the cohorts of a 2-cycle over four send instants, a
		// lifetime of the paper's streams (256 ms at 100 ms), before
		// the first growth.
		r.groups = append(r.groups, group{entries: make([]entry, 0, 16)})
	}
	g := &r.groups[id]
	g.ring = append(g.ring[:0], r.fates.cycleOf(v)...)
	for i, u := range g.ring {
		r.ringOf[u] = ringRef{group: id, index: int32(i)}
	}
	r.live = append(r.live, id)
	return r.ringOf[v]
}

// add inserts e in g's entries in deadline order, or merges it into the
// entry of the same deadline and phase if there is one.
func (r *replayer) add(g *group, e entry) {
	// Entries arrive mostly in deadline order: launches go in send order.
	i := len(g.entries)
	for i > 0 && g.entries[i-1].deadline > e.deadline {
		i--
	}
	for j := i - 1; j >= 0 && g.entries[j].deadline == e.deadline; j-- {
		if g.entries[j].phase == e.phase {
			g.entries[j].n += e.n
			r.merged++
			return
		}
	}
	g.entries = slices.Insert(g.entries, i, e)
}

// release sends the cohorts parked on group id back to flight, each where
// it stands at its first lookup at or after the epoch start, and unmarks
// the ring. The emptied group leaves live at the next sweep.
func (r *replayer) release(id int32) {
	g := &r.groups[id]
	m, ld := len(g.ring), r.cfg.LinkDelay
	for _, e := range g.entries {
		// The lookups left: the one at the deadline and j before it. The
		// sweep before this epoch took every entry due earlier, so j >= 0.
		j := int((e.deadline - r.ep.Start) / ld)
		k := e.phase - ringStep(0, j, m)
		if k < 0 {
			k += m
		}
		r.res.TotalHops -= j * e.n
		r.released++
		r.flight = append(r.flight, packet{pos: g.ring[k], at: e.deadline - des.Time(j)*ld, ttl: j, seen: looped, n: e.n})
	}
	g.entries = g.entries[:0]
	r.unmark(g)
}

// sweep exhausts the entries due before the epoch ends and drops the
// groups left empty.
func (r *replayer) sweep() {
	live := r.live[:0]
	for _, id := range r.live {
		g := &r.groups[id]
		k := 0
		for ; k < len(g.entries) && g.entries[k].deadline < r.ep.End; k++ {
			e := g.entries[k]
			r.exhaust(e.deadline, e.deadline, e.n)
		}
		g.entries = g.entries[:copy(g.entries, g.entries[k:])]
		if len(g.entries) > 0 {
			live = append(live, id)
			continue
		}
		r.unmark(g)
		r.free = append(r.free, id)
	}
	r.live = live
}

func (r *replayer) unmark(g *group) {
	for _, u := range g.ring {
		r.ringOf[u].group = -1
	}
	g.ring = g.ring[:0]
}

// ringStep returns (i + k) mod m for a ring index 0 <= i < m and k >= 0.
// The remainder is taken in 32 bits whenever k allows, which every real TTL
// does: a 64-bit division costs several times as much.
func ringStep(i, k, m int) int {
	if k <= math.MaxInt32 {
		return int((uint32(i) + uint32(k)) % uint32(m))
	}
	return (i + k) % m
}

// exhaust records n TTL exhaustions, the earliest at first and the latest
// at last.
func (r *replayer) exhaust(first, last des.Time, n int) {
	res := &r.res
	if res.TTLExhausted == 0 || first < res.FirstExhaustion {
		res.FirstExhaustion = first
	}
	if last > res.LastExhaustion {
		res.LastExhaustion = last
	}
	res.TTLExhausted += n
}

func (r *replayer) classify() *fates {
	if !r.classified {
		r.fates.classify(r.ep.Hops, r.cfg.Dest)
		r.classified = true
	}
	return &r.fates
}

// The classes of a node in a static epoch.
const (
	fateUnknown   uint8 = iota
	fateWalking         // on the walk classify is extending
	fateDelivered       // reaches Dest after dist hops
	fateNoRoute         // reaches a node without a route after dist hops
	fateCycle           // reaches a cycle after dist hops (0: is on it)
)

// fates classifies every node of one functional graph by where a packet
// standing on it ends up, with Dest absorbing whatever its own FIB entry
// says. The arrays are reused from epoch to epoch.
type fates struct {
	fate []uint8
	dist []int32
	// For fateCycle nodes: the cycle reached and the index within it of
	// the node reached first (the node's own index when it is on it).
	cycle, slot []int32
	// Cycle c is ring[first[c] : first[c]+length[c]] in forwarding order;
	// a self-loop FIB is a cycle of length 1.
	first, length []int32
	ring          []topology.Node
	walk          []topology.Node
}

func newFates(n int) fates {
	return fates{
		fate:  make([]uint8, n),
		dist:  make([]int32, n),
		cycle: make([]int32, n),
		slot:  make([]int32, n),
	}
}

// classify is the three-colour pass over a functional graph, O(n): follow
// next from each unclassified node until the walk meets a classified node
// or itself, then label the walk backwards.
func (f *fates) classify(next []topology.Node, dest topology.Node) {
	clear(f.fate)
	f.first, f.length, f.ring = f.first[:0], f.length[:0], f.ring[:0]
	if dest >= 0 && int(dest) < len(next) {
		f.fate[dest], f.dist[dest] = fateDelivered, 0
	}
	for s := range next {
		walk := f.walk[:0]
		v := topology.Node(s)
		for f.fate[v] == fateUnknown {
			if next[v] == topology.None {
				f.fate[v], f.dist[v] = fateNoRoute, 0
				break
			}
			f.fate[v], f.dist[v] = fateWalking, int32(len(walk))
			walk = append(walk, v)
			v = next[v]
		}
		if f.fate[v] == fateWalking {
			// The walk closed on itself: walk[dist[v]:] is a new cycle.
			body := walk[f.dist[v]:]
			walk = walk[:f.dist[v]]
			c := int32(len(f.first))
			f.first = append(f.first, int32(len(f.ring)))
			f.length = append(f.length, int32(len(body)))
			f.ring = append(f.ring, body...)
			for i, u := range body {
				f.fate[u], f.dist[u], f.cycle[u], f.slot[u] = fateCycle, 0, c, int32(i)
			}
		}
		for i := len(walk) - 1; i >= 0; i-- {
			u := walk[i]
			f.fate[u], f.dist[u], f.cycle[u], f.slot[u] = f.fate[v], f.dist[v]+1, f.cycle[v], f.slot[v]
			v = u
		}
		f.walk = walk
	}
}

// firstLap returns the number of hops after which a packet starting on v
// first revisits a node: the tail plus one lap of the cycle it leads into,
// ending on the node the tail enters the cycle on. It is 0 if v leads into
// no cycle.
func (f *fates) firstLap(v topology.Node) int {
	if f.fate[v] != fateCycle {
		return 0
	}
	return int(f.dist[v] + f.length[f.cycle[v]])
}

func (f *fates) onCycle(v topology.Node) bool {
	return f.fate[v] == fateCycle && f.dist[v] == 0
}

// entry returns the node that v, a fateCycle node, enters its cycle on (v
// itself if it is on it).
func (f *fates) entry(v topology.Node) topology.Node {
	c := f.cycle[v]
	return f.ring[f.first[c]+f.slot[v]]
}

// cycleOf returns the cycle v, a fateCycle node, leads into, in forwarding
// order.
func (f *fates) cycleOf(v topology.Node) []topology.Node {
	c := f.cycle[v]
	return f.ring[f.first[c] : f.first[c]+f.length[c]]
}
