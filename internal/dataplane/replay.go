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
// class of sources and by cohort rather than by packet. Inside an epoch the
// FIBs are one fixed functional graph, in which a packet's fate is a
// function of the node it stands on, and every source sends on the same
// grid Start + k*Interval, so:
//
//   - the sources fall into classes by fate, hop count and the node a
//     looping packet enters its cycle on (fates, class): the classes are
//     kept from epoch to epoch, and a classification re-derives only the
//     nodes upstream of a changed FIB entry and moves only those sources,
//     O(affected) instead of O(nodes + sources);
//   - the epoch's send instants whose last lookup still falls in the epoch
//     are a prefix, the same for every packet of a class: they are added
//     in closed form, one multiply per counter and class;
//   - of the rest, the instants whose tail and first lap of a cycle still
//     fall in the epoch are the next run: those packets are bound to
//     revisit a node and are parked (below) straight from their class, one
//     cohort per instant;
//   - the remaining instants are launched, a packet per source, in send
//     order, and each packet is stepped over the epoch's next-hop array
//     until its fate is sealed, its next lookup leaves the epoch (it is
//     carried into the next one) or it has revisited a node and stands on a
//     cycle;
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
// flight, a group holds at most one entry per ring node and send instant
// still alive, and the classification's own tables stay within a few
// words per node.
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
	if cfg.Dest < 0 || int(cfg.Dest) >= n {
		return replayer{}, fmt.Errorf("dataplane: destination %d out of range", cfg.Dest)
	}
	r := replayer{
		cfg:      cfg,
		ep:       h.Epochs(),
		fates:    newFates(n),
		mult:     make([]int32, n),
		classOf:  make([]int32, n),
		members:  newLists(n),
		byAnchor: make([]int32, n+1),
		ringOf:   make([]ringRef, n),
	}
	for _, src := range cfg.Sources {
		if src == cfg.Dest {
			continue
		}
		if src < 0 || int(src) >= n {
			return replayer{}, fmt.Errorf("dataplane: source %d out of range", src)
		}
		if r.mult[src]++; r.mult[src] == 1 {
			r.srcs = append(r.srcs, src)
		}
		r.perInstant++
	}
	for v := range r.ringOf {
		r.classOf[v] = -1
		r.ringOf[v].group = -1
	}
	for a := range r.byAnchor {
		r.byAnchor[a] = -1
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
			r.fates.touch(v)
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
	// costs only the stepping of the packets that cross it, and the next
	// classification takes up its changes.
	fates      fates
	classified bool
	// srcs lists the sources other than Dest once each, and mult[v] how
	// many times v is one; perInstant is their sum, the packets sent per
	// send instant.
	srcs       []topology.Node
	mult       []int32
	perInstant int
	// classes partitions srcs by class as of the last classification:
	// classOf[v] indexes source v's, members lists each one's sources,
	// byAnchor[a+1] is the first class of anchor a, active lists the ones
	// in use and freeClasses the ones to reuse.
	classes     []class
	classOf     []int32
	members     lists
	byAnchor    []int32
	active      []int32
	freeClasses []int32
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
	// merged counts the cohorts folded into an entry already parked,
	// folded the packets a class parks in one cohort with another of its
	// sources, and released the entries sent back to flight. Nothing reads
	// them but the tests, which show with them that their cases reach each.
	merged, folded, released int
}

// class is a set of sources whose packets the current epoch resolves
// alike: they meet fate after dist hops and, when fate is fateCycle, first
// revisit a node after lap hops, on anchor. A class is keyed by (anchor,
// dist), with anchor Dest for the delivered and None for the ones without
// a route. The rest follows from the key within an epoch, and reclass
// refreshes it from every source it files in the class: fate or lap can
// change only when something the anchor leads through changes, and that
// affects every member.
//
// n counts the packets per send instant. closed, parked, group and phase
// say how the current epoch's send instants resolve (see send): those
// before closed in closed form, those from closed to parked as cohorts
// parked on ring[phase] of group at the deadline, the rest by launch.
type class struct {
	anchor    topology.Node
	dist, lap int
	fate      uint8
	n         int
	// sibling is the next class of the same anchor, -1 for none, and at the
	// class's index in replayer.active.
	sibling, at    int32
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
// current epoch for every source, a class at a time. A class's instants
// fall into three runs by how many lookups of a packet the epoch holds: the
// ones it holds every lookup of are resolved in closed form; then, for a
// class that leads into a cycle, the ones it holds the tail and one lap of
// are parked on the cycle, one cohort per instant for the whole class; the
// rest are launched, a packet per source, in send order.
func (r *replayer) send(first des.Time, k int) {
	r.classify()
	res, ttl, iv := &r.res, r.cfg.TTL, r.cfg.Interval
	life := des.Time(ttl) * r.cfg.LinkDelay
	res.Sent += k * r.perInstant
	launchFrom := k
	for _, id := range r.active {
		c := &r.classes[id]
		fate, d, lap, n := c.fate, c.dist, c.lap, c.n
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
		c.closed = r.fits(first, k, lookups)
		c.parked = c.closed
		if revisits {
			// With the tail and one lap inside the epoch, the revisit
			// happens whatever the FIBs say by then, and the packet parks
			// on the node it entered the cycle on: no visited set, no step.
			if c.parked = r.fits(first, k, lap); c.parked > c.closed {
				on := r.place(c.anchor)
				c.group, c.phase = on.group, ringStep(int(on.index), ttl-lap, len(r.groups[on.group].ring))
				res.LoopEncounters += (c.parked - c.closed) * n
				res.TotalHops += (c.parked - c.closed) * n * ttl
			}
		}
		launchFrom = min(launchFrom, c.closed)
		m := c.closed * n
		if m == 0 {
			continue
		}
		switch {
		case !ends:
			if revisits {
				res.LoopEncounters += m
			}
			res.TotalHops += m * ttl
			r.exhaust(first+life, first+des.Time(c.closed-1)*iv+life, m)
		case fate == fateDelivered:
			res.Delivered += m
			res.DeliveredHops.addN(d, m)
			res.TotalHops += m * d
		default:
			res.NoRoute += m
			res.TotalHops += m * d
		}
	}
	for j := launchFrom; j < k; j++ {
		at := first + des.Time(j)*iv
		for _, id := range r.active {
			switch c := &r.classes[id]; {
			case j < c.closed:
			case j < c.parked:
				// One cohort for the class's n packets of the instant.
				r.folded += c.n - 1
				r.add(&r.groups[c.group], entry{deadline: at + life, phase: c.phase, n: c.n})
			default:
				for v := r.members.head[id]; v != topology.None; v = r.members.next[v] {
					for range r.mult[v] {
						r.launch(v, at)
					}
				}
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
	switch {
	case room <= 0:
		return 0
	case room > des.Time(k-1)*r.cfg.Interval:
		return k // all of them, without a division
	}
	return int((room-1)/r.cfg.Interval) + 1
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

// classify classifies the current epoch unless it is already, and moves
// the sources the classification may have touched to their classes.
func (r *replayer) classify() *fates {
	if !r.classified {
		if r.fates.classify(r.ep.Hops, r.cfg.Dest) {
			for _, v := range r.srcs {
				r.reclass(v)
			}
		} else {
			for _, v := range r.fates.affected {
				if r.mult[v] > 0 {
					r.reclass(v)
				}
			}
		}
		r.classified = true
	}
	return &r.fates
}

// reclass moves source v to the class of its current fates.
func (r *replayer) reclass(v topology.Node) {
	f := &r.fates
	fate, anchor, dist := f.fate[v], topology.None, int(f.dist[v])
	switch fate {
	case fateDelivered:
		anchor = r.cfg.Dest
	case fateCycle:
		anchor = f.entry(v)
	}
	m, id := int(r.mult[v]), r.classOf[v]
	if old := id; old < 0 || r.classes[old].anchor != anchor || r.classes[old].dist != dist {
		if old >= 0 {
			if r.classes[old].n -= m; r.classes[old].n == 0 {
				r.drop(old)
			}
		}
		id = r.byAnchor[anchor+1]
		for id >= 0 && r.classes[id].dist != dist {
			id = r.classes[id].sibling
		}
		if id < 0 {
			id = r.open(anchor, dist)
		}
		r.classes[id].n += m
		r.members.move(v, int(old), int(id))
		r.classOf[v] = id
	}
	c := &r.classes[id]
	c.fate, c.lap = fate, f.firstLap(v)
}

// open starts an empty class of the given key.
func (r *replayer) open(anchor topology.Node, dist int) int32 {
	var id int32
	if k := len(r.freeClasses); k > 0 {
		id, r.freeClasses = r.freeClasses[k-1], r.freeClasses[:k-1]
	} else {
		id = int32(len(r.classes))
		r.classes = append(r.classes, class{})
	}
	r.classes[id] = class{anchor: anchor, dist: dist, sibling: r.byAnchor[anchor+1], at: int32(len(r.active))}
	r.byAnchor[anchor+1] = id
	r.active = append(r.active, id)
	return id
}

// drop retires class id, which has no member left.
func (r *replayer) drop(id int32) {
	c := &r.classes[id]
	p := &r.byAnchor[c.anchor+1]
	for *p != id {
		p = &r.classes[*p].sibling
	}
	*p = c.sibling
	last := r.active[len(r.active)-1]
	r.active[c.at], r.classes[last].at = last, c.at
	r.active = r.active[:len(r.active)-1]
	r.freeClasses = append(r.freeClasses, id)
}

// The fates of a node in a static epoch.
const (
	fateUnknown   uint8 = iota
	fateWalking         // on the walk classify is extending
	fateDelivered       // reaches Dest after dist hops
	fateNoRoute         // reaches a node without a route after dist hops
	fateCycle           // reaches a cycle after dist hops (0: is on it)
)

// fates classifies every node of one functional graph by where a packet
// standing on it ends up, with Dest absorbing whatever its own FIB entry
// says. It follows the graph from epoch to epoch: touch notes a changed
// next hop, and classify re-derives only the nodes upstream of a change,
// since every other node walks the path it walked before.
type fates struct {
	fate []uint8
	dist []int32
	// For fateCycle nodes: the cycle reached and the index within it of
	// the node reached first (the node's own index when it is on it).
	cycle, slot []int32
	// Cycle c is ring[first[c] : first[c]+length[c]] in forwarding order;
	// a self-loop FIB is a cycle of length 1. An incremental pass leaves
	// the cycles it re-derives behind as garbage, so the table only grows
	// until a full pass starts it afresh.
	first, length []int32
	ring          []topology.Node
	walk          []topology.Node
	// hop is the graph classified last, Dest's own entry dropped; preds
	// lists each node's predecessors in it.
	hop   []topology.Node
	preds lists
	// changed lists, up to n of them, the nodes whose next hop changed since
	// the last classification; stale is set when there were more, or
	// nothing was classified yet.
	changed []topology.Node
	stale   bool
	// affected lists the nodes the last incremental pass re-derived.
	affected []topology.Node
	// incremental and full count the passes, compactions the full passes
	// the cycle table forced. Nothing reads them but the tests.
	incremental, full, compactions int
}

func newFates(n int) fates {
	f := fates{
		fate:  make([]uint8, n),
		dist:  make([]int32, n),
		cycle: make([]int32, n),
		slot:  make([]int32, n),
		hop:   make([]topology.Node, n),
		preds: newLists(n),
		// Both lists stay within n: touch stops at n, and a pass lists a
		// node as affected at most once.
		changed:  make([]topology.Node, 0, n),
		affected: make([]topology.Node, 0, n),
		stale:    true,
	}
	for v := range f.hop {
		f.hop[v] = topology.None
	}
	return f
}

// touch notes that v's next hop changed.
func (f *fates) touch(v topology.Node) {
	if len(f.changed) < len(f.fate) {
		f.changed = append(f.changed, v)
	} else {
		f.stale = true
	}
}

// classify classifies the functional graph next and reports whether it
// took a full pass; if not, only the nodes in affected may have changed
// class. A node walks the path it walked at the last classification unless
// the path meets a changed node, so only the nodes upstream of one, found
// through preds, are re-derived: O(affected). The full pass, O(n), runs
// first, after more than n changes, when more than half the nodes are
// affected, and when the cycle table has grown past 2n, which bounds it.
func (f *fates) classify(next []topology.Node, dest topology.Node) bool {
	n := len(next)
	a := f.affected[:0]
	if f.stale {
		for v := range next {
			f.relink(topology.Node(v), next, dest)
		}
	} else {
		for _, v := range f.changed {
			if f.relink(v, next, dest) {
				f.fate[v] = fateUnknown
				a = append(a, v)
			}
		}
		for i := 0; i < len(a) && len(a) <= n/2; i++ {
			for u := f.preds.head[a[i]]; u != topology.None; u = f.preds.next[u] {
				if f.fate[u] != fateUnknown {
					f.fate[u] = fateUnknown
					a = append(a, u)
				}
			}
		}
	}
	f.changed, f.affected = f.changed[:0], a
	compact := len(f.ring) > 2*n
	if !f.stale && !compact && len(a) <= n/2 {
		for _, s := range a {
			f.settle(s, next)
		}
		f.incremental++
		return false
	}
	f.stale = false
	if compact {
		f.compactions++
	}
	f.full++
	clear(f.fate)
	f.first, f.length, f.ring = f.first[:0], f.length[:0], f.ring[:0]
	f.fate[dest], f.dist[dest] = fateDelivered, 0
	for s := range next {
		f.settle(topology.Node(s), next)
	}
	return true
}

// relink brings v's entry in hop and preds up to date with next and reports
// whether it moved.
func (f *fates) relink(v topology.Node, next []topology.Node, dest topology.Node) bool {
	to := next[v]
	if v == dest {
		to = topology.None
	}
	if to == f.hop[v] {
		return false
	}
	f.preds.move(v, int(f.hop[v]), int(to))
	f.hop[v] = to
	return true
}

// settle is one walk of the three-colour pass: follow next from s until the
// walk meets a classified node or itself, then label the walk backwards.
func (f *fates) settle(s topology.Node, next []topology.Node) {
	walk := f.walk[:0]
	v := s
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

// lists keeps nodes in disjoint doubly linked lists, at most one each:
// head[l] is the first node of list l, next and prev link a node to its
// neighbours in its list, and topology.None ends them.
type lists struct {
	head, next, prev []topology.Node
}

func newLists(n int) lists {
	l := lists{
		head: make([]topology.Node, n),
		next: make([]topology.Node, n),
		prev: make([]topology.Node, n),
	}
	for v := range l.head {
		l.head[v] = topology.None
	}
	return l
}

// move takes v out of list from and puts it at the head of list to; a
// negative list is none.
func (l *lists) move(v topology.Node, from, to int) {
	if from >= 0 {
		p, q := l.prev[v], l.next[v]
		if p == topology.None {
			l.head[from] = q
		} else {
			l.next[p] = q
		}
		if q != topology.None {
			l.prev[q] = p
		}
	}
	if to >= 0 {
		h := l.head[to]
		l.next[v], l.prev[v] = h, topology.None
		if h != topology.None {
			l.prev[h] = v
		}
		l.head[to] = v
	}
}
