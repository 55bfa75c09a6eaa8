package dataplane

import (
	"fmt"
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

func (h *HopStats) add(hops int) {
	h.Count++
	h.Total += hops
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
// The work is done epoch by epoch (see Epochs) instead of packet by packet.
// Inside an epoch the FIBs are one fixed functional graph, in which a
// packet's fate is a function of the node it stands on, so:
//
//   - a packet sent in an epoch that also contains its last lookup is
//     resolved in closed form from its source's class (fates), O(1);
//   - any other packet becomes an in-flight record that is stepped over
//     the epoch's next-hop array and carried into the next epoch at the
//     first lookup that falls outside; once it has revisited a node and
//     stands on a cycle it jumps all the lookups the epoch or its TTL have
//     left at once, by index into the cycle.
//
// Every ReplayResult field is a sum, a minimum or a maximum over packets,
// so the order packets are resolved in cannot show. Memory is O(nodes +
// packets in flight); in flight are at most
// sources x ceil(TTL*LinkDelay/Interval) packets whatever the window.
func Replay(h *History, cfg ReplayConfig) (ReplayResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ReplayResult{}, err
	}
	n := h.NumNodes()
	for _, src := range cfg.Sources {
		if src != cfg.Dest && (src < 0 || int(src) >= n) {
			return ReplayResult{}, fmt.Errorf("dataplane: source %d out of range", src)
		}
	}
	r := replayer{cfg: cfg, ep: h.Epochs(), fates: newFates(n)}
	send := cfg.Start // the next send instant
	for (send < cfg.End || len(r.flight) > 0) && r.ep.Next() {
		r.classified = false
		live := 0
		for i := range r.flight {
			if !r.advance(&r.flight[i]) {
				r.flight[live] = r.flight[i]
				live++
			}
		}
		r.flight = r.flight[:live]
		for ; send < cfg.End && send < r.ep.End; send += cfg.Interval {
			for _, src := range cfg.Sources {
				if src != cfg.Dest {
					r.send(src, send)
				}
			}
		}
	}
	return r.res, nil
}

// replayer is the state of one Replay call, positioned on the epoch r.ep.
type replayer struct {
	cfg ReplayConfig
	res ReplayResult
	ep  *Epochs
	// fates classifies r.ep.Hops when classified is set. An epoch is
	// classified on first need: one that sends no packet and jumps none
	// costs only the stepping of the packets that cross it.
	fates      fates
	classified bool
	// flight holds the packets carried over from earlier epochs.
	flight []packet
	// seen holds the visited sets, one bit per node, of the packets in
	// flight that have not revisited a node yet; spare lists the ones not
	// in use. Sets are reused, so the allocation count follows the packets
	// in flight at one time and not the window.
	seen  [][]uint64
	spare []int
}

// packet is a packet in flight: one whose next lookup is still to happen.
// It holds no pointer, so carrying it costs the collector nothing.
type packet struct {
	pos  topology.Node
	at   des.Time // instant of the next lookup, on pos
	ttl  int
	hops int
	// seen indexes the set of nodes the packet was looked up on, in
	// replayer.seen. The set is given back at the first revisit and seen
	// becomes looped: that mark never resets, so nothing reads the set
	// again.
	seen int
}

// looped is packet.seen for a packet that has revisited a node.
const looped = -1

// send resolves the packet leaving src at time at: in closed form when all
// its lookups fall inside the epoch, as a packet in flight otherwise.
func (r *replayer) send(src topology.Node, at des.Time) {
	r.res.Sent++
	f := r.classify()
	fate, d, ttl := f.fate[src], int(f.dist[src]), r.cfg.TTL
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
	if at+des.Time(lookups-1)*r.cfg.LinkDelay >= r.ep.End {
		r.launch(src, at)
		return
	}
	switch {
	case !ends:
		// The revisit counts even on the dying step.
		if lap := f.firstLap(src); lap > 0 && lap <= ttl {
			r.res.LoopEncounters++
		}
		r.res.TotalHops += ttl
		r.exhaust(at + des.Time(ttl)*r.cfg.LinkDelay)
	case fate == fateDelivered:
		r.res.Delivered++
		r.res.DeliveredHops.add(d)
		r.res.TotalHops += d
	default:
		r.res.NoRoute++
		r.res.TotalHops += d
	}
}

// launch puts the packet leaving src at time at in flight and moves it
// through the epoch.
func (r *replayer) launch(src topology.Node, at des.Time) {
	p := packet{pos: src, at: at, ttl: r.cfg.TTL}
	f := &r.fates
	if lap := f.firstLap(src); lap > 0 && lap <= p.ttl && at+des.Time(lap-1)*r.cfg.LinkDelay < r.ep.End {
		// The epoch holds the lookups of the whole tail and of one lap of
		// the cycle: the packet gets back to the node it entered the cycle
		// on, and whatever the FIBs say by then, that is a revisit. It
		// never needs a visited set.
		p.pos, p.seen = f.rotate(src, 0), looped
		p.at += des.Time(lap) * r.cfg.LinkDelay
		p.ttl -= lap
		p.hops = lap
		r.res.LoopEncounters++
		r.res.TotalHops += lap
	} else if k := len(r.spare); k > 0 {
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

func (r *replayer) release(p *packet) {
	if p.seen != looped {
		r.spare = append(r.spare, p.seen)
		p.seen = looped
	}
}

// advance moves p through the current epoch and reports whether its fate
// was sealed; if not, p's next lookup belongs to a later epoch. Per step
// the order is: destination test (time-independent, and Dest's own FIB
// entry is never consulted), revisit mark, lookup, no-route, TTL.
func (r *replayer) advance(p *packet) bool {
	res, next, end := &r.res, r.ep.Hops, r.ep.End
	for {
		if p.pos == r.cfg.Dest {
			res.Delivered++
			res.DeliveredHops.add(p.hops)
			if p.seen == looped {
				res.DeliveredAfterLoop++
				res.EscapedHops.add(p.hops)
			}
			r.release(p)
			return true
		}
		if p.at >= end {
			return false
		}
		if p.seen != looped {
			word, bit := &r.seen[p.seen][p.pos>>6], uint64(1)<<(p.pos&63)
			if *word&bit != 0 {
				res.LoopEncounters++
				r.release(p)
			} else {
				*word |= bit
			}
		}
		hop := next[p.pos]
		if hop == topology.None {
			res.NoRoute++
			r.release(p)
			return true
		}
		if p.ttl == 0 {
			r.exhaust(p.at)
			r.release(p)
			return true
		}
		// A packet that has already revisited a node has nothing left to
		// mark, and no node of a cycle is Dest or lacks a route, so on a
		// cycle m steps are a rotation by m.
		m := 1
		if p.seen == looped && r.classify().onCycle(p.pos) {
			m = p.ttl
			if p.at+des.Time(m)*r.cfg.LinkDelay >= end {
				// The TTL outlasts the epoch: take the lookups it has left.
				m = int((end-p.at-1)/r.cfg.LinkDelay) + 1
			}
			hop = r.fates.rotate(p.pos, m)
		}
		p.pos = hop
		p.ttl -= m
		p.hops += m
		p.at += des.Time(m) * r.cfg.LinkDelay
		res.TotalHops += m
	}
}

func (r *replayer) exhaust(at des.Time) {
	res := &r.res
	res.TTLExhausted++
	if res.TTLExhausted == 1 || at < res.FirstExhaustion {
		res.FirstExhaustion = at
	}
	if at > res.LastExhaustion {
		res.LastExhaustion = at
	}
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

// rotate returns the node m hops after the node that v, a fateCycle node,
// enters its cycle on (v itself if it is on it).
func (f *fates) rotate(v topology.Node, m int) topology.Node {
	c := f.cycle[v]
	return f.ring[int(f.first[c])+(int(f.slot[v])+m)%int(f.length[c])]
}
