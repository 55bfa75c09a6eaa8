package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// The speakers of a group (NewSpeakers) must behave exactly like speakers
// built one by one (NewSpeaker): same draws, same events in the same
// order, same tables. The group carves its state from shared slabs, so a
// carve that overlaps a neighbour's, or state that moves after a pending
// event took a pointer to it, shows up here as a diverging transcript.

// groupCase is one input of the differential test.
type groupCase struct {
	n                        int
	edges                    []topology.Edge
	variant                  int
	continuous, fsm, damping bool
	origins                  []topology.Node // in Originate order, distinct
	flap                     topology.Edge   // failed, then restored
	seed                     int64
	deliver                  *groupDeliver // handed to a speaker before the flap, or nil
}

// groupDeliver is an update Deliver hands straight to a speaker, as if
// its neighbour had sent it: any path over the graph's ids, a malformed
// one included.
type groupDeliver struct {
	to, from topology.Node
	up       *Update
}

func (c groupCase) String() string {
	deliver := "none"
	if d := c.deliver; d != nil {
		deliver = fmt.Sprintf("%d->%d %v", d.from, d.to, d.up)
	}
	return fmt.Sprintf("n=%d edges=%v variant=%s continuous=%v fsm=%v damping=%v origins=%v flap=%v seed=%d deliver=%s",
		c.n, c.edges, Variants[c.variant].Name, c.continuous, c.fsm, c.damping, c.origins, c.flap, c.seed, deliver)
}

// decodeGroupCase reads a case from data, taking zeros once it runs out:
// variant and flags, then a connected graph of 2–12 nodes (a random tree
// plus extra edges), 1–3 origins, the flapped edge and the seed. Then, if
// the next byte is not a multiple of 8, a delivered announcement: its
// path length (that byte mod 8), receiver, sender (a neighbour of the
// receiver, the path's first AS), the rest of the path and the origin it
// names as destination.
func decodeGroupCase(data []byte) groupCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var c groupCase
	c.variant = next() % len(Variants)
	flags := next()
	c.continuous, c.fsm, c.damping = flags&1 != 0, flags&2 != 0, flags&4 != 0
	c.n = 2 + next()%11
	g := topology.New(c.n)
	for v := 1; v < c.n; v++ {
		_ = g.AddEdge(topology.Node(v), topology.Node(next()%v))
	}
	for extra := next() % c.n; extra > 0; extra-- {
		_ = g.AddEdge(topology.Node(next()%c.n), topology.Node(next()%c.n)) // a self-loop is refused
	}
	c.edges = g.Edges()
	for k := 1 + next()%3; k > 0; k-- {
		if o := topology.Node(next() % c.n); !slices.Contains(c.origins, o) {
			c.origins = append(c.origins, o)
		}
	}
	c.flap = c.edges[next()%len(c.edges)]
	c.seed = int64(next())
	if length := next() % 8; length > 0 {
		to := topology.Node(next() % c.n)
		nbrs := g.Neighbors(to)
		path := routing.Path{nbrs[next()%len(nbrs)]}
		for len(path) < length {
			path = append(path, topology.Node(next()%c.n))
		}
		dest := c.origins[next()%len(c.origins)]
		c.deliver = &groupDeliver{to: to, from: path[0], up: &Update{Dest: dest, Path: path}}
	}
	return c
}

// transcriptObserver writes every observer call on a line of its own.
type transcriptObserver struct{ lines []string }

func (o *transcriptObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	o.lines = append(o.lines, fmt.Sprintf("%d route %d->%d via %d %v", now, node, dest, nexthop, best))
}

func (o *transcriptObserver) UpdateSent(now des.Time, from, to topology.Node, up Update) {
	o.lines = append(o.lines, fmt.Sprintf("%d sent %d->%d %v", now, from, to, up))
}

// runGroupCase runs c with the speakers built as a group or one by one and
// returns everything observable: the observer transcript, then per speaker
// its Stats and its table for every node as destination, then the number
// of events executed.
func runGroupCase(t *testing.T, c groupCase, asGroup bool) []string {
	t.Helper()
	g := topology.New(c.n)
	for _, e := range c.edges {
		if err := g.AddEdge(e.A, e.B); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Enhancements = Variants[c.variant].E
	cfg.MRAIContinuous = c.continuous
	if c.fsm {
		cfg.Session = SessionConfig{HoldTime: 9 * time.Second}
	}
	cfg.Damping = c.damping
	sched := des.NewScheduler()
	net := netsim.New(sched, g, netsim.DefaultLinkDelay)
	rng := des.NewRNG(c.seed)
	obs := &transcriptObserver{}
	var speakers []*Speaker
	if asGroup {
		var err error
		if speakers, err = NewSpeakers(sched, net, cfg, rng, obs, c.origins); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, v := range g.Nodes() {
			sp, err := NewSpeaker(v, sched, net, cfg, rng, obs)
			if err != nil {
				t.Fatal(err)
			}
			speakers = append(speakers, sp)
		}
	}
	for _, o := range c.origins {
		if err := speakers[o].Originate(o); err != nil {
			t.Fatal(err)
		}
	}
	const limit = 1_000_000
	settle := func(what string) {
		if sched.RunLimit(limit) >= limit {
			t.Fatalf("%s did not quiesce: %v", what, c)
		}
	}
	settle("initial convergence")
	if d := c.deliver; d != nil {
		if err := net.At(sched.Now()+time.Second, func() { speakers[d.to].Deliver(d.from, d.up) }); err != nil {
			t.Fatal(err)
		}
		settle("the delivered update")
	}
	// A withdrawal adds 1000 to a damped route's penalty, suppression
	// starts at 2000 and the penalty decays in between, so a damped case
	// flaps three times; a suppressed route is reused within the run.
	cycles := 1
	if c.damping {
		cycles = 3
	}
	for range cycles {
		for _, op := range []func(topology.Edge){net.Fail, net.Restore} {
			if err := net.At(sched.Now()+time.Second, func() { op(c.flap) }); err != nil {
				t.Fatal(err)
			}
			settle("the flap")
		}
	}

	out := obs.lines
	for _, sp := range speakers {
		if asGroup {
			checkCarve(t, sp, net, len(c.origins))
		}
		out = append(out, fmt.Sprintf("speaker %d: %+v", sp.ID(), sp.Stats()))
		for d := topology.Node(0); int(d) < c.n; d++ {
			tab := sp.Table(d)
			if tab == nil {
				out = append(out, fmt.Sprintf("  dest %d: no table", d))
				continue
			}
			line := fmt.Sprintf("  dest %d: best %v via %d;", d, tab.Best(), tab.NextHop())
			for _, u := range tab.PeersWithRoutes() {
				p, _ := tab.Received(u)
				line += fmt.Sprintf(" %d:%v", u, p)
			}
			out = append(out, line)
		}
	}
	return append(out, fmt.Sprintf("executed %d", sched.Executed()))
}

// checkCarve checks a group speaker's share of the slabs: every per-peer
// slice is exactly one slot per link, cut with its capacity, and slot i is
// link link0+i.
func checkCarve(t *testing.T, s *Speaker, net *netsim.Network, origins int) {
	t.Helper()
	lo, hi := net.Links(s.id)
	deg := hi - lo
	exact := func(what string, l, c int) {
		if l != deg || c != deg {
			t.Fatalf("speaker %d: %s has len %d cap %d, want %d", s.id, what, l, c, deg)
		}
	}
	exact("nbrs", len(s.nbrs), cap(s.nbrs))
	exact("up", len(s.up), cap(s.up))
	if s.sessions != nil {
		exact("sessions", len(s.sessions), cap(s.sessions))
	}
	if s.link0 != lo {
		t.Fatalf("speaker %d: first link %d, netsim says %d", s.id, s.link0, lo)
	}
	for slot, u := range s.nbrs {
		if net.LinkTo(lo+slot) != u {
			t.Fatalf("speaker %d: slot %d is peer %d, link %d reaches %d", s.id, slot, u, lo+slot, net.LinkTo(lo+slot))
		}
	}
	if len(s.dests) != origins || cap(s.dests) != origins {
		t.Fatalf("speaker %d: dests has len %d cap %d, want %d", s.id, len(s.dests), cap(s.dests), origins)
	}
	for _, st := range s.dests {
		if st == nil {
			continue
		}
		exact("adv", len(st.adv), cap(st.adv))
		exact("mrai", len(st.mrai), cap(st.mrai))
		if st.damp != nil {
			exact("damp", len(st.damp), cap(st.damp))
		}
	}
}

func checkGroupCase(t *testing.T, c groupCase) []string {
	t.Helper()
	got, want := runGroupCase(t, c, true), runGroupCase(t, c, false)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%v\nline %d differs:\n  group:    %s\n  per node: %s", c, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%v\ngroup gives %d lines, per node %d", c, len(got), len(want))
	}
	return got
}

// TestSpeakerGroupMatchesPerNode runs every variant × MRAI model × FSM ×
// damping combination on random small graphs, some with a delivered
// update.
func TestSpeakerGroupMatchesPerNode(t *testing.T) {
	graphs := 6
	if testing.Short() {
		graphs = 2
	}
	r := rand.New(rand.NewSource(1))
	var cases, multi, suppressed, delivered, lines int
	for variant := range Variants {
		for flags := 0; flags < 8; flags++ {
			for i := 0; i < graphs; i++ {
				data := make([]byte, 40)
				r.Read(data)
				data[0], data[1] = byte(variant), byte(flags)
				c := decodeGroupCase(data)
				out := checkGroupCase(t, c)
				cases++
				if len(c.origins) > 1 {
					multi++
				}
				if c.deliver != nil {
					delivered++
				}
				if slices.ContainsFunc(out, func(l string) bool {
					return !strings.Contains(l, "RoutesSuppressed:0 ") && strings.Contains(l, "RoutesSuppressed:")
				}) {
					suppressed++
				}
				lines += len(out)
			}
		}
	}
	t.Logf("%d cases (%d with several origins, %d with a route damped, %d with a delivered update), %d observed lines each side",
		cases, multi, suppressed, delivered, lines)
	if multi == 0 || suppressed == 0 || delivered == 0 {
		t.Fatal("no case had several origins, or none damped a route, or none delivered an update")
	}
}

func FuzzSpeakerGroupMatchesPerNode(f *testing.F) {
	f.Add([]byte{0, 0, 3})
	f.Add([]byte{4, 7, 10, 0, 1, 1, 2, 0, 3, 5, 2, 9, 4, 6, 2, 2, 9, 1, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGroupCase(t, decodeGroupCase(data))
	})
}

// TestSpeakerPeersComeFromTheNetwork: a speaker's peers are the links the
// network has, not the graph's edges. An edge added to the graph after the
// network was built is no peering, whichever way the speaker was built.
func TestSpeakerPeersComeFromTheNetwork(t *testing.T) {
	for _, asGroup := range []bool{true, false} {
		g := topology.Chain(3) // 0 - 1 - 2
		sched := des.NewScheduler()
		net := netsim.New(sched, g, netsim.DefaultLinkDelay)
		if err := g.AddEdge(0, 2); err != nil {
			t.Fatal(err)
		}
		obs := &transcriptObserver{}
		var s0 *Speaker
		if asGroup {
			speakers, err := NewSpeakers(sched, net, DefaultConfig(), des.NewRNG(1), obs, []topology.Node{0})
			if err != nil {
				t.Fatal(err)
			}
			s0 = speakers[0]
		} else {
			for _, v := range g.Nodes() {
				sp, err := NewSpeaker(v, sched, net, DefaultConfig(), des.NewRNG(1), obs)
				if err != nil {
					t.Fatal(err)
				}
				if v == 0 {
					s0 = sp
				}
			}
		}
		if got := s0.Peers(); !slices.Equal(got, []topology.Node{1}) {
			t.Fatalf("group %v: node 0's peers %v, want [1]", asGroup, got)
		}
		if s0.PeerEstablished(2) {
			t.Fatalf("group %v: node 0 has a session to 2 with no link behind it", asGroup)
		}
		if err := s0.Originate(0); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		for _, line := range obs.lines {
			if strings.Contains(line, "sent 0->2") || strings.Contains(line, "sent 2->0") {
				t.Fatalf("group %v: %s over an edge the network does not have", asGroup, line)
			}
		}
		if tab := s0.Table(0); tab == nil || tab.NextHop() != 0 {
			t.Fatalf("group %v: node 0 lost its own route", asGroup)
		}
	}
}

// TestSpeakerGroupOrigins: a group routes only its origins. A node outside
// them may not originate, and an update for it is dropped as malformed.
func TestSpeakerGroupOrigins(t *testing.T) {
	g := topology.Chain(3)
	sched := des.NewScheduler()
	net := netsim.New(sched, g, netsim.DefaultLinkDelay)
	speakers, err := NewSpeakers(sched, net, DefaultConfig(), des.NewRNG(1), nil, []topology.Node{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := speakers[1].Originate(1); err == nil {
		t.Fatal("node 1 originated a destination outside the group's origins")
	}
	if len(speakers[1].dests) != 2 {
		t.Fatalf("%d destinations for origins {0, 2}", len(speakers[1].dests))
	}
	speakers[1].Deliver(0, &Update{Dest: 1, Path: routing.Path{0, 1}})
	sched.Run()
	if speakers[1].Stats().MalformedDropped != 1 || speakers[1].Table(1) != nil {
		t.Fatalf("an update for a non-origin was taken: %+v", speakers[1].Stats())
	}
	if _, err := NewSpeakers(sched, net, DefaultConfig(), des.NewRNG(1), nil, []topology.Node{3}); err == nil {
		t.Fatal("an origin outside the graph was accepted")
	}
}
