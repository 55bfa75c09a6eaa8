package netsim

import (
	"errors"
	"slices"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// recorder is a test Handler that logs every callback with its time.
type recorder struct {
	sched      *des.Scheduler
	deliveries []delivery
	peerDowns  []topology.Node
	peerUps    []topology.Node
}

type delivery struct {
	from    topology.Node
	payload any
	at      des.Time
}

func (r *recorder) Deliver(from topology.Node, payload any) {
	r.deliveries = append(r.deliveries, delivery{from: from, payload: payload, at: r.sched.Now()})
}

func (r *recorder) PeerDown(peer topology.Node) {
	r.peerDowns = append(r.peerDowns, peer)
}

func (r *recorder) PeerUp(peer topology.Node) {
	r.peerUps = append(r.peerUps, peer)
}

func build(t *testing.T, g *topology.Graph, delay time.Duration) (*des.Scheduler, *Network, map[topology.Node]*recorder) {
	t.Helper()
	sched := des.NewScheduler()
	net := New(sched, g, delay)
	recs := make(map[topology.Node]*recorder)
	for _, v := range g.Nodes() {
		r := &recorder{sched: sched}
		recs[v] = r
		net.Attach(v, r)
	}
	return sched, net, recs
}

// at applies op to each link in order at virtual time when, in one event
// — what faultplan.Action.Schedule does with the operations under test.
func at(t *testing.T, net *Network, when des.Time, op func(topology.Edge), links ...topology.Edge) {
	t.Helper()
	if err := net.At(when, func() {
		for _, e := range links {
			op(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSendDeliversAfterDelay(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 2*time.Millisecond)
	if err := net.Send(0, 1, "hello"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	d := recs[1].deliveries
	if len(d) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(d))
	}
	if d[0].from != 0 || d[0].payload != "hello" {
		t.Errorf("delivery = %+v", d[0])
	}
	if d[0].at != 2*time.Millisecond {
		t.Errorf("delivered at %v, want 2ms", d[0].at)
	}
	if s := net.Stats(); s.Sent != 1 || s.Delivered != 1 || s.Lost != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSendInOrder(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, DefaultLinkDelay)
	for i := 0; i < 10; i++ {
		if err := net.Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	for i, d := range recs[1].deliveries {
		if d.payload != i {
			t.Fatalf("delivery %d carried %v: out of order", i, d.payload)
		}
	}
}

func TestSendNoLink(t *testing.T) {
	g := topology.Chain(3) // no 0-2 edge
	_, net, _ := build(t, g, 0)
	if err := net.Send(0, 2, "x"); !errors.Is(err, ErrLinkDown) {
		t.Errorf("Send over missing link = %v, want ErrLinkDown", err)
	}
}

func TestFailLinkNotifiesBothEnds(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 0)
	at(t, net, 5*time.Second, net.Fail, topology.Edge{A: 0, B: 1})
	sched.Run()
	if len(recs[0].peerDowns) != 1 || recs[0].peerDowns[0] != 1 {
		t.Errorf("node 0 peerDowns = %v", recs[0].peerDowns)
	}
	if len(recs[1].peerDowns) != 1 || recs[1].peerDowns[0] != 0 {
		t.Errorf("node 1 peerDowns = %v", recs[1].peerDowns)
	}
	if net.LinkUp(0, 1) {
		t.Error("link still up after failure")
	}
	if err := net.Send(0, 1, "x"); !errors.Is(err, ErrLinkDown) {
		t.Errorf("Send after failure = %v, want ErrLinkDown", err)
	}
}

func TestFailLinkDestroysInflight(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 10*time.Millisecond)
	// Send at t=0; failure at t=5ms beats the 10ms delivery.
	if err := net.Send(0, 1, "doomed"); err != nil {
		t.Fatal(err)
	}
	at(t, net, 5*time.Millisecond, net.Fail, topology.Edge{A: 0, B: 1})
	sched.Run()
	if len(recs[1].deliveries) != 0 {
		t.Errorf("in-flight message delivered across failed link: %v", recs[1].deliveries)
	}
	if s := net.Stats(); s.Lost != 1 {
		t.Errorf("stats.Lost = %d, want 1", s.Lost)
	}
}

func TestFailLinkIdempotent(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 0)
	at(t, net, time.Second, net.Fail, topology.Edge{A: 0, B: 1})
	at(t, net, 2*time.Second, net.Fail, topology.Edge{A: 1, B: 0})
	sched.Run()
	if len(recs[0].peerDowns) != 1 {
		t.Errorf("duplicate failure re-notified: %v", recs[0].peerDowns)
	}
}

func TestFailNode(t *testing.T) {
	g := topology.Star(4) // hub 0 with spokes 1..3
	sched, net, recs := build(t, g, 0)
	at(t, net, time.Second, net.Fail, g.IncidentEdges(0)...)
	sched.Run()
	for _, spoke := range []topology.Node{1, 2, 3} {
		if len(recs[spoke].peerDowns) != 1 || recs[spoke].peerDowns[0] != 0 {
			t.Errorf("spoke %d peerDowns = %v", spoke, recs[spoke].peerDowns)
		}
		if net.LinkUp(0, spoke) {
			t.Errorf("link 0-%d survived node failure", spoke)
		}
	}
	if len(recs[0].peerDowns) != 3 {
		t.Errorf("hub peerDowns = %v, want all three", recs[0].peerDowns)
	}
}

func TestRestoreLink(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 0)
	at(t, net, time.Second, net.Fail, topology.Edge{A: 0, B: 1})
	at(t, net, 2*time.Second, net.Restore, topology.Edge{A: 0, B: 1})
	sched.Run()
	if !net.LinkUp(0, 1) {
		t.Error("link still down after restore")
	}
	if len(recs[0].peerUps) != 1 || recs[0].peerUps[0] != 1 {
		t.Errorf("node 0 peerUps = %v", recs[0].peerUps)
	}
	if len(recs[1].peerUps) != 1 || recs[1].peerUps[0] != 0 {
		t.Errorf("node 1 peerUps = %v", recs[1].peerUps)
	}
	if err := net.Send(0, 1, "again"); err != nil {
		t.Errorf("Send after restore failed: %v", err)
	}
	sched.Run()
	if len(recs[1].deliveries) != 1 {
		t.Errorf("post-restore delivery missing")
	}
}

func TestRestoreIdempotent(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 0)
	// Restoring an up link is a no-op.
	at(t, net, time.Second, net.Restore, topology.Edge{A: 0, B: 1})
	sched.Run()
	if len(recs[0].peerUps) != 0 {
		t.Errorf("restore of up link fired PeerUp: %v", recs[0].peerUps)
	}
}

func TestRestoreNode(t *testing.T) {
	g := topology.Star(4)
	sched, net, recs := build(t, g, 0)
	at(t, net, time.Second, net.Fail, g.IncidentEdges(0)...)
	at(t, net, 2*time.Second, net.Restore, g.IncidentEdges(0)...)
	sched.Run()
	for _, spoke := range []topology.Node{1, 2, 3} {
		if !net.LinkUp(0, spoke) {
			t.Errorf("link 0-%d still down after node restore", spoke)
		}
		if len(recs[spoke].peerUps) != 1 {
			t.Errorf("spoke %d peerUps = %v", spoke, recs[spoke].peerUps)
		}
	}
	if len(recs[0].peerUps) != 3 {
		t.Errorf("hub peerUps = %v", recs[0].peerUps)
	}
}

func TestUpNeighbors(t *testing.T) {
	g := topology.Clique(4)
	sched, net, _ := build(t, g, 0)
	at(t, net, time.Second, net.Fail, topology.Edge{A: 0, B: 2})
	sched.Run()
	up := net.UpNeighbors(0)
	if len(up) != 2 || up[0] != 1 || up[1] != 3 {
		t.Errorf("UpNeighbors(0) = %v, want [1 3]", up)
	}
}

func TestDefaultDelayApplied(t *testing.T) {
	g := topology.Chain(2)
	net := New(des.NewScheduler(), g, 0)
	if net.LinkDelay() != DefaultLinkDelay {
		t.Errorf("LinkDelay = %v, want %v", net.LinkDelay(), DefaultLinkDelay)
	}
}

func TestSendToUnattachedNode(t *testing.T) {
	g := topology.Chain(2)
	sched := des.NewScheduler()
	net := New(sched, g, 0)
	// No handlers attached: delivery is a safe no-op for the payload, but
	// the arrival still counts so Sent == Delivered + Lost holds exactly.
	if err := net.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if s := net.Stats(); s.Delivered != 1 || s.Sent != 1 || s.Lost != 0 {
		t.Errorf("unattached delivery broke conservation: %+v", s)
	}
}

func TestGraphAccessor(t *testing.T) {
	g := topology.Chain(2)
	net := New(des.NewScheduler(), g, 0)
	if net.Graph() != g {
		t.Error("Graph() did not return the underlying topology")
	}
}

func TestFailLinksCorrelated(t *testing.T) {
	g := topology.Ring(4)
	sched, net, recs := build(t, g, time.Millisecond)
	group := []topology.Edge{topology.NormEdge(0, 1), topology.NormEdge(2, 3)}
	at(t, net, time.Second, net.Fail, group...)
	at(t, net, 2*time.Second, net.Restore, group...)
	sched.Run()
	for _, v := range g.Nodes() {
		if len(recs[v].peerDowns) != 1 {
			t.Errorf("node %d peerDowns = %v, want exactly one", v, recs[v].peerDowns)
		}
		if len(recs[v].peerUps) != 1 {
			t.Errorf("node %d peerUps = %v, want exactly one", v, recs[v].peerUps)
		}
	}
	if err := net.Send(0, 1, "after"); err != nil {
		t.Errorf("link [0 1] should be restored: %v", err)
	}
}

func TestResetSessionBouncesPeers(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, 2*time.Millisecond)
	// An in-flight message must be destroyed by the reset.
	if err := net.Send(0, 1, "doomed"); err != nil {
		t.Fatal(err)
	}
	at(t, net, time.Millisecond, net.BounceSession, topology.Edge{A: 0, B: 1})
	sched.Run()
	if len(recs[1].deliveries) != 0 {
		t.Errorf("deliveries = %v, want none (reset loses in-flight messages)", recs[1].deliveries)
	}
	for _, v := range g.Nodes() {
		if len(recs[v].peerDowns) != 1 || len(recs[v].peerUps) != 1 {
			t.Errorf("node %d transitions = %d down / %d up, want 1/1",
				v, len(recs[v].peerDowns), len(recs[v].peerUps))
		}
	}
	// The link itself stays up: a fresh send after the reset succeeds.
	if err := net.Send(0, 1, "alive"); err != nil {
		t.Errorf("send after reset: %v", err)
	}
	sched.Run()
	if len(recs[1].deliveries) != 1 {
		t.Errorf("post-reset deliveries = %d, want 1", len(recs[1].deliveries))
	}
}

func TestResetSessionDownLinkIsNoop(t *testing.T) {
	g := topology.Chain(2)
	sched, net, recs := build(t, g, time.Millisecond)
	at(t, net, time.Millisecond, net.Fail, topology.Edge{A: 0, B: 1})
	at(t, net, 2*time.Millisecond, net.BounceSession, topology.Edge{A: 0, B: 1})
	sched.Run()
	// Only the failure's PeerDown: resetting a down link does nothing.
	if len(recs[0].peerDowns) != 1 || len(recs[0].peerUps) != 0 {
		t.Errorf("transitions = %d down / %d up, want 1/0",
			len(recs[0].peerDowns), len(recs[0].peerUps))
	}
}

// TestLinkTable checks the directed-link table New fills from the edge
// list: node v's links are its neighbors in ascending order, each link's
// rev is the opposite direction, and an edge added to the graph later is
// no link.
func TestLinkTable(t *testing.T) {
	g := topology.New(7)
	for _, e := range [][2]topology.Node{{3, 0}, {0, 5}, {6, 3}, {1, 3}, {5, 6}, {2, 4}, {3, 5}, {1, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	_, net, _ := build(t, g, time.Millisecond)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range g.Nodes() {
		lo, hi := net.Links(v)
		if lo != total {
			t.Fatalf("node %d's links start at %d, want %d", v, lo, total)
		}
		total = hi
		var far []topology.Node
		for i := lo; i < hi; i++ {
			far = append(far, net.LinkTo(i))
			l := net.links[i]
			if l.from != v || net.links[l.rev].from != l.to || net.links[l.rev].to != v || net.links[l.rev].rev != i {
				t.Fatalf("link %d (%d->%d) and its rev %d disagree", i, l.from, l.to, l.rev)
			}
		}
		want := g.Neighbors(v)
		if v == 0 || v == 1 {
			want = slices.DeleteFunc(want, func(u topology.Node) bool { return u == 1-v })
		}
		if !slices.Equal(far, want) {
			t.Fatalf("node %d's links reach %v, want %v", v, far, want)
		}
	}
	if total != len(net.links) || cap(net.links) != 2*8 {
		t.Fatalf("%d links in a table of len %d, cap %d; want 16 exactly", total, len(net.links), cap(net.links))
	}
	if lo, hi := net.Links(7); lo != hi {
		t.Fatalf("a node outside the graph has links %d..%d", lo, hi)
	}
}

// TestSendLinkMatchesSend: a send by link id is the send by endpoints, and
// refuses a failed or absent link the same way.
func TestSendLinkMatchesSend(t *testing.T) {
	sched, net, recs := build(t, topology.Ring(4), time.Millisecond)
	lo, hi := net.Links(2)
	for i := lo; i < hi; i++ {
		if err := net.SendLink(i, i); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	for i := lo; i < hi; i++ {
		got := recs[net.LinkTo(i)].deliveries
		if len(got) != 1 || got[0].from != 2 || got[0].payload != i {
			t.Fatalf("link %d delivered %v to %d, want payload %d from 2", i, got, net.LinkTo(i), i)
		}
	}
	net.Fail(topology.Edge{A: 2, B: 3})
	i := lo + 1 // 2 -> 3
	if err := net.SendLink(i, "x"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("SendLink on a failed link: %v, want ErrLinkDown", err)
	}
	for _, bad := range []int{-1, len(net.links)} {
		if err := net.SendLink(bad, "x"); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("SendLink(%d): %v, want ErrLinkDown", bad, err)
		}
	}
}
