package netsim

import (
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

type recordingTap struct {
	sent, delivered, lost int
	sessions              []string
	lastID                uint64
}

func (r *recordingTap) MessageSent(from, to topology.Node, id uint64)      { r.sent++; r.lastID = id }
func (r *recordingTap) MessageDelivered(from, to topology.Node, id uint64) { r.delivered++ }
func (r *recordingTap) MessageLost(a, b topology.Node, id uint64)          { r.lost++ }
func (r *recordingTap) SessionDown(a, b topology.Node)                     { r.sessions = append(r.sessions, "down") }
func (r *recordingTap) SessionUp(a, b topology.Node)                       { r.sessions = append(r.sessions, "up") }

type sinkHandler struct{ delivered int }

func (h *sinkHandler) Deliver(topology.Node, any) { h.delivered++ }
func (h *sinkHandler) PeerDown(topology.Node)     {}
func (h *sinkHandler) PeerUp(topology.Node)       {}

func TestTapMirrorsStats(t *testing.T) {
	sched := des.NewScheduler()
	g := topology.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	net := New(sched, g, 0)
	h0, h1 := &sinkHandler{}, &sinkHandler{}
	net.Attach(0, h0)
	net.Attach(1, h1)
	tap := &recordingTap{}
	net.SetTap(tap)

	// Two delivered messages, then one in flight when the link fails.
	if err := net.Send(0, 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(1, 0, "b"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if err := net.Send(0, 1, "c"); err != nil {
		t.Fatal(err)
	}
	at(t, net, sched.Now()+time.Millisecond, net.Fail, topology.Edge{A: 0, B: 1})
	at(t, net, sched.Now()+time.Second, net.Restore, topology.Edge{A: 0, B: 1})
	sched.Run()

	st := net.Stats()
	if tap.sent != st.Sent || tap.delivered != st.Delivered || tap.lost != st.Lost {
		t.Fatalf("tap counts (sent=%d delivered=%d lost=%d) diverge from stats %+v",
			tap.sent, tap.delivered, tap.lost, st)
	}
	if tap.lost != 1 || tap.delivered != 2 {
		t.Fatalf("delivered=%d lost=%d, want 2/1", tap.delivered, tap.lost)
	}
	if len(tap.sessions) != 2 || tap.sessions[0] != "down" || tap.sessions[1] != "up" {
		t.Fatalf("session transitions = %v, want [down up]", tap.sessions)
	}
}

func TestTapSeesDeliveryWithoutHandler(t *testing.T) {
	sched := des.NewScheduler()
	g := topology.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	net := New(sched, g, 0)
	net.Attach(0, &sinkHandler{})
	// Node 1 has no handler: the payload goes nowhere, but the message
	// still left the channel — both tap and Stats.Delivered must see the
	// arrival for conservation (Sent == Delivered + Lost).
	tap := &recordingTap{}
	net.SetTap(tap)
	if err := net.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if tap.delivered != 1 {
		t.Fatalf("tap delivered = %d, want 1", tap.delivered)
	}
	if net.Stats().Delivered != 1 {
		t.Fatalf("stats delivered = %d, want 1", net.Stats().Delivered)
	}
}
