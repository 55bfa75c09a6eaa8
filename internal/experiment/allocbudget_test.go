package experiment

import (
	"os"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// The allocation budgets of the control-plane kernel's hot path. Seven
// updates in eight change no best path on a Clique(10) MRAI=0 run, so what
// a trial costs is what the no-change path costs; these pin it at nothing
// per message, layer by layer, and cap a whole trial.

func skipUnlessAllocsAreOurs(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	if os.Getenv("BGPSIM_GUARD") != "" {
		t.Skip("invariant guards allocate")
	}
}

// A non-improving update on a warm table: one slot overwritten in place.
func TestAllocBudgetTableUpdate(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	tab := routing.NewTable(9, 0, routing.ShortestPath{})
	for peer := topology.Node(1); peer <= 8; peer++ {
		tab.Update(peer, routing.Path{peer, 7, 6, 5, 4, 3, 2, 0}[:2+peer%6])
	}
	tab.Update(1, routing.Path{1, 0}) // the best, and it stays
	longer, shorter := routing.Path{5, 8, 7, 6, 4, 3, 2, 0}, routing.Path{5, 4, 3, 0}
	if n := testing.AllocsPerRun(1000, func() {
		if tab.Update(5, longer) || tab.Update(5, shorter) || tab.Update(1, routing.Path{1, 0}) {
			t.Fatal("best path changed")
		}
	}); n != 0 {
		t.Errorf("non-improving Table.Update allocates %v times, want 0", n)
	}
}

type countingReceiver struct{ fired int }

func (r *countingReceiver) Fire(int, int, uint64, any) { r.fired++ }

// Scheduling and firing a typed event on a warm scheduler: the event comes
// off the free list and goes back.
func TestAllocBudgetTypedEvent(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sched := des.NewScheduler()
	r := &countingReceiver{}
	var arg any = r
	cycle := func() {
		for i := 0; i < 100; i++ {
			if _, err := sched.Schedule(sched.Now()+des.Time(i%7), r, 1, i, uint64(i), arg); err != nil {
				t.Fatal(err)
			}
		}
		sched.Run()
	}
	cycle() // warm: grow the heap and the free list
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("100 schedule+fire cycles allocate %v times, want 0", n)
	}
	if r.fired == 0 {
		t.Fatal("nothing fired")
	}
}

type sink struct{ delivered int }

func (s *sink) Deliver(topology.Node, any) { s.delivered++ }
func (s *sink) PeerDown(topology.Node)     {}
func (s *sink) PeerUp(topology.Node)       {}

// Sending a payload that is already boxed and delivering it to a sink: a
// FIFO push, a typed event, a FIFO pop.
func TestAllocBudgetSendDeliver(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sched := des.NewScheduler()
	g := topology.Clique(4)
	net := netsim.New(sched, g, 2*time.Millisecond)
	to := &sink{}
	for _, v := range g.Nodes() {
		net.Attach(v, to)
	}
	var payload any = bgp.Update{Dest: 0, Path: routing.Path{1, 0}}
	cycle := func() {
		for i := 0; i < 60; i++ {
			if err := net.Send(topology.Node(i%4), topology.Node((i+1+i/4%3)%4), payload); err != nil {
				t.Fatal(err)
			}
		}
		sched.Run()
	}
	cycle() // warm: per-link queues, heap, free list
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("60 sends and deliveries allocate %v times, want 0", n)
	}
	if to.delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// One whole Clique(10) MRAI=0 T_down trial, set-up, replay and loop scan
// included: about 23 k messages. It took 209 k allocations while every
// message cost eight.
func TestAllocBudgetCliqueTrial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 0
	var sent int
	n := testing.AllocsPerRun(3, func() {
		res, err := Run(CliqueTDown(10, cfg, 1))
		if err != nil {
			t.Fatal(err)
		}
		sent = res.Net.Sent
	})
	t.Logf("%v allocations for %d messages", n, sent)
	if sent < 20000 {
		t.Fatalf("only %d messages sent; the trial is not the path-exploration blow-up any more", sent)
	}
	if n > 20000 {
		t.Errorf("one Clique(10) MRAI=0 trial allocates %v times, budget 20000", n)
	}
}
