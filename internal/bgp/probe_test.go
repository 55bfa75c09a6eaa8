package bgp

import (
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// countObserver counts callbacks.
type countObserver struct {
	routeChanged int
	updateSent   int
}

func (c *countObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	c.routeChanged++
}

func (c *countObserver) UpdateSent(now des.Time, from, to topology.Node, update Update) {
	c.updateSent++
}

func TestTeeFansOut(t *testing.T) {
	a, b := &countObserver{}, &countObserver{}
	obs := Tee(a, nil, b)
	obs.RouteChanged(0, 1, 0, 2, routing.Path{2, 0})
	obs.UpdateSent(0, 1, 2, Update{})
	obs.UpdateSent(0, 2, 1, Update{})
	if a.routeChanged != 1 || a.updateSent != 2 {
		t.Errorf("first observer saw %d/%d, want 1/2", a.routeChanged, a.updateSent)
	}
	if b.routeChanged != 1 || b.updateSent != 2 {
		t.Errorf("second observer saw %d/%d, want 1/2", b.routeChanged, b.updateSent)
	}
}

func TestTeeUnwrapsSingletonAndEmpty(t *testing.T) {
	a := &countObserver{}
	if got := Tee(nil, a, nil); got != Observer(a) {
		t.Errorf("Tee with one live observer = %T, want the observer itself", got)
	}
	if _, ok := Tee(nil, nil).(NopObserver); !ok {
		t.Errorf("Tee with no live observers should be a NopObserver")
	}
	// Every untraced, unguarded trial calls Tee with one live observer.
	if n := testing.AllocsPerRun(100, func() { _ = Tee(a, nil, nil, nil) }); n != 0 {
		t.Errorf("Tee with one live observer allocates %v times, want 0", n)
	}
}

func TestOscillationProbeDetectsRecurrence(t *testing.T) {
	p := NewOscillationProbe(3, 0)
	// Node 1 alternates between two next hops: the global state cycles
	// A, B, A, B, ... so each state recurs.
	for i := 0; i < 10; i++ {
		p.RouteChanged(des.Time(i)*time.Second, 1, 0, 0, routing.Path{0})
		p.RouteChanged(des.Time(i)*time.Second, 1, 0, 2, routing.Path{2, 0})
	}
	st := p.Snapshot(10 * time.Second)
	if st.DistinctStates != 2 {
		t.Errorf("DistinctStates = %d, want 2", st.DistinctStates)
	}
	if st.MaxRecurrence != 10 {
		t.Errorf("MaxRecurrence = %d, want 10", st.MaxRecurrence)
	}
}

func TestOscillationProbeIgnoresOtherDest(t *testing.T) {
	p := NewOscillationProbe(3, 0)
	p.RouteChanged(0, 1, 2, 2, routing.Path{2}) // other destination
	st := p.Snapshot(time.Second)
	if st.DistinctStates != 0 {
		t.Errorf("DistinctStates = %d, want 0 (other destination)", st.DistinctStates)
	}
}

func TestOscillationProbeMonotoneProgressLowRecurrence(t *testing.T) {
	p := NewOscillationProbe(8, 0)
	// Seven nodes each settle once — every global state is fresh.
	for v := topology.Node(1); v < 8; v++ {
		p.RouteChanged(0, v, 0, 0, routing.Path{0})
	}
	st := p.Snapshot(time.Second)
	if st.MaxRecurrence != 1 {
		t.Errorf("MaxRecurrence = %d, want 1 for monotone progress", st.MaxRecurrence)
	}
	if st.DistinctStates != 7 {
		t.Errorf("DistinctStates = %d, want 7", st.DistinctStates)
	}
}

func TestOscillationProbeBeginPhaseResetsWindow(t *testing.T) {
	p := NewOscillationProbe(3, 0)
	p.UpdateSent(0, 1, 2, Update{})
	p.UpdateSent(0, 1, 2, Update{})
	p.UpdateSent(0, 2, 1, Update{})
	p.RouteChanged(0, 1, 0, 0, routing.Path{0})

	p.BeginPhase(10 * time.Second)
	st := p.Snapshot(12 * time.Second)
	if len(st.Talkers) != 0 {
		t.Errorf("Talkers after BeginPhase = %v, want none", st.Talkers)
	}
	if st.DistinctStates != 0 || st.MaxRecurrence != 0 {
		t.Errorf("state stats after BeginPhase = %d/%d, want 0/0", st.DistinctStates, st.MaxRecurrence)
	}
	if st.PhaseStart != 10*time.Second {
		t.Errorf("PhaseStart = %v, want 10s", st.PhaseStart)
	}

	// The fingerprint itself survives the phase boundary: re-announcing
	// the same route recurs into the same global state.
	p.RouteChanged(11*time.Second, 1, 0, 2, routing.Path{2, 0})
	p.RouteChanged(11*time.Second, 1, 0, 0, routing.Path{0})
	st = p.Snapshot(12 * time.Second)
	if st.DistinctStates != 2 {
		t.Errorf("DistinctStates = %d, want 2", st.DistinctStates)
	}
}

func TestOscillationProbeTalkersSorted(t *testing.T) {
	p := NewOscillationProbe(4, 0)
	p.BeginPhase(0)
	p.UpdateSent(0, 3, 0, Update{})
	p.UpdateSent(0, 1, 0, Update{})
	p.UpdateSent(0, 1, 0, Update{})
	p.UpdateSent(0, 2, 0, Update{})
	st := p.Snapshot(2 * time.Second)
	if len(st.Talkers) != 3 {
		t.Fatalf("Talkers = %v, want 3 rows", st.Talkers)
	}
	if st.Talkers[0].Node != 1 || st.Talkers[0].Updates != 2 {
		t.Errorf("top talker = %+v, want node 1 with 2 updates", st.Talkers[0])
	}
	// Tie between nodes 2 and 3 breaks by node ID.
	if st.Talkers[1].Node != 2 || st.Talkers[2].Node != 3 {
		t.Errorf("tie order = %d, %d, want 2, 3", st.Talkers[1].Node, st.Talkers[2].Node)
	}
	if st.Talkers[0].PerSecond != 1.0 {
		t.Errorf("PerSecond = %v, want 1.0 (2 updates / 2s)", st.Talkers[0].PerSecond)
	}
}

func TestOscillationProbeEmptyRIBFingerprint(t *testing.T) {
	p := NewOscillationProbe(3, 0)
	// Node 1 installs a route, then loses it (empty RIB: no next hop, nil
	// best path). The routeless state must be a distinct fingerprint —
	// not the initial state, and not the routed one — or withdraw
	// oscillations would be invisible.
	p.RouteChanged(0, 1, 0, 0, routing.Path{0})
	p.RouteChanged(time.Second, 1, 0, topology.None, nil)
	st := p.Snapshot(2 * time.Second)
	if st.DistinctStates != 2 {
		t.Fatalf("DistinctStates = %d, want 2 (routed and routeless)", st.DistinctStates)
	}
	if st.MaxRecurrence != 1 {
		t.Errorf("MaxRecurrence = %d, want 1", st.MaxRecurrence)
	}
	// An announce/withdraw flap cycles between exactly those two states.
	for i := 2; i < 8; i += 2 {
		p.RouteChanged(des.Time(i)*time.Second, 1, 0, 0, routing.Path{0})
		p.RouteChanged(des.Time(i+1)*time.Second, 1, 0, topology.None, nil)
	}
	st = p.Snapshot(8 * time.Second)
	if st.DistinctStates != 2 {
		t.Errorf("flap DistinctStates = %d, want 2", st.DistinctStates)
	}
	if st.MaxRecurrence != 4 {
		t.Errorf("flap MaxRecurrence = %d, want 4", st.MaxRecurrence)
	}
}

func TestOscillationProbeSingleSpeaker(t *testing.T) {
	// A single-node topology: the destination is the only speaker, so
	// every callback cites out-of-range peers. The probe must ignore them
	// rather than panic or misattribute state.
	p := NewOscillationProbe(1, 0)
	p.RouteChanged(0, 1, 0, 0, routing.Path{0}) // node 1 does not exist
	p.UpdateSent(0, 1, 0, Update{})             // neither does this talker
	st := p.Snapshot(time.Second)
	if st.DistinctStates != 0 || len(st.Talkers) != 0 {
		t.Errorf("single-speaker probe recorded %d states, %d talkers, want none",
			st.DistinctStates, len(st.Talkers))
	}
	// The destination's own (degenerate) route change is still in range.
	p.RouteChanged(0, 0, 0, 0, routing.Path{0})
	if st := p.Snapshot(time.Second); st.DistinctStates != 1 {
		t.Errorf("DistinctStates = %d, want 1", st.DistinctStates)
	}
}

func TestOscillationProbeWindowLargerThanHorizon(t *testing.T) {
	// When the virtual-time horizon cuts a phase short, a watchdog can
	// snapshot at or before the phase start (zero or negative window).
	// Rates must degrade to zero, never to Inf or negative values.
	p := NewOscillationProbe(3, 0)
	p.BeginPhase(10 * time.Second)
	p.UpdateSent(10*time.Second, 1, 2, Update{})
	for _, now := range []des.Time{10 * time.Second, 5 * time.Second} {
		st := p.Snapshot(now)
		if len(st.Talkers) != 1 {
			t.Fatalf("Talkers at %v = %v, want 1 row", now, st.Talkers)
		}
		if ps := st.Talkers[0].PerSecond; ps != 0 {
			t.Errorf("PerSecond at %v = %v, want 0 for a degenerate window", now, ps)
		}
	}
}
