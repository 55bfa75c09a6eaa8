package experiment

import (
	"fmt"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/invariant"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// guardTap adapts the netsim observation tap onto the invariant engine,
// stamping virtual times from the scheduler.
type guardTap struct {
	eng   *invariant.Engine
	sched *des.Scheduler
}

func (t *guardTap) MessageSent(from, to topology.Node, id uint64) {
	t.eng.NoteSend(t.sched.Now(), int(from), int(to), id)
}

func (t *guardTap) MessageDelivered(from, to topology.Node, id uint64) {
	t.eng.NoteDeliver(t.sched.Now(), int(from), int(to), id)
}

func (t *guardTap) MessageLost(a, b topology.Node, id uint64) {
	t.eng.NoteLost(t.sched.Now(), int(a), int(b), id)
}

func (t *guardTap) SessionDown(a, b topology.Node) {
	t.eng.NoteSessionDown(t.sched.Now(), int(a), int(b))
}

func (t *guardTap) SessionUp(a, b topology.Node) {
	t.eng.NoteSessionUp(t.sched.Now(), int(a), int(b))
}

var _ netsim.Tap = (*guardTap)(nil)

// guardObserver adapts the BGP observer stream onto the invariant engine
// (MRAI soundness and the forensic trail).
type guardObserver struct {
	eng *invariant.Engine
}

func (o *guardObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	o.eng.NoteRouteChange(now, int(node), int(dest), int(nexthop), best.String())
}

func (o *guardObserver) UpdateSent(now des.Time, from, to topology.Node, up bgp.Update) {
	o.eng.NoteUpdate(now, int(from), int(to), int(up.Dest), up.Withdraw)
}

var _ bgp.Observer = (*guardObserver)(nil)

// buildGuardEngine assembles the invariant engine for one run: the sweep
// checks (RIB/FIB coherence, AS-path sanity) close over the run's
// speakers and FIB history, the MRAI window is the configured jitter
// floor, and the state digest snapshots every speaker's table. The
// engine is wired to the kernel and network by the caller; everything
// registered here is observation-only.
func buildGuardEngine(s Scenario, sched *des.Scheduler, speakers *[]*bgp.Speaker, obs *observer) (*invariant.Engine, error) {
	corrupt, err := s.corruptFIBNode()
	if err != nil {
		return nil, err
	}
	eng := invariant.New()
	if s.BGP.MRAI > 0 && s.BGP.JitterMin > 0 {
		eng.SetMRAIWindow(time.Duration(float64(s.BGP.MRAI) * s.BGP.JitterMin))
	}

	// RIB/FIB coherence: between events, every node's recorded FIB next
	// hop equals its table's best-route next hop. The exec hook fires
	// before each event function, so the sweep only ever sees
	// between-events state, where RIB and FIB history are updated
	// atomically. CorruptFIBNode perturbs only the guard's *view* of the
	// FIB — the simulation is untouched — making this check
	// self-testable without breaking digest parity.
	eng.Register("rib-fib-coherence", func() *invariant.Violation {
		if obs.err != nil {
			return nil // history recording already failed; that error surfaces first
		}
		for _, sp := range *speakers {
			node := sp.ID()
			if node == s.Dest {
				continue // the destination delivers locally; no FIB entry
			}
			ribNH := topology.None
			if t := sp.Table(s.Dest); t != nil {
				ribNH = t.NextHop()
			}
			fibNH := obs.histories[s.Dest].NextHop(node)
			if node == corrupt {
				fibNH = topology.None
			}
			if ribNH != fibNH {
				return &invariant.Violation{
					Node: int(node), Peer: invariant.NoNode,
					Detail: fmt.Sprintf("installed next hop %d does not match best-route next hop %d for dest %d", fibNH, ribNH, s.Dest),
				}
			}
		}
		return nil
	})

	// AS-path sanity: an accepted (selected) path starts at the local AS
	// exactly once, never revisits it, and originates at the
	// destination. Raw adj-RIB-in entries may legitimately contain the
	// local AS (poison reverse is applied at selection time), so only
	// the best path is constrained.
	eng.Register("as-path-sanity", func() *invariant.Violation {
		for _, sp := range *speakers {
			t := sp.Table(s.Dest)
			if t == nil {
				continue
			}
			best := t.Best()
			if best == nil {
				continue
			}
			switch {
			case best.First() != sp.ID():
				return &invariant.Violation{
					Node: int(sp.ID()), Peer: invariant.NoNode,
					Detail: fmt.Sprintf("best path %v does not start at the local AS", best),
				}
			case best[1:].Contains(sp.ID()):
				return &invariant.Violation{
					Node: int(sp.ID()), Peer: invariant.NoNode,
					Detail: fmt.Sprintf("local AS appears again in the accepted path %v", best),
				}
			case best.Origin() != s.Dest:
				return &invariant.Violation{
					Node: int(sp.ID()), Peer: invariant.NoNode,
					Detail: fmt.Sprintf("accepted path %v does not originate at dest %d", best, s.Dest),
				}
			}
		}
		return nil
	})

	// Session-withdrawal completeness: a phase boundary is a quiescent
	// instant, so any route learned over a session that is now down must
	// already have left the adj-RIB-in — either through an explicit
	// withdrawal or through the implicit withdrawal the session teardown
	// performs. A surviving entry means a teardown path forgot to flush
	// (or an update from a dead session was accepted), which would let
	// ghost routes steer the data plane indefinitely. This is a boundary
	// check, not a sweep check: mid-phase the entry may legitimately
	// linger while the withdrawal is still in flight.
	eng.RegisterBoundary("session-withdrawal-completeness", func() *invariant.Violation {
		for _, sp := range *speakers {
			t := sp.Table(s.Dest)
			if t == nil {
				continue
			}
			for _, u := range s.Graph.Neighbors(sp.ID()) {
				if sp.PeerEstablished(u) {
					continue
				}
				if p, ok := t.Received(u); ok {
					return &invariant.Violation{
						Node: int(sp.ID()), Peer: int(u),
						Detail: fmt.Sprintf("adj-RIB-in still holds %v from peer %d whose session is down", p, u),
					}
				}
			}
		}
		return nil
	})

	eng.SetStateDigest(func() []string {
		out := make([]string, 0, len(*speakers))
		for _, sp := range *speakers {
			t := sp.Table(s.Dest)
			if t == nil {
				out = append(out, fmt.Sprintf("node %d: no table", sp.ID()))
				continue
			}
			out = append(out, fmt.Sprintf("node %d: nexthop=%d best=%v", sp.ID(), t.NextHop(), t.Best()))
		}
		return out
	})

	return eng, nil
}
