// Package trace records protocol event traces from a simulation run: every
// update sent, every best-path change, with virtual timestamps. The paper's
// "next steps" section proposes examining route-change traces to measure
// per-loop statistics; this package records those traces and renders each
// event as one line for human inspection (bgpsim -trace).
package trace

import (
	"fmt"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Kind classifies trace events.
type Kind int

const (
	// KindAnnounce is an announcement handed to the network.
	KindAnnounce Kind = iota + 1
	// KindWithdraw is a withdrawal handed to the network.
	KindWithdraw
	// KindRouteChange is a loc-RIB (FIB) change at a node.
	KindRouteChange
)

// String names the kind for rendering.
func (k Kind) String() string {
	switch k {
	case KindAnnounce:
		return "announce"
	case KindWithdraw:
		return "withdraw"
	case KindRouteChange:
		return "route"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one trace record.
type Event struct {
	At   des.Time
	Kind Kind
	// Node is the acting node (sender for updates, owner for route
	// changes).
	Node topology.Node
	// Peer is the update receiver (updates only).
	Peer topology.Node
	// Dest is the destination the event concerns.
	Dest topology.Node
	// Path is the announced path (announce) or the new best path (route
	// change); nil for withdrawals and lost routes.
	Path routing.Path
	// NextHop is the new forwarding next hop (route changes only).
	NextHop topology.Node
}

// String renders one event line, e.g.
//
//	12.345s  announce 5->6 dest 0 (5 4 0)
//	12.345s  route    5    dest 0 nexthop 4 best (5 4 0)
func (e Event) String() string {
	at := e.At.String()
	switch e.Kind {
	case KindAnnounce:
		return fmt.Sprintf("%-12s announce %d->%d dest %d %v", at, e.Node, e.Peer, e.Dest, e.Path)
	case KindWithdraw:
		return fmt.Sprintf("%-12s withdraw %d->%d dest %d", at, e.Node, e.Peer, e.Dest)
	case KindRouteChange:
		if e.NextHop == topology.None {
			return fmt.Sprintf("%-12s route    %d unreachable dest %d", at, e.Node, e.Dest)
		}
		return fmt.Sprintf("%-12s route    %d dest %d nexthop %d best %v", at, e.Node, e.Dest, e.NextHop, e.Path)
	default:
		return fmt.Sprintf("%-12s ?", at)
	}
}

// Recorder collects events as a bgp.Observer, one view on the run's
// observer fan-out (bgp.Tee). A zero Recorder records everything; Limit
// caps it.
type Recorder struct {
	// Limit caps the number of stored events (0 = unlimited). When the
	// limit is reached, further events are counted but not stored.
	Limit int

	events  []Event
	dropped int
}

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event { return r.events }

// Dropped returns how many events were suppressed by Limit.
func (r *Recorder) Dropped() int { return r.dropped }

// RouteChanged implements bgp.Observer.
func (r *Recorder) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	r.add(Event{At: now, Kind: KindRouteChange, Node: node, Dest: dest, NextHop: nexthop, Path: best.Clone()})
}

// UpdateSent implements bgp.Observer.
func (r *Recorder) UpdateSent(now des.Time, from, to topology.Node, update bgp.Update) {
	kind := KindAnnounce
	if update.Withdraw {
		kind = KindWithdraw
	}
	r.add(Event{At: now, Kind: kind, Node: from, Peer: to, Dest: update.Dest, Path: update.Path.Clone()})
}

func (r *Recorder) add(e Event) {
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

var _ bgp.Observer = (*Recorder)(nil)
