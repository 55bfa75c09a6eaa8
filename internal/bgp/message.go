package bgp

import (
	"fmt"

	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Update is a BGP update message for one destination: either an
// announcement carrying the sender's full AS path, or an explicit
// withdrawal. Announced paths start with the sending AS, as in the paper's
// notation (node 5 announces "(5 6 4 0)").
//
// On the network an update is a *Update, immutable once sent and shared
// by every peer told: announcements come from the speaker group's update
// slab, a withdrawal is one value per destination. A speaker counts any
// other payload, an Update by value included, as malformed.
type Update struct {
	// Dest identifies the destination prefix by its originating AS.
	Dest topology.Node
	// Withdraw marks an explicit route withdrawal; Path is nil.
	Withdraw bool
	// Path is the announced AS path (first element = sender, last =
	// origin). Nil iff Withdraw.
	Path routing.Path
}

// String renders the update for traces, e.g. "announce 0 (5 6 4 0)" or
// "withdraw 0".
func (u Update) String() string {
	if u.Withdraw {
		return fmt.Sprintf("withdraw %d", u.Dest)
	}
	return fmt.Sprintf("announce %d %v", u.Dest, u.Path)
}

// Open is the session-establishment handshake message (RFC 4271 OPEN,
// reduced to what the FSM needs). Session messages are handled at the
// delivery instant — only *routing* messages occupy the serial route
// processor, matching the paper's model where failure detection and
// session management are instantaneous relative to route processing.
//
// Like an announcement, an Open travels as a *Open boxed in a slab of the
// speaker group; a speaker counts an Open by value as malformed.
type Open struct {
	// Gen is the sender's connection generation, incremented each time the
	// sender re-enters Connect. It lets the receiver tell a retransmitted
	// handshake of the current connection (same Gen: re-ack, no state
	// change) from a peer restart (new Gen: tear down and re-establish).
	Gen uint64
	// Ack is the peer generation this Open acknowledges; zero marks an
	// initial (unsolicited) Open.
	Ack uint64
}

// String renders the handshake message for traces.
func (o Open) String() string {
	if o.Ack == 0 {
		return fmt.Sprintf("open gen=%d", o.Gen)
	}
	return fmt.Sprintf("open gen=%d ack=%d", o.Gen, o.Ack)
}

// Keepalive refreshes the receiver's hold timer (RFC 4271 KEEPALIVE). The
// simulator generates keepalives only while the peer link is impaired; on
// a clean link every message arrives, so the hold timer cannot spuriously
// expire and keepalives would only delay quiescence.
type Keepalive struct{}

// String renders the keepalive for traces.
func (Keepalive) String() string { return "keepalive" }

// Observer receives simulation-visible protocol events. Implementations
// must be cheap; they run inline with event processing.
type Observer interface {
	// RouteChanged fires whenever a node's loc-RIB for dest changes;
	// nexthop is the new forwarding next hop (topology.None when the
	// destination became unreachable) and best the new self-prefixed
	// best path (nil when unreachable). It fires on any best-path
	// change, so consecutive calls may carry the same next hop.
	// Implementations must not retain best without cloning it.
	RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path)
	// UpdateSent fires when a node hands an update to the network.
	UpdateSent(now des.Time, from, to topology.Node, update Update)
}

// NopObserver ignores all events.
type NopObserver struct{}

// RouteChanged implements Observer.
func (NopObserver) RouteChanged(des.Time, topology.Node, topology.Node, topology.Node, routing.Path) {
}

// UpdateSent implements Observer.
func (NopObserver) UpdateSent(des.Time, topology.Node, topology.Node, Update) {}

var _ Observer = NopObserver{}

// Stats counts protocol activity at one speaker.
type Stats struct {
	UpdatesReceived   int
	AnnouncementsSent int
	WithdrawalsSent   int
	// LastUpdateSent is the instant this speaker last sent any update;
	// the maximum across speakers defines the paper's convergence time.
	LastUpdateSent des.Time
	// BestChanges counts loc-RIB changes (route flaps seen locally).
	BestChanges int
	// Enhancement-specific counters.
	SSLDConversions        int // announcements converted to withdrawals
	GhostFlushes           int // immediate withdrawals sent by Ghost Flushing
	AssertionInvalidations int // adj-RIB-in entries invalidated
	MalformedDropped       int // updates dropped by sanity checks
	RoutesSuppressed       int // suppression periods started by flap damping
	RoutesReused           int // suppression periods ended by flap damping
	// Session FSM counters (all zero when SessionConfig is disabled).
	OpensSent            int // handshake messages sent (initial + retries + acks)
	KeepalivesSent       int // keepalives actually transmitted
	KeepalivesSuppressed int // keepalive ticks elided because traffic already refreshed the peer
	HoldExpiries         int // sessions declared dead by hold-timer expiry
	SessionsEstablished  int // successful (re-)establishments
}

// UpdatesSent returns announcements plus withdrawals.
func (s Stats) UpdatesSent() int { return s.AnnouncementsSent + s.WithdrawalsSent }
