// Package netsim models the message-passing network between BGP speakers:
// point-to-point links with propagation delay, reliable in-order delivery
// (the TCP abstraction BGP runs over), and five operations on a link —
// Fail, Restore, BounceSession, Degrade, Undegrade — that act at the
// current instant. When they happen, to which links of a node or a group,
// and under what name is package faultplan's business.
//
// Delivery ordering: each link imposes a constant propagation delay and the
// DES kernel breaks timestamp ties in insertion order, so messages sent
// over one link arrive exactly in the order they were sent — the in-order
// guarantee TCP provides to BGP.
//
// With an impairment model installed (SetImpairment), links may addition-
// ally lose, duplicate, reorder, and jitter segments. Loss is masked by
// the TCP abstraction — it becomes retransmission delay, computed
// analytically at send time by internal/transport — and the in-order
// contract is preserved per session epoch by clamping each directed
// link's delivery times to be non-decreasing. A session transition (link
// failure, restore, or KillSession) starts a new epoch: in-flight
// messages are destroyed with the TCP connection and the clamp resets.
//
// Because a directed link delivers in send order either way, the messages
// in flight on it are a FIFO: a delivery is always the head's, a failure
// drains the two directions' queues merged by message id. All per-link
// state lives in a directed-link table built once from the graph (see
// New), and a delivery is a typed scheduler event naming its link, so
// sending and delivering allocate nothing.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/invariant"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// DefaultLinkDelay is the paper's link propagation delay (§4.2: "We set the
// link delay to 2 milliseconds").
const DefaultLinkDelay = 2 * time.Millisecond

// ErrLinkDown is returned by Send when the link is absent or failed. A
// speaker may legitimately race a queued timer against a failure event, so
// callers treat this as "message not sent", not as a fatal error.
var ErrLinkDown = errors.New("netsim: link down")

// Handler receives network callbacks for one node. Implementations are
// expected to be BGP speakers but the network is payload-agnostic.
type Handler interface {
	// Deliver is invoked at the virtual instant a message arrives.
	Deliver(from topology.Node, payload any)
	// PeerDown is invoked when the session to peer is lost. Failure
	// detection is immediate, matching the paper's model.
	PeerDown(peer topology.Node)
	// PeerUp is invoked when the session to peer (re)establishes after a
	// Restore.
	PeerUp(peer topology.Node)
}

// Stats counts network-level message events. At quiescence (empty event
// queue) Sent == Delivered + Lost holds exactly; Dropped is the subset of
// Lost destroyed by the transport itself rather than by a failure event.
type Stats struct {
	Sent      int // messages accepted for delivery
	Delivered int // messages that reached their endpoint
	Lost      int // messages destroyed in flight (failures + transport drops)
	// Impairment counters (zero without a transport model).
	Dropped       int // messages whose retransmission budget ran out (⊆ Lost)
	Duplicated    int // duplicate segments absorbed by the receiver's TCP
	Reordered     int // segments that drew a detour and were resequenced
	Retransmitted int // total TCP retransmission attempts
}

// Tap observes every message and session transition on the network. It
// is the invariant guard layer's view of the transport: callbacks fire
// at the virtual instant of the event, before the corresponding handler
// callbacks, and must be observation-only — a tap never sends, schedules,
// or mutates network state. Message ids come from the network-wide send
// counter, so ids on one directed channel are assigned in send order.
type Tap interface {
	// MessageSent fires when Send accepts a message for delivery.
	MessageSent(from, to topology.Node, id uint64)
	// MessageDelivered fires when a message reaches its endpoint (even
	// if no handler is attached there).
	MessageDelivered(from, to topology.Node, id uint64)
	// MessageLost fires for each in-flight message destroyed by a link
	// failure.
	MessageLost(a, b topology.Node, id uint64)
	// SessionDown fires when link (a, b) fails, before PeerDown.
	SessionDown(a, b topology.Node)
	// SessionUp fires when link (a, b) is restored, before PeerUp.
	SessionUp(a, b topology.Node)
}

// DegradeAware is an optional Handler extension: handlers implementing it
// are told when a link's impairment starts or clears, so the BGP session
// layer can arm its hold/keepalive machinery only while the transport is
// actually degraded (see transport.Model.Impaired for why).
type DegradeAware interface {
	// LinkDegraded fires when the link to peer gains an active impairment.
	LinkDegraded(peer topology.Node)
	// LinkImpairmentCleared fires when the link to peer reverts to clean.
	LinkImpairmentCleared(peer topology.Node)
}

// link is one direction of an adjacency, with everything the network
// tracks per direction.
type link struct {
	from, to topology.Node
	rev      int  // index of the opposite direction
	down     bool // failed; always equal on the two directions

	// inflight holds the undelivered messages in send order — which is
	// delivery order — so that a failure can destroy them (a failed link
	// delivers nothing, and BGP's TCP session dies with the link).
	inflight fifo

	// lastArrival is the delivery-time clamp that preserves the in-order
	// contract per session epoch under retransmission and reordering
	// delays; clamped says it holds a value (impaired sends only).
	lastArrival des.Time
	clamped     bool
}

// flight is one undelivered message: its id and its delivery event.
type flight struct {
	id uint64
	h  des.Handle
}

// fifo is a queue of flights over one reused slice.
type fifo struct {
	q    []flight
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }

func (f *fifo) push(x flight) {
	if len(f.q) == cap(f.q) && f.head > 0 && f.head >= len(f.q)/2 {
		// Reclaim the popped prefix instead of growing; the copy is no
		// longer than the pops that made room for it.
		f.q = f.q[:copy(f.q, f.q[f.head:])]
		f.head = 0
	}
	f.q = append(f.q, x)
}

// front returns the oldest flight; the queue must be non-empty.
func (f *fifo) front() flight { return f.q[f.head] }

// pop removes and returns the oldest flight; the queue must be non-empty.
func (f *fifo) pop() flight {
	x := f.front()
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return x
}

// Network connects handlers according to a topology graph and delivers
// payloads between them with per-link delay.
type Network struct {
	sched *des.Scheduler
	graph *topology.Graph
	delay time.Duration

	// The directed-link table: the links out of node v are
	// links[first[v]:first[v+1]], sorted by far end.
	first    []int
	links    []link
	handlers []Handler // by node
	nextID   uint64

	// imp, when non-nil, impairs sends.
	imp *transport.Model

	stats Stats
	tap   Tap
}

// New creates a network over g with the given per-link propagation delay
// (DefaultLinkDelay if zero). Handlers are attached with Attach. The
// network takes its links from g as it is now: an edge added to g
// afterwards does not exist for it (links come and go with Fail and
// Restore, not by editing the graph).
//
// The table is sized from the degrees and filled from one pass over the
// sorted edge list. Node v's links come out sorted by far end: its edges
// to smaller nodes precede those to larger ones in that list, each run in
// ascending order.
func New(sched *des.Scheduler, g *topology.Graph, delay time.Duration) *Network {
	if delay <= 0 {
		delay = DefaultLinkDelay
	}
	nodes := g.NumNodes()
	n := &Network{
		sched:    sched,
		graph:    g,
		delay:    delay,
		first:    make([]int, nodes+1),
		handlers: make([]Handler, nodes),
	}
	for v := 0; v < nodes; v++ {
		n.first[v+1] = n.first[v] + g.Degree(topology.Node(v))
	}
	n.links = make([]link, n.first[nodes])
	next := append([]int(nil), n.first[:nodes]...)
	for _, e := range g.Edges() {
		i, j := next[e.A], next[e.B]
		n.links[i] = link{from: e.A, to: e.B, rev: j}
		n.links[j] = link{from: e.B, to: e.A, rev: i}
		next[e.A], next[e.B] = i+1, j+1
	}
	return n
}

// Links returns the ids of the directed links out of v, lo through hi-1,
// in ascending order of far end; a node outside the graph has none.
func (n *Network) Links(v topology.Node) (lo, hi int) {
	if !n.graph.Valid(v) {
		return 0, 0
	}
	return n.first[v], n.first[v+1]
}

// LinkTo returns the far end of directed link i.
func (n *Network) LinkTo(i int) topology.Node { return n.links[i].to }

// find returns the index of the directed link from -> to, or -1 if the
// graph had no such edge. The search is written out because it runs per
// send and slices.BinarySearchFunc would copy a whole link per probe.
func (n *Network) find(from, to topology.Node) int {
	if !n.graph.Valid(from) {
		return -1
	}
	lo, hi := n.first[from], n.first[from+1]
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); n.links[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n.first[from+1] && n.links[lo].to == to {
		return lo
	}
	return -1
}

// Attach registers the handler for node v, replacing any previous one. A
// node outside the graph has no links and gets no handler.
func (n *Network) Attach(v topology.Node, h Handler) {
	if n.graph.Valid(v) {
		n.handlers[v] = h
	}
}

// Graph returns the underlying topology (shared, not a copy).
func (n *Network) Graph() *topology.Graph { return n.graph }

// Stats returns a snapshot of the message counters.
func (n *Network) Stats() Stats { return n.stats }

// SetTap installs (or, with nil, removes) the observation tap.
func (n *Network) SetTap(t Tap) { n.tap = t }

// SetImpairment installs (or, with nil, removes) the transport impairment
// model. An installed model whose links are all clean is a strict no-op:
// it draws nothing and schedules deliveries at exactly the legacy times.
// Removing a model while messages it delayed are still in flight is not
// supported: without the clamp a later send would overtake them.
func (n *Network) SetImpairment(m *transport.Model) { n.imp = m }

// Impaired reports whether the (a, b) link currently has an active
// impairment.
func (n *Network) Impaired(a, b topology.Node) bool {
	return n.imp != nil && n.imp.Impaired(a, b)
}

// LinkUp reports whether the (a, b) link exists and has not failed.
func (n *Network) LinkUp(a, b topology.Node) bool {
	i := n.find(a, b)
	return i >= 0 && !n.links[i].down
}

// Send schedules payload for delivery from 'from' to 'to' after the link
// delay (plus any impairment delay — retransmissions, reordering detours,
// jitter — resolved by the transport model). It returns ErrLinkDown if
// the link is absent or failed. A message whose retransmission budget the
// model exhausts is accepted and silently dropped, like the TCP
// connection it models: the sender learns nothing at send time.
func (n *Network) Send(from, to topology.Node, payload any) error {
	i := n.find(from, to)
	if i < 0 {
		return fmt.Errorf("%w: %v", ErrLinkDown, topology.NormEdge(from, to))
	}
	return n.SendLink(i, payload)
}

// SendLink is Send over directed link i (see Links), for a sender that
// already holds the link's id.
func (n *Network) SendLink(i int, payload any) error {
	if i < 0 || i >= len(n.links) {
		return fmt.Errorf("%w: no link %d", ErrLinkDown, i)
	}
	l := &n.links[i]
	from, to := l.from, l.to
	if l.down {
		return fmt.Errorf("%w: %v", ErrLinkDown, topology.NormEdge(from, to))
	}
	id := n.nextID
	n.nextID++
	arrive := n.sched.Now() + n.delay
	if n.imp != nil {
		out := n.imp.Plan(from, to)
		n.stats.Retransmitted += out.Retransmits
		if out.Duplicated {
			n.stats.Duplicated++
		}
		if out.Reordered {
			n.stats.Reordered++
		}
		if out.Dropped {
			// Counted as sent-and-lost in the same instant so message
			// conservation (sent == delivered + lost) stays exact.
			n.stats.Sent++
			n.stats.Dropped++
			n.stats.Lost++
			if n.tap != nil {
				e := topology.NormEdge(from, to)
				n.tap.MessageSent(from, to, id)
				n.tap.MessageLost(e.A, e.B, id)
			}
			return nil
		}
		arrive += out.Delay
		// In-order clamp: a message may not overtake its predecessors on
		// the same directed link — TCP's receive buffer resequences late
		// segments. The clamp persists across Degrade/Restore (same TCP
		// connection) and resets on session transitions (new epoch).
		if l.clamped && arrive < l.lastArrival {
			arrive = l.lastArrival
		}
		l.lastArrival, l.clamped = arrive, true
	}
	// Unreachability justification: arrive >= Now by construction (non-
	// negative delays, clamp only moves arrivals later), so Schedule
	// cannot fail with an in-the-past error.
	h, err := n.sched.Schedule(arrive, n, 0, i, id, payload)
	if err != nil {
		return fmt.Errorf("netsim: schedule delivery: %w", err)
	}
	l.inflight.push(flight{id: id, h: h})
	n.stats.Sent++
	if n.tap != nil {
		n.tap.MessageSent(from, to, id)
	}
	return nil
}

// Fire implements des.Receiver: message id arrives over link i. It must be
// the oldest message in flight there — a directed link delivers in send
// order (see the package comment) — so anything else at the head means the
// in-order contract or the in-flight bookkeeping is broken.
func (n *Network) Fire(_, i int, id uint64, payload any) {
	l := &n.links[i]
	if l.inflight.len() == 0 || l.inflight.pop().id != id {
		invariant.Unreachable("netsim-fifo", fmt.Sprintf("message %d delivered on %d->%d out of send order", id, l.from, l.to))
	}
	// Delivered counts endpoint arrivals whether or not a handler is
	// attached, so Sent == Delivered + Lost + Dropped holds at quiescence
	// (it previously under-counted handler-less deliveries).
	n.stats.Delivered++
	if n.tap != nil {
		n.tap.MessageDelivered(l.from, l.to, id)
	}
	if h := n.handlers[l.to]; h != nil {
		h.Deliver(l.from, payload)
	}
}

// At runs fn on the network's scheduler at virtual time at. The link
// operations below act at the current instant; a fault script (package
// faultplan) gives them a time by wrapping them in At.
func (n *Network) At(at des.Time, fn func()) error {
	_, err := n.sched.At(at, fn)
	return err
}

// Fail fails link e now: it stops carrying traffic, all in-flight messages
// on it are destroyed, and both endpoints receive PeerDown. Failing an
// already-failed or absent link is a no-op.
func (n *Network) Fail(e topology.Edge) {
	e = topology.NormEdge(e.A, e.B)
	i := n.find(e.A, e.B)
	if i < 0 || n.links[i].down {
		return
	}
	n.setDown(i, true)
	n.dropInflight(i)
	n.resetEpoch(i)
	if n.tap != nil {
		n.tap.SessionDown(e.A, e.B)
	}
	if h := n.handlers[e.A]; h != nil {
		h.PeerDown(e.B)
	}
	if h := n.handlers[e.B]; h != nil {
		h.PeerDown(e.A)
	}
}

// Restore repairs link e now: it carries traffic again and both endpoints
// receive PeerUp. Restoring a link that is up or absent is a no-op.
func (n *Network) Restore(e topology.Edge) {
	e = topology.NormEdge(e.A, e.B)
	i := n.find(e.A, e.B)
	if i < 0 || !n.links[i].down {
		return
	}
	n.setDown(i, false)
	n.resetEpoch(i) // a restored link starts a fresh session epoch
	if n.tap != nil {
		n.tap.SessionUp(e.A, e.B)
	}
	if h := n.handlers[e.A]; h != nil {
		h.PeerUp(e.B)
	}
	if h := n.handlers[e.B]; h != nil {
		h.PeerUp(e.A)
	}
}

// BounceSession resets the BGP session on link e now: the transport
// session dies (in-flight messages are lost, both endpoints see PeerDown)
// and immediately re-establishes (both endpoints see PeerUp and exchange
// full tables), while the physical link stays up. This models a TCP reset
// rather than a fiber cut. Bouncing a failed or absent link is a no-op.
func (n *Network) BounceSession(e topology.Edge) {
	if !n.LinkUp(e.A, e.B) {
		return
	}
	n.Fail(e)
	n.Restore(e)
}

// KillSession destroys the transport session on the up link (a, b) at the
// current instant, without touching the physical link: in-flight messages
// die with the TCP connection, the in-order clamp resets (a new session is
// a new epoch), and the tap sees SessionDown. Unlike a link failure the
// endpoints get no PeerDown — the BGP session FSM calls this from its own
// teardown (hold-timer expiry, peer-restart detection) and handles the
// protocol consequences itself. Killing a failed or absent link is a
// no-op. This runs immediately (not scheduled): it is invoked from inside
// event handlers at the instant the FSM decides the session is dead.
func (n *Network) KillSession(a, b topology.Node) {
	i := n.find(a, b)
	if i < 0 || n.links[i].down {
		return
	}
	n.dropInflight(i)
	n.resetEpoch(i)
	if n.tap != nil {
		e := topology.NormEdge(a, b)
		n.tap.SessionDown(e.A, e.B)
	}
}

// SessionEstablished reports a session-layer establishment on the up link
// (a, b) to the tap (SessionUp). The BGP session FSM calls it when a
// handshake completes, so the invariant engine's per-session state (MRAI
// windows, FIFO epochs) tracks FSM transitions as well as physical ones.
// Both endpoints establish independently, so the tap may see the event
// twice per handshake; observers must tolerate duplicates.
func (n *Network) SessionEstablished(a, b topology.Node) {
	if n.tap != nil && n.LinkUp(a, b) {
		e := topology.NormEdge(a, b)
		n.tap.SessionUp(e.A, e.B)
	}
}

// HasImpairmentModel reports whether SetImpairment installed a model, the
// precondition of Degrade and Undegrade.
func (n *Network) HasImpairmentModel() bool { return n.imp != nil }

// Degrade installs impairment cfg on link e now, overriding the base
// impairment; the link keeps carrying traffic. Requires an installed
// impairment model. Degrading an absent link is a no-op.
func (n *Network) Degrade(e topology.Edge, cfg transport.Config) {
	n.changeImpairment(e, func(e topology.Edge) { n.imp.Degrade(e, cfg) })
}

// Undegrade removes link e's impairment override now, reverting it to the
// base impairment (or to a clean link when there is none). Requires an
// installed impairment model.
func (n *Network) Undegrade(e topology.Edge) { n.changeImpairment(e, n.imp.Restore) }

// changeImpairment applies change to existing link e's override and tells
// DegradeAware handlers when that moved the link between degraded and
// clean. They are not told while the link is down: their sessions are
// already torn down and re-establishment will re-read the impairment
// state.
func (n *Network) changeImpairment(e topology.Edge, change func(topology.Edge)) {
	e = topology.NormEdge(e.A, e.B)
	i := n.find(e.A, e.B)
	if i < 0 {
		return
	}
	was := n.imp.Impaired(e.A, e.B)
	change(e)
	now := n.imp.Impaired(e.A, e.B)
	if was == now || n.links[i].down {
		return
	}
	for _, pair := range [2][2]topology.Node{{e.A, e.B}, {e.B, e.A}} {
		if da, ok := n.handlers[pair[0]].(DegradeAware); ok {
			if now {
				da.LinkDegraded(pair[1])
			} else {
				da.LinkImpairmentCleared(pair[1])
			}
		}
	}
}

// setDown marks both directions of link i failed or repaired.
func (n *Network) setDown(i int, down bool) {
	n.links[i].down = down
	n.links[n.links[i].rev].down = down
}

// dropInflight destroys every undelivered message on both directions of
// link i, in ascending message id: each direction's queue is already in id
// order (ids are handed out at send time), so the two are merged. That
// fixed order keeps the Lost counter's evolution and the tap's MessageLost
// sequence identical across runs of the same seed.
func (n *Network) dropInflight(i int) {
	l := &n.links[i]
	a, b := &l.inflight, &n.links[l.rev].inflight
	e := topology.NormEdge(l.from, l.to)
	for a.len() > 0 || b.len() > 0 {
		q := a
		if a.len() == 0 || b.len() > 0 && b.front().id < a.front().id {
			q = b
		}
		if f := q.pop(); f.h.Cancel() {
			n.stats.Lost++
			if n.tap != nil {
				n.tap.MessageLost(e.A, e.B, f.id)
			}
		}
	}
}

// resetEpoch clears both directions' in-order clamps: the next session
// over the link is a new epoch and owes no ordering to the old one.
func (n *Network) resetEpoch(i int) {
	n.links[i].clamped = false
	n.links[n.links[i].rev].clamped = false
}
