package invariant

import (
	"fmt"
	"time"

	"bgploop/internal/core/sortedmap"
)

// chanKey packs a directed or undirected channel endpoint pair into an
// ordered map key. Node ids are small non-negative ints by construction.
func chanKey(a, b int) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func chanEndpoints(k uint64) (a, b int) {
	return int(k >> 32), int(uint32(k))
}

// undirected normalizes an endpoint pair so both directions of a link
// share one conservation counter, mirroring netsim's undirected edges.
func undirected(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return chanKey(a, b)
}

// chanCount tracks message conservation on one undirected channel:
// delivered + lost may never exceed sent, and must equal it at
// quiescence (an empty event queue implies no message is in flight).
type chanCount struct {
	sent      uint64
	delivered uint64
	lost      uint64
}

// Check is one registered sweep invariant. It returns nil when the
// invariant holds, or a Violation whose At and Trail fields the engine
// fills in.
type Check func() *Violation

type namedCheck struct {
	id string
	fn Check
}

// Engine evaluates the invariant catalog over one simulation run. It is
// fed by observation-only taps on the DES kernel (NoteExec), the network
// (NoteSend/NoteDeliver/NoteLost/NoteSession*), and the BGP observer
// (NoteUpdate/NoteRouteChange); the experiment harness registers the
// state-sweep checks (RIB/FIB coherence, AS-path sanity) as closures over
// its speakers.
//
// The engine freezes on the first violation: subsequent taps are no-ops
// and Err keeps returning the first ViolationError, so the trail and
// digests always describe the earliest observable breach.
type Engine struct {
	window time.Duration // MRAI floor; 0 disables the soundness check

	trail     []TrailEntry
	trailNext int
	trailFull bool

	haveExec bool
	lastExec time.Duration
	sweeps   uint64

	fifo    map[uint64]uint64                // directed channel -> last delivered message id
	chans   map[uint64]*chanCount            // undirected channel -> conservation counters
	lastAnn map[uint64]map[int]time.Duration // directed channel -> dest -> last announcement

	checks   []namedCheck
	boundary []namedCheck
	digest   func() []string

	violation *ViolationError
}

// New returns an engine with an empty trail of trailSize entries.
func New() *Engine {
	return &Engine{
		trail:   make([]TrailEntry, trailSize),
		fifo:    make(map[uint64]uint64),
		chans:   make(map[uint64]*chanCount),
		lastAnn: make(map[uint64]map[int]time.Duration),
	}
}

// Register adds a sweep check evaluated after every executed event and
// at every phase boundary. The id
// is used for the Violation when the check leaves it empty.
func (e *Engine) Register(id string, fn Check) {
	e.checks = append(e.checks, namedCheck{id: id, fn: fn})
}

// RegisterBoundary adds a check evaluated only at phase boundaries —
// for invariants that are allowed to be transiently false mid-phase but
// must hold at quiescence (e.g. session-withdrawal-completeness: routes
// learned over a dead session must be flushed by the time the network
// settles, though they linger legitimately while withdrawals propagate).
func (e *Engine) RegisterBoundary(id string, fn Check) {
	e.boundary = append(e.boundary, namedCheck{id: id, fn: fn})
}

// SetStateDigest installs the closure that snapshots per-node routing
// state (one line per node) for violation and panic forensics.
func (e *Engine) SetStateDigest(fn func() []string) { e.digest = fn }

// SetMRAIWindow arms the MRAI soundness check: no two announcements for
// the same (peer, dest) may be closer than w. Pass the jitter floor
// (MRAI × JitterMin); w <= 0 disables the check (MRAI disabled).
func (e *Engine) SetMRAIWindow(w time.Duration) { e.window = w }

// Err returns the first detected violation, or nil.
func (e *Engine) Err() error {
	if e.violation == nil {
		return nil
	}
	return e.violation
}

// Sweeps returns how many sweep-check passes have run (instrumentation
// for tests and reports).
func (e *Engine) Sweeps() uint64 { return e.sweeps }

// note appends an entry to the bounded trail ring.
func (e *Engine) note(t TrailEntry) {
	e.trail[e.trailNext] = t
	e.trailNext++
	if e.trailNext == len(e.trail) {
		e.trailNext = 0
		e.trailFull = true
	}
}

// Trail returns the ring-buffer contents, oldest entry first.
func (e *Engine) Trail() []TrailEntry {
	if !e.trailFull {
		out := make([]TrailEntry, e.trailNext)
		copy(out, e.trail[:e.trailNext])
		return out
	}
	out := make([]TrailEntry, 0, len(e.trail))
	out = append(out, e.trail[e.trailNext:]...)
	out = append(out, e.trail[:e.trailNext]...)
	return out
}

// fail records the first violation, snapshotting the trail and digests.
func (e *Engine) fail(v Violation) {
	if e.violation != nil {
		return
	}
	v.Trail = e.Trail()
	ve := &ViolationError{V: v}
	if e.digest != nil {
		ve.RIBDigests = e.safeDigest()
	}
	e.violation = ve
}

// safeDigest runs the digest closure, tolerating panics: a digest over
// already-corrupt state must not mask the violation being reported.
func (e *Engine) safeDigest() (out []string) {
	defer func() {
		if r := recover(); r != nil {
			out = append(out, fmt.Sprintf("digest panic: %v", r))
		}
	}()
	return e.digest()
}

// CapturePanic converts a recovered panic value into a PanicError
// carrying the current trail and a best-effort state digest.
func (e *Engine) CapturePanic(r any, stack []byte) *PanicError {
	pe := &PanicError{
		Value: fmt.Sprint(r),
		Stack: string(stack),
		Trail: e.Trail(),
	}
	if e.digest != nil {
		pe.RIBDigests = e.safeDigest()
	}
	return pe
}

// NoteExec observes one executed kernel event: it enforces clock
// monotonicity and runs a sweep pass.
func (e *Engine) NoteExec(at time.Duration) {
	if e.violation != nil {
		return
	}
	if e.haveExec && at < e.lastExec {
		e.fail(Violation{
			ID:     "des-clock-monotonic",
			At:     at,
			Node:   NoNode,
			Peer:   NoNode,
			Detail: fmt.Sprintf("event at %v executed after clock reached %v", at, e.lastExec),
		})
		return
	}
	e.haveExec = true
	e.lastExec = at
	e.runSweep(at)
}

// runSweep evaluates the registered checks and the conservation
// inequality at virtual time at.
func (e *Engine) runSweep(at time.Duration) {
	if e.violation != nil {
		return
	}
	e.sweeps++
	for _, c := range e.checks {
		if v := c.fn(); v != nil {
			vv := *v
			if vv.ID == "" {
				vv.ID = c.id
			}
			vv.At = at
			e.fail(vv)
			return
		}
	}
	e.checkConservation(at, false)
}

// PhaseBoundary marks a quiescence point: the event queue is empty, so
// message conservation must hold with equality, and a sweep pass runs.
func (e *Engine) PhaseBoundary(at time.Duration, name string) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "phase", Node: NoNode, Peer: NoNode, Detail: name})
	e.runSweep(at)
	e.checkConservation(at, true)
	if e.violation != nil {
		return
	}
	for _, c := range e.boundary {
		if v := c.fn(); v != nil {
			vv := *v
			if vv.ID == "" {
				vv.ID = c.id
			}
			vv.At = at
			e.fail(vv)
			return
		}
	}
}

// checkConservation verifies delivered + lost <= sent per channel, with
// equality required at phase boundaries (no in-flight messages at
// quiescence).
func (e *Engine) checkConservation(at time.Duration, boundary bool) {
	if e.violation != nil {
		return
	}
	for _, k := range sortedmap.Keys(e.chans) {
		c := e.chans[k]
		a, b := chanEndpoints(k)
		if c.delivered+c.lost > c.sent {
			e.fail(Violation{
				ID: "message-conservation", At: at, Node: a, Peer: b,
				Detail: fmt.Sprintf("channel [%d %d]: delivered %d + lost %d > sent %d", a, b, c.delivered, c.lost, c.sent),
			})
			return
		}
		if boundary && c.delivered+c.lost != c.sent {
			e.fail(Violation{
				ID: "message-conservation", At: at, Node: a, Peer: b,
				Detail: fmt.Sprintf("channel [%d %d]: %d message(s) in flight at quiescence (sent %d, delivered %d, lost %d)", a, b, c.sent-c.delivered-c.lost, c.sent, c.delivered, c.lost),
			})
			return
		}
	}
}

func (e *Engine) counters(a, b int) *chanCount {
	k := undirected(a, b)
	c := e.chans[k]
	if c == nil {
		c = &chanCount{}
		e.chans[k] = c
	}
	return c
}

// NoteSend observes a message entering the channel from -> to with the
// network-assigned message id.
func (e *Engine) NoteSend(at time.Duration, from, to int, id uint64) {
	if e.violation != nil {
		return
	}
	e.counters(from, to).sent++
}

// NoteDeliver observes a message leaving the channel from -> to. Message
// ids are assigned in send order from a single network-wide counter, so
// per-directed-channel FIFO delivery means strictly increasing ids. The
// watermark resets at session transitions (clearFIFO): in-order holds per
// session epoch, not across epochs.
func (e *Engine) NoteDeliver(at time.Duration, from, to int, id uint64) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "deliver", Node: from, Peer: to, Detail: fmt.Sprintf("msg %d", id)})
	dk := chanKey(from, to)
	if last, ok := e.fifo[dk]; ok && id <= last {
		e.fail(Violation{
			ID: "channel-fifo", At: at, Node: from, Peer: to,
			Detail: fmt.Sprintf("message %d delivered after message %d on channel %d -> %d", id, last, from, to),
		})
		return
	}
	e.fifo[dk] = id
	e.counters(from, to).delivered++
}

// NoteLost observes a message cancelled in flight (link failure).
func (e *Engine) NoteLost(at time.Duration, a, b int, id uint64) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "lost", Node: a, Peer: b, Detail: fmt.Sprintf("msg %d", id)})
	e.counters(a, b).lost++
}

// clearMRAI drops announcement tracking for both directions of a link: a
// session transition resets the speakers' MRAI state, so the next
// announcement is legitimately unconstrained by the previous one.
func (e *Engine) clearMRAI(a, b int) {
	delete(e.lastAnn, chanKey(a, b))
	delete(e.lastAnn, chanKey(b, a))
}

// clearFIFO drops the FIFO watermarks for both directions of a link: the
// in-order delivery contract holds per session epoch, not globally. A new
// session is a new TCP connection, so under the degraded-transport model
// (retransmission delays + reordering resequenced per epoch) only intra-
// epoch inversions are violations. With globally increasing message ids
// and netsim destroying in-flight messages at every session transition,
// cross-epoch ids still happen to increase — the exemption is belt and
// braces for that construction, and load-bearing for any future transport
// that carries messages across a session bounce.
func (e *Engine) clearFIFO(a, b int) {
	delete(e.fifo, chanKey(a, b))
	delete(e.fifo, chanKey(b, a))
}

// NoteSessionDown observes a session going down between a and b.
func (e *Engine) NoteSessionDown(at time.Duration, a, b int) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "session-down", Node: a, Peer: b})
	e.clearMRAI(a, b)
	e.clearFIFO(a, b)
}

// NoteSessionUp observes a session coming up between a and b.
func (e *Engine) NoteSessionUp(at time.Duration, a, b int) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "session-up", Node: a, Peer: b})
	e.clearMRAI(a, b)
	e.clearFIFO(a, b)
}

// NoteUpdate observes a BGP update sent from -> to for dest. Withdrawals
// are exempt from the MRAI soundness check (the simulator's withdrawal
// path legitimately bypasses MRAI unless WRATE further rate-limits it);
// announcements for the same (peer, dest) must be at least the jitter
// floor apart. Two announcements at the same virtual instant are legal:
// the continuous MRAI model gates sends to tick instants but permits
// several best-path changes to flush at one tick, and the reset model
// cannot produce them at all (the first send arms the timer).
func (e *Engine) NoteUpdate(at time.Duration, from, to, dest int, withdraw bool) {
	if e.violation != nil {
		return
	}
	kind := "announce"
	if withdraw {
		kind = "withdraw"
	}
	e.note(TrailEntry{At: at, Kind: kind, Node: from, Peer: to, Detail: fmt.Sprintf("dest %d", dest)})
	if withdraw || e.window <= 0 {
		return
	}
	dk := chanKey(from, to)
	byDest := e.lastAnn[dk]
	if byDest == nil {
		byDest = make(map[int]time.Duration)
		e.lastAnn[dk] = byDest
	}
	if last, ok := byDest[dest]; ok && at != last && at-last < e.window {
		e.fail(Violation{
			ID: "mrai-soundness", At: at, Node: from, Peer: to,
			Detail: fmt.Sprintf("announcement for dest %d sent %v after the previous one (MRAI floor %v)", dest, at-last, e.window),
		})
		return
	}
	byDest[dest] = at
}

// NoteRouteChange observes a node installing (or withdrawing) its best
// route for dest; trail-only.
func (e *Engine) NoteRouteChange(at time.Duration, node, dest, nexthop int, path string) {
	if e.violation != nil {
		return
	}
	e.note(TrailEntry{At: at, Kind: "route-change", Node: node, Peer: nexthop, Detail: fmt.Sprintf("dest %d path %s", dest, path)})
}
