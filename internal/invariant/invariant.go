// Package invariant is the runtime invariant-checking and failure-
// forensics layer of the simulator.
//
// The simulator's correctness rests on properties that are normally
// enforced only by construction: the DES clock never moves backwards,
// channels deliver messages in FIFO order, a speaker's installed FIB next
// hop tracks its best route, an accepted AS path never contains the local
// AS, and no announcement leaves inside a peer's MRAI window. This
// package makes those properties explicit run-time conditions, checked
// after every event while guards are on, so that a violation is caught at
// the first event where it is observable — with a bounded event trail and
// RIB digests captured for the diagnosis — instead of surfacing thousands
// of events later as a wrong metric or a bare panic.
//
// The package sits low in the import order: it imports only durable (to
// write forensic bundles) and core/sortedmap, and neither reaches a
// package that calls Unreachable, so the topology builders, netsim and
// the BGP speaker can all route their impossible-state panics through
// it. Node identifiers are plain ints and virtual times are
// time.Durations (des.Time is an alias of time.Duration).
//
// Guards are observation-only by contract: an Engine never consumes
// simulation RNG, never schedules events, and never mutates speaker
// state, so a run with guards Full produces byte-identical results to the
// same run with guards Off. The experiment package asserts this with a
// digest-parity test.
package invariant

import (
	"fmt"
	"time"
)

// NoNode marks a Violation field that does not identify a node or peer.
const NoNode = -1

// Cadence switches the guards. With guards on, the sweep invariants (the
// O(nodes) RIB scans: RIB/FIB coherence, AS-path sanity) run after every
// executed kernel event and at every phase boundary, and the streaming
// invariants (clock monotonicity, channel FIFO, message conservation,
// MRAI soundness) are checked per event.
type Cadence string

const (
	// CadenceUnset defers to the environment (BGPSIM_GUARD) or Off.
	CadenceUnset Cadence = ""
	// CadenceOff disables guards entirely; no engine is attached.
	CadenceOff Cadence = "off"
	// CadenceFull sweeps after every executed kernel event.
	CadenceFull Cadence = "full"
)

// ParseCadence converts a user-facing string (flag or environment value)
// into a Cadence. The empty string parses as CadenceUnset.
func ParseCadence(s string) (Cadence, error) {
	switch Cadence(s) {
	case CadenceUnset, CadenceOff, CadenceFull:
		return Cadence(s), nil
	}
	return CadenceUnset, fmt.Errorf("invariant: unknown guard cadence %q (want off or full)", s)
}

// trailSize is the capacity of the forensic event-trail ring buffer.
const trailSize = 256

// Config switches the guards for a run. The zero value means "unset":
// the experiment harness then consults the BGPSIM_GUARD environment
// variable and falls back to Off.
type Config struct {
	// Cadence is the guard switch; see the Cadence constants.
	Cadence Cadence `json:"cadence,omitempty"`
	// CorruptFIBNode is a fault-injection self-test hook: when set, the
	// RIB/FIB coherence check sees the node's FIB entry as empty, so a
	// guarded run must report a rib-fib-coherence violation once that
	// node installs a route. The corruption exists only in the guard's
	// view — the simulation itself is untouched — but because the
	// *outcome* (violation vs clean run) now depends on guard config,
	// scenarios with this hook set are refused by the result cache.
	CorruptFIBNode *int `json:"corruptFIBNode,omitempty"`
}

// Enabled reports whether the configuration attaches a guard engine.
func (c Config) Enabled() bool {
	return c.Cadence != CadenceUnset && c.Cadence != CadenceOff
}

// Validate rejects malformed guard configurations.
func (c Config) Validate() error {
	_, err := ParseCadence(string(c.Cadence))
	return err
}

// FromEnv maps a BGPSIM_GUARD environment value onto a Cadence,
// tolerating unknown values, "phase" and "every-n" included, by treating
// them as Off: an environment variable must never abort a run.
func FromEnv(v string) Cadence {
	c, err := ParseCadence(v)
	if err != nil || c == CadenceUnset {
		return CadenceOff
	}
	return c
}

// TrailEntry is one observed kernel-level event in the forensic ring
// buffer: message sends and deliveries, session transitions, route
// changes, and phase boundaries.
type TrailEntry struct {
	At     time.Duration `json:"at"`
	Kind   string        `json:"kind"`
	Node   int           `json:"node"`
	Peer   int           `json:"peer"`
	Detail string        `json:"detail,omitempty"`
}

func (t TrailEntry) String() string {
	return fmt.Sprintf("%v %s node=%d peer=%d %s", t.At, t.Kind, t.Node, t.Peer, t.Detail)
}

// Violation is one detected invariant breach: which invariant, at what
// virtual time, which node/peer it implicates, and the bounded event
// trail leading up to it.
type Violation struct {
	// ID names the violated invariant (e.g. "rib-fib-coherence").
	ID string `json:"id"`
	// At is the virtual time of the detecting check.
	At time.Duration `json:"at"`
	// Node is the offending node, or NoNode.
	Node int `json:"node"`
	// Peer is the offending peer/neighbor, or NoNode.
	Peer int `json:"peer"`
	// Detail is a human-readable description of the breach.
	Detail string `json:"detail"`
	// Trail is the event trail captured at detection time, oldest first.
	Trail []TrailEntry `json:"trail,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant %s violated at %v (node=%d peer=%d): %s", v.ID, v.At, v.Node, v.Peer, v.Detail)
}

// ViolationError wraps a Violation as an error, carrying the RIB digests
// captured when the violation was detected.
type ViolationError struct {
	V          Violation
	RIBDigests []string
}

func (e *ViolationError) Error() string { return e.V.String() }

// PanicError is a recovered internal panic converted into a structured
// error by the guard layer, carrying the forensic context that a bare
// panic value lacks.
type PanicError struct {
	// Value is the stringified panic value; it doubles as the stable
	// failure signature for shrinking.
	Value string
	// Stack is the goroutine stack at recovery time.
	Stack string
	// Trail is the event trail at the moment of the panic, oldest first.
	Trail []TrailEntry
	// RIBDigests snapshots per-node routing state, best effort.
	RIBDigests []string
}

func (e *PanicError) Error() string { return "panic: " + e.Value }

// UnreachableError is the panic value used for states that are impossible
// by construction. Its text is deterministic (virtual times only), so it
// can serve as a shrinkable failure signature.
type UnreachableError struct {
	// ID names the guarded site (e.g. "bgp-schedule").
	ID string
	// Detail describes the impossible state.
	Detail string
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("unreachable state %s: %s", e.ID, e.Detail)
}

// Unreachable panics with an UnreachableError. It is the single funnel
// for "impossible by construction" states in the kernel, topology
// builders, and BGP speaker: under trial recovery the panic is converted
// into a forensic bundle whose signature is stable across runs, so even
// a programming error yields a shrinkable reproducer instead of a bare
// crash.
func Unreachable(id, detail string) {
	panic(&UnreachableError{ID: id, Detail: detail})
}
