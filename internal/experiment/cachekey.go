package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// CacheKeyVersion is folded into every scenario content address. Bump it
// whenever the simulation semantics change in a way the key cannot see
// (metric definitions, event ordering, default constants), so stale cache
// objects miss instead of silently serving results from old code.
//
// v2: Result gained the netsim/session counter fields, so results stored
// by v1 binaries would digest-mismatch against fresh runs.
const CacheKeyVersion = 2

// Fingerprinted lets a custom routing.Policy or bgp.ExportPolicy opt into
// the sweep result cache. The fingerprint must change whenever the
// policy's decisions could change; scenarios whose policies do not
// implement it are simply never cached.
type Fingerprinted interface {
	CacheFingerprint() string
}

// cacheKeySpec is the canonical JSON form hashed into a content address.
// Every field that can influence a Result — including the pure echo
// fields like the topology name — must appear here; durations are spelled
// out in nanoseconds to avoid float formatting subtleties.
type cacheKeySpec struct {
	V        int      `json:"v"`
	Topology string   `json:"topology"`
	Nodes    int      `json:"nodes"`
	Edges    [][2]int `json:"edges"`
	Dest     int      `json:"dest"`
	// Event is echoed into Result.Event even when a FaultPlan supersedes
	// the single-event fields, so it is always part of the key.
	Event    int     `json:"event"`
	FailLink *[2]int `json:"failLink,omitempty"`
	// Plan is the scenario's effective fault plan: the explicit FaultPlan
	// when set, otherwise the canonical compilation of the legacy fields
	// (which also folds SettleDelay, FlapCycles, and RestoreDelay in).
	Plan *FaultPlanSpec `json:"plan"`

	BGP bgpKeySpec `json:"bgp"`

	// Transport is the base impairment, normalized via WithDefaults and
	// omitted when absent or inactive — so a nil Transport and an explicit
	// all-zero config share a key, exactly as they share behaviour (the
	// impairment layer is a strict no-op when inactive).
	Transport *transportKeySpec `json:"transport,omitempty"`

	PacketIntervalNs int64  `json:"packetIntervalNs"`
	TTL              int    `json:"ttl"`
	LinkDelayNs      int64  `json:"linkDelayNs"`
	Seed             int64  `json:"seed"`
	MaxEvents        uint64 `json:"maxEvents"`
	PhaseEventBudget uint64 `json:"phaseEventBudget"`
	HorizonNs        int64  `json:"horizonNs"`
}

// transportKeySpec is the hashable form of transport.Config.
type transportKeySpec struct {
	Loss            float64 `json:"loss"`
	Duplicate       float64 `json:"duplicate"`
	ReorderProb     float64 `json:"reorderProb"`
	ReorderWindowNs int64   `json:"reorderWindowNs"`
	JitterNs        int64   `json:"jitterNs"`
	RTOInitialNs    int64   `json:"rtoInitialNs"`
	RTOMaxNs        int64   `json:"rtoMaxNs"`
	MaxRetries      int     `json:"maxRetries"`
}

// newTransportKeySpec normalizes cfg for hashing; nil for nil-or-inactive
// configs (behaviourally identical to no transport at all).
func newTransportKeySpec(cfg *transport.Config) *transportKeySpec {
	if cfg == nil || !cfg.Active() {
		return nil
	}
	d := cfg.WithDefaults()
	return &transportKeySpec{
		Loss:            d.Loss,
		Duplicate:       d.Duplicate,
		ReorderProb:     d.ReorderProb,
		ReorderWindowNs: int64(d.ReorderWindow),
		JitterNs:        int64(d.Jitter),
		RTOInitialNs:    int64(d.RTOInitial),
		RTOMaxNs:        int64(d.RTOMax),
		MaxRetries:      d.MaxRetries,
	}
}

// sessionKeySpec is the hashable form of bgp.SessionConfig.
type sessionKeySpec struct {
	HoldNs            int64 `json:"holdNs"`
	KeepaliveNs       int64 `json:"keepaliveNs"`
	ConnectRetryNs    int64 `json:"connectRetryNs"`
	ConnectRetryMaxNs int64 `json:"connectRetryMaxNs"`
}

// newSessionKeySpec normalizes cfg for hashing; nil when the FSM is
// disabled (behaviourally identical to the pre-FSM engine).
func newSessionKeySpec(cfg bgp.SessionConfig) *sessionKeySpec {
	if !cfg.Enabled() {
		return nil
	}
	d := cfg.WithDefaults()
	return &sessionKeySpec{
		HoldNs:            int64(d.HoldTime),
		KeepaliveNs:       int64(d.KeepaliveInterval),
		ConnectRetryNs:    int64(d.ConnectRetry),
		ConnectRetryMaxNs: int64(d.ConnectRetryMax),
	}
}

// bgpKeySpec is the hashable form of bgp.Config.
type bgpKeySpec struct {
	MRAINs         int64              `json:"mraiNs"`
	MRAIContinuous bool               `json:"mraiContinuous"`
	JitterMin      float64            `json:"jitterMin"`
	JitterMax      float64            `json:"jitterMax"`
	ProcDelayMinNs int64              `json:"procDelayMinNs"`
	ProcDelayMaxNs int64              `json:"procDelayMaxNs"`
	Policy         string             `json:"policy"`
	Export         string             `json:"export"`
	Damping        *bgp.DampingConfig `json:"damping,omitempty"`
	// Session is the FSM configuration, normalized and omitted when
	// disabled (HoldTime zero keeps the pre-FSM behaviour and key).
	Session      *sessionKeySpec  `json:"session,omitempty"`
	Enhancements bgp.Enhancements `json:"enhancements"`
}

// policyFingerprint canonicalizes the route-selection policy, reporting
// ok=false when the policy cannot be fingerprinted (uncacheable).
func policyFingerprint(p routing.Policy) (string, bool) {
	switch p.(type) {
	case nil:
		return "shortest-path", true
	case routing.ShortestPath:
		return "shortest-path", true
	}
	if f, ok := p.(Fingerprinted); ok {
		return "custom:" + f.CacheFingerprint(), true
	}
	return "", false
}

// exportFingerprint canonicalizes the export policy.
func exportFingerprint(e bgp.ExportPolicy) (string, bool) {
	if e == nil {
		return "everything", true
	}
	if f, ok := e.(Fingerprinted); ok {
		return "custom:" + f.CacheFingerprint(), true
	}
	return "", false
}

// CacheKey returns the scenario's content address for the sweep result
// cache: a hex sha256 over a canonical encoding of everything that
// determines the trial's Result (topology, failure event or fault plan,
// full BGP configuration including enhancements, workload parameters,
// seed, and watchdog budgets). Two scenarios with equal keys produce
// byte-identical results by construction, so a key hit can substitute a
// stored result for a simulation.
//
// The empty string means "not cacheable": the scenario's outcome depends
// on state the key cannot capture — a per-node PolicyFor hook, a custom
// Policy or Export without a CacheFingerprint, an enabled TraceLimit
// (traces are excluded from the stored encoding), or a Guard.CorruptFIBNode
// fault-injection hook (the injected violation depends on the guard
// configuration, which is otherwise excluded from the key because guards
// are observation-only).
func (s Scenario) CacheKey() string {
	if s.Graph == nil || s.TraceLimit > 0 || s.BGP.PolicyFor != nil || s.Guard.CorruptFIBNode != nil {
		return ""
	}
	pol, ok := policyFingerprint(s.BGP.Policy)
	if !ok {
		return ""
	}
	exp, ok := exportFingerprint(s.BGP.Export)
	if !ok {
		return ""
	}
	d, plan, err := s.lowered()
	if err != nil {
		return ""
	}
	edges := d.Graph.Edges()
	spec := cacheKeySpec{
		V:        CacheKeyVersion,
		Topology: d.Graph.Name(),
		Nodes:    d.Graph.NumNodes(),
		Edges:    make([][2]int, len(edges)),
		Dest:     int(d.Dest),
		Event:    int(d.Event),
		Plan:     NewFaultPlanSpec(plan),
		BGP: bgpKeySpec{
			MRAINs:         int64(d.BGP.MRAI),
			MRAIContinuous: d.BGP.MRAIContinuous,
			JitterMin:      d.BGP.JitterMin,
			JitterMax:      d.BGP.JitterMax,
			ProcDelayMinNs: int64(d.BGP.ProcDelayMin),
			ProcDelayMaxNs: int64(d.BGP.ProcDelayMax),
			Policy:         pol,
			Export:         exp,
			Damping:        d.BGP.Damping,
			Session:        newSessionKeySpec(d.BGP.Session),
			Enhancements:   d.BGP.Enhancements,
		},
		Transport:        newTransportKeySpec(d.Transport),
		PacketIntervalNs: int64(d.PacketInterval),
		TTL:              d.TTL,
		LinkDelayNs:      int64(d.LinkDelay),
		Seed:             d.Seed,
		MaxEvents:        d.MaxEvents,
		PhaseEventBudget: d.PhaseEventBudget,
		HorizonNs:        int64(d.Horizon),
	}
	for i, e := range edges {
		spec.Edges[i] = [2]int{int(e.A), int(e.B)}
	}
	if d.FaultPlan == nil && d.Event == TLong {
		spec.FailLink = &[2]int{int(d.FailLink.A), int(d.FailLink.B)}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EncodeResult serializes a Result for the sweep cache and the wire. The
// encoding is JSON with the trace excluded; CacheKey already refuses
// traced scenarios, so a cacheable result never carries one.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, errors.New("experiment: encode nil result")
	}
	if r.Trace != nil {
		return nil, errors.New("experiment: traced results are not cacheable")
	}
	return json.Marshal(r)
}

// DecodeResult is the inverse of EncodeResult. The metric types round-trip
// through JSON exactly (integers, IEEE-754 doubles via shortest-round-trip
// formatting, nanosecond durations), so a decoded result re-encodes — and
// therefore digests — byte-identically to the fresh one.
//
// It reads the bytes in one pass, without reflection, and accepts a subset
// of what json.Unmarshal into &Result{} accepts: whatever it returns,
// json.Unmarshal returns a reflect.DeepEqual value for, and every
// EncodeResult output is accepted. Whitespace and keys in any order are
// accepted; a repeated key overwrites a scalar and merges into a struct or
// Recovery, as in encoding/json. Refused: unknown keys (encoding/json
// ignores them, and matches keys case-insensitively), null anywhere but a
// list, Recovery or Trace, a top-level null (encoding/json reads it as an
// empty result), a non-null Trace, a second array for a list that already
// holds elements, and anything else that is not the JSON EncodeResult
// writes. A refused cache object is quarantined and its trial re-executed.
// json.Unmarshal is the oracle of TestDecodeResultMatchesEncodingJSON and
// FuzzDecodeResult.
func DecodeResult(data []byte) (*Result, error) {
	d := resultReader{data: data, nodes: make([]topology.Node, 0, nodeHint(data))}
	r := &Result{}
	err := d.result(r)
	d.next()
	if err == nil && d.i < len(data) {
		err = d.fail("data after the result")
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: decode result: %w", err)
	}
	return r, nil
}

// DigestResult returns the canonical hex digest of a result's measured
// content (the trace recorder, which holds unbounded event logs, is
// excluded). Equal digests mean byte-identical metric sets — the check
// behind the "parallel sweeps match the sequential oracle" guarantee.
func DigestResult(r *Result) (string, error) {
	c := *r
	c.Trace = nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// DigestAggregate returns the canonical hex digest of an aggregate.
// TrialFailure serializes only its deterministic fields (index, seed,
// panic value) — the stack trace and error chain carry addresses and are
// excluded by struct tags.
func DigestAggregate(a Aggregate) (string, error) {
	b, err := json.Marshal(a)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
