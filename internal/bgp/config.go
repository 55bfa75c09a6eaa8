// Package bgp implements the path-vector protocol engine of the paper: BGP
// speakers with per-(destination, peer) MRAI timers, serial per-message
// processing delay, explicit withdrawals, and the four convergence
// enhancements studied in §5 (SSLD, WRATE, Assertion, Ghost Flushing).
//
// A Speaker owns the routing.Table for each destination, reacts to
// messages delivered by netsim.Network, and emits updates subject to the
// protocol's timing rules. All delays are drawn from named des.RNG streams
// so runs are reproducible.
package bgp

import (
	"fmt"
	"strings"
	"time"

	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Defaults matching the paper's simulation settings (§4.1, §4.2).
const (
	// DefaultMRAI is BGP's default Minimum Route Advertisement Interval.
	DefaultMRAI = 30 * time.Second
	// DefaultProcDelayMin/Max bound the per-message routing-processing
	// delay ("uniformly distributed between 0.1 second and 0.5 second").
	DefaultProcDelayMin = 100 * time.Millisecond
	DefaultProcDelayMax = 500 * time.Millisecond
	// DefaultJitterMin/Max bound the multiplicative MRAI jitter factor
	// (SSFNET's jitter model: each armed interval is MRAI * U[0.75, 1]).
	DefaultJitterMin = 0.75
	DefaultJitterMax = 1.0
)

// Enhancements selects which convergence-enhancement mechanisms a speaker
// runs. The zero value is standard RFC 1771 BGP.
type Enhancements struct {
	// SSLD enables Sender-Side Loop Detection: before announcing a path
	// to a peer that appears in the path, send a withdrawal instead, so
	// the poison-reverse information reaches the peer as an explicit
	// withdrawal rather than a to-be-discarded announcement.
	//
	// Timing of the substituted withdrawal: by default it inherits the
	// gating of the announcement it replaces — sent at once when the
	// peer's MRAI timer is idle (this is the Figure 1(b) situation the
	// paper describes, where SSLD resolves the 2-node loop at processing
	// + propagation speed), and deferred to timer expiry otherwise. This
	// calibration matches the modest improvements the paper measures
	// with SSFNET's built-in SSLD. See SSLDImmediate for the alternative
	// reading of the paper's prose.
	SSLD bool
	// SSLDImmediate changes SSLD's substituted withdrawal to bypass an
	// armed MRAI timer entirely (the most literal reading of "a
	// withdrawal message ... which is not limited by the MRAI timer").
	// Under this variant every ghost-path switch immediately poisons the
	// new next hop, which in cliques collapses T_down convergence to
	// processing speed — far stronger than anything the paper reports
	// for SSLD, which is why it is not the default. Kept as an ablation
	// knob; see the ssld-variant benchmarks.
	SSLDImmediate bool
	// WRATE applies the MRAI timer to withdrawals as well as
	// announcements (the behaviour adopted by the post-RFC1771 spec).
	WRATE bool
	// Assertion removes adj-RIB-in paths that are inconsistent with the
	// latest information from a neighbor: on an update from u, any stored
	// path containing u whose sub-path from u differs from u's current
	// path is invalidated.
	Assertion bool
	// GhostFlushing sends an immediate withdrawal whenever the node
	// switches to a longer path while the announcement of that path is
	// delayed by the MRAI timer, flushing obsolete path info quickly.
	GhostFlushing bool
}

// Variant is one named protocol variant.
type Variant struct {
	Name string
	E    Enhancements
}

// Variants is the one table of protocol-variant names: the five variants
// the paper compares in §5 (Figures 8 and 9), in the paper's order. The
// -enhance flags, -compare, the figure columns, Enhancements.String and
// the scenario-spec "enhancements" keys all read it.
var Variants = []Variant{
	{"standard", Enhancements{}},
	{"ssld", Enhancements{SSLD: true}},
	{"wrate", Enhancements{WRATE: true}},
	{"assertion", Enhancements{Assertion: true}},
	{"ghostflush", Enhancements{GhostFlushing: true}},
}

// VariantNames lists the names of Variants, in order.
func VariantNames() []string {
	names := make([]string, len(Variants))
	for i, v := range Variants {
		names[i] = v.Name
	}
	return names
}

// ssldImmediate names the SSLDImmediate ablation in scenario specs. It
// is not one of the paper's variants, so no figure column carries it.
const ssldImmediate = "ssldImmediate"

// VariantByName resolves a protocol-variant name — one of Variants, or
// the "ssldImmediate" ablation — to its enhancement set.
func VariantByName(name string) (Enhancements, error) {
	if name == ssldImmediate {
		return Enhancements{SSLD: true, SSLDImmediate: true}, nil
	}
	for _, v := range Variants {
		if v.Name == name {
			return v.E, nil
		}
	}
	return Enhancements{}, fmt.Errorf("bgp: unknown protocol variant %q (want %s)", name, strings.Join(VariantNames(), ", "))
}

// With returns the union of e and o.
func (e Enhancements) With(o Enhancements) Enhancements {
	return Enhancements{
		SSLD:          e.SSLD || o.SSLD,
		SSLDImmediate: e.SSLDImmediate || o.SSLDImmediate,
		WRATE:         e.WRATE || o.WRATE,
		Assertion:     e.Assertion || o.Assertion,
		GhostFlushing: e.GhostFlushing || o.GhostFlushing,
	}
}

// Names lists, in table order, the variant names whose union is e — the
// inverse of VariantByName, and the keys of a scenario spec's
// "enhancements" object. SSLD with SSLDImmediate is the single name
// "ssldImmediate"; standard BGP has no names.
func (e Enhancements) Names() []string {
	var names []string
	for _, v := range Variants[1:] {
		if e.With(v.E) != e {
			continue
		}
		name := v.Name
		if v.E.SSLD && e.SSLDImmediate {
			name = ssldImmediate
		}
		names = append(names, name)
	}
	return names
}

// String names the active enhancement combination ("standard" when none).
// SSLDImmediate does not show: it refines SSLD's timing, not the set.
func (e Enhancements) String() string {
	e.SSLDImmediate = false
	if names := e.Names(); len(names) > 0 {
		return strings.Join(names, "+")
	}
	return Variants[0].Name
}

// Config parameterises a Speaker. The zero value is invalid; use
// DefaultConfig or fill every field and call Validate.
type Config struct {
	// MRAI is the Minimum Route Advertisement Interval applied per
	// (destination, peer) pair.
	MRAI time.Duration
	// MRAIContinuous selects the timer model. False (default): the timer
	// is armed when an advertisement is sent and an idle timer lets the
	// next advertisement go immediately ("reset" model). True: the timer
	// ticks continuously from a random phase and advertisements are only
	// released at ticks, so even the first post-failure update waits up
	// to one jittered interval ("continuous" model, as in SSFNET-style
	// implementations where per-peer timers free-run). The two models
	// bound the behaviour of real routers; see the mrai-model ablation
	// benchmarks.
	MRAIContinuous bool
	// JitterMin and JitterMax bound the multiplicative factor applied to
	// each armed MRAI interval. Set both to 1 to disable jitter.
	JitterMin, JitterMax float64
	// ProcDelayMin and ProcDelayMax bound the uniform per-message
	// processing delay of the node's (serial) route processor.
	ProcDelayMin, ProcDelayMax time.Duration
	// Policy ranks candidate routes; nil means routing.ShortestPath.
	Policy routing.Policy
	// PolicyFor, when non-nil, supplies a per-node route-selection policy
	// and overrides Policy (needed by relationship-aware policies such as
	// routing.GaoRexford, whose ranking depends on the deciding node).
	PolicyFor func(self topology.Node) routing.Policy
	// Export, when non-nil, filters which routes are advertised to which
	// peers. A best route that may not be exported to a peer is
	// withdrawn from it. Nil exports everything (the paper's model).
	Export ExportPolicy
	// Damping enables RFC 2439 route flap damping, with the classic
	// parameters, at every speaker (an extension beyond the paper; see
	// damping.go).
	Damping bool
	// Session parameterises the BGP session FSM (hold/keepalive timers,
	// re-establishment backoff). The zero value disables the FSM entirely:
	// sessions follow the physical link, as in the paper's model.
	Session SessionConfig
	// Enhancements selects the convergence enhancements to run.
	Enhancements Enhancements
}

// Session FSM defaults (RFC 4271 shaped).
const (
	// DefaultConnectRetry is the base interval between connection attempts
	// while a session is down.
	DefaultConnectRetry = 30 * time.Second
)

// SessionConfig parameterises the BGP session FSM. HoldTime zero disables
// the FSM: sessions come up instantly with the physical link and the
// speaker behaves byte-identically to the pre-FSM engine.
type SessionConfig struct {
	// HoldTime is the negotiated hold time: a session with no message from
	// the peer for HoldTime is declared dead (implicit withdrawal of every
	// route learned over it) and re-establishment begins. Zero disables
	// the whole FSM.
	HoldTime time.Duration
	// KeepaliveInterval paces keepalive generation; zero defaults to
	// HoldTime/3 (RFC 4271 §4.4). Keepalives are suppressed when other
	// traffic to the peer already refreshed its hold timer within the
	// interval. The simulator arms keepalive/hold machinery only while
	// the peer link is impaired — on a clean link delivery is reliable and
	// in-order by construction, so keepalives are provably redundant and
	// free-running timers would keep runs from quiescing.
	KeepaliveInterval time.Duration
	// ConnectRetry is the base backoff between connection attempts; each
	// failed attempt doubles it (with MRAI-style jitter) up to
	// ConnectRetryMax. Zero defaults to DefaultConnectRetry.
	ConnectRetry time.Duration
	// ConnectRetryMax caps the exponential backoff; zero defaults to
	// 8 * ConnectRetry.
	ConnectRetryMax time.Duration
}

// Enabled reports whether the session FSM runs at all.
func (c SessionConfig) Enabled() bool { return c.HoldTime > 0 }

// WithDefaults fills the zero timer fields of an enabled config.
func (c SessionConfig) WithDefaults() SessionConfig {
	if !c.Enabled() {
		return c
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = c.HoldTime / 3
	}
	if c.ConnectRetry == 0 {
		c.ConnectRetry = DefaultConnectRetry
	}
	if c.ConnectRetryMax == 0 {
		c.ConnectRetryMax = 8 * c.ConnectRetry
	}
	return c
}

// Validate reports configuration errors.
func (c SessionConfig) Validate() error {
	if c.HoldTime < 0 || c.KeepaliveInterval < 0 || c.ConnectRetry < 0 || c.ConnectRetryMax < 0 {
		return fmt.Errorf("bgp: negative session timer in %+v", c)
	}
	if !c.Enabled() {
		if c.KeepaliveInterval != 0 || c.ConnectRetry != 0 || c.ConnectRetryMax != 0 {
			return fmt.Errorf("bgp: session timers set but HoldTime is zero (FSM disabled)")
		}
		return nil
	}
	d := c.WithDefaults()
	if d.KeepaliveInterval >= d.HoldTime {
		return fmt.Errorf("bgp: keepalive interval %v must be below hold time %v", d.KeepaliveInterval, d.HoldTime)
	}
	if d.ConnectRetryMax < d.ConnectRetry {
		return fmt.Errorf("bgp: connect-retry cap %v below base %v", d.ConnectRetryMax, d.ConnectRetry)
	}
	return nil
}

// ExportPolicy decides whether a node may advertise its best route to a
// peer — the policy-routing hook (an extension beyond the paper).
type ExportPolicy interface {
	// ShouldExport reports whether self may advertise its current best
	// route, learned from learnedFrom (topology.None when
	// self-originated), to peer to.
	ShouldExport(self, learnedFrom, to topology.Node) bool
}

// GaoRexfordExport implements the classic Gao-Rexford export rule: routes
// learned from customers (and self-originated routes) are exported to
// every neighbor; routes learned from peers or providers are exported
// only to customers.
type GaoRexfordExport struct {
	// Rel supplies the relationship annotations.
	Rel *topology.Relationships
}

// ShouldExport implements ExportPolicy.
func (e GaoRexfordExport) ShouldExport(self, learnedFrom, to topology.Node) bool {
	if learnedFrom == topology.None {
		return true // self-originated: export to everyone
	}
	if e.Rel.Kind(self, learnedFrom) == topology.RelCustomer {
		return true // customer routes: export to everyone
	}
	// Peer/provider routes: only to customers.
	return e.Rel.Kind(self, to) == topology.RelCustomer
}

var _ ExportPolicy = GaoRexfordExport{}

// DefaultConfig returns the paper's standard-BGP configuration.
func DefaultConfig() Config {
	return Config{
		MRAI:         DefaultMRAI,
		JitterMin:    DefaultJitterMin,
		JitterMax:    DefaultJitterMax,
		ProcDelayMin: DefaultProcDelayMin,
		ProcDelayMax: DefaultProcDelayMax,
		Policy:       routing.ShortestPath{},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MRAI < 0 {
		return fmt.Errorf("bgp: negative MRAI %v", c.MRAI)
	}
	if c.JitterMin <= 0 || c.JitterMax < c.JitterMin {
		return fmt.Errorf("bgp: bad jitter range [%v, %v]", c.JitterMin, c.JitterMax)
	}
	if c.ProcDelayMin < 0 || c.ProcDelayMax < c.ProcDelayMin {
		return fmt.Errorf("bgp: bad processing delay range [%v, %v]", c.ProcDelayMin, c.ProcDelayMax)
	}
	if err := c.Session.Validate(); err != nil {
		return err
	}
	return nil
}

// withDefaults fills nil/zero fields that have safe defaults.
func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = routing.ShortestPath{}
	}
	c.Session = c.Session.WithDefaults()
	return c
}
