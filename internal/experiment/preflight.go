package experiment

import (
	"errors"
	"fmt"
	"time"

	"bgploop/internal/safety"
)

// ErrStaticallyUnsafe marks a scenario refused by preflight: its policy
// configuration contains a dispute wheel, so convergence is not
// guaranteed and a watchdog abort is the expected dynamic outcome.
var ErrStaticallyUnsafe = errors.New("experiment: scenario is statically UNSAFE (dispute wheel)")

// SafetyInput resolves a scenario into the static analyzer's input: the
// pre-failure topology, destination, per-node policies (a named policy's
// hooks installed as Scenario.lowered installs them), export filter, and
// enhancement flags. Timing fields are deliberately dropped — the
// verdict is timing-independent. A named policy that does not apply to
// the scenario is an error.
func SafetyInput(s Scenario, candidates bool) (safety.Input, error) {
	s, err := s.withPolicy()
	if err != nil {
		return safety.Input{}, err
	}
	return safety.Input{
		Graph:        s.Graph,
		Dest:         s.Dest,
		Policy:       s.BGP.Policy,
		PolicyFor:    s.BGP.PolicyFor,
		Export:       s.BGP.Export,
		Enhancements: s.BGP.Enhancements,
		Candidates:   candidates,
	}, nil
}

// PreflightVerdict statically analyses the scenario before any
// simulation — convergence verdict and dispute-wheel witness when
// UNSAFE, without the transient-loop candidate enumeration — and never
// instantiates the DES kernel. Preflight turns it into a refusal.
func PreflightVerdict(s Scenario) (*safety.Report, error) {
	in, err := SafetyInput(s, false)
	if err != nil {
		return nil, err
	}
	return safety.Analyze(in)
}

// Preflight is the static safety gate bgpsim and bgpd run once before a
// scenario is simulated or admitted. It returns the PreflightVerdict
// report; when strict is set and the verdict is UNSAFE it also returns
// an error wrapping ErrStaticallyUnsafe that carries the reason and the
// rendered dispute wheel. It is the only place a verdict becomes a
// refusal: a SAFE caller arms the watchdog with WithStaticBound, and a
// non-strict caller simulates an UNSAFE scenario anyway.
func Preflight(s Scenario, strict bool) (*safety.Report, error) {
	rep, err := PreflightVerdict(s)
	if err != nil {
		return nil, err
	}
	if strict && rep.Verdict == safety.Unsafe {
		return rep, fmt.Errorf("%w: %s\n%s", ErrStaticallyUnsafe, rep.Reason, rep.Wheel)
	}
	return rep, nil
}

// StaticConvergenceBound derives a finite virtual-time watchdog horizon
// for a statically-SAFE scenario. The bound is deliberately generous —
// it exists to replace the *infinite* generic horizon with a finite one
// that legitimate convergence can never hit, so tripping it always
// indicates a bug (or an unsound SAFE verdict):
//
//	perPhase = (n+2)·MRAI·jitterMax + n²·(procMax + linkDelay)
//	           + settle + 1s
//	total    = 4 · Σ over phases (delay + action offsets + perPhase)
//
// A SAFE configuration's convergence after any single topology change
// is bounded by O(n) MRAI rounds of O(n) messages each; the n² term
// covers processing and propagation inside one round and the factor 4
// absorbs model details. Zero is returned (meaning "no bound") when
// route-flap damping is enabled: damping's suppression/reuse timers
// legitimately stretch convergence past any structural bound.
func StaticConvergenceBound(s Scenario) time.Duration {
	if s.BGP.Damping {
		return 0
	}
	d, plan, err := s.lowered()
	if err != nil {
		return 0
	}
	n := time.Duration(d.Graph.NumNodes())
	jitterMax := d.BGP.JitterMax
	if jitterMax < 1 {
		jitterMax = 1
	}
	mrai := time.Duration(float64(d.BGP.MRAI) * jitterMax)
	perPhase := (n+2)*mrai + n*n*(d.BGP.ProcDelayMax+d.LinkDelay) +
		d.SettleDelay + time.Second

	total := perPhase // initial convergence
	for _, ph := range plan.Phases {
		span := time.Duration(0)
		for _, a := range ph.Actions {
			end := a.At
			if a.Fields().Repeat {
				end += time.Duration(2*a.Cycles) * a.Period
			}
			if end > span {
				span = end
			}
		}
		total += ph.Delay + span + perPhase
	}
	return 4 * total
}

// WithStaticBound returns s with its quiescence watchdog horizon set
// from the static convergence bound, when the scenario has no explicit
// Horizon and the report certifies SAFE. The bound is applied through a
// private field excluded from CacheKey, so cache addresses and stored
// results are unchanged — the bound is observation-only unless it
// fires, and a SAFE scenario that fires it is a bug by construction.
func WithStaticBound(s Scenario, rep *safety.Report) Scenario {
	if rep == nil || rep.Verdict != safety.Safe || s.Horizon > 0 {
		return s
	}
	s.staticHorizon = StaticConvergenceBound(s)
	return s
}
