package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/safety"
	"bgploop/internal/sweep"
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
// instantiates the DES kernel. It is the verdict the sweep layer uses.
func PreflightVerdict(s Scenario) (*safety.Report, error) {
	in, err := SafetyInput(s, false)
	if err != nil {
		return nil, err
	}
	return safety.Analyze(in)
}

// safetyKeySpec is the canonical JSON form hashed into a safety-verdict
// content address. Only the analyzer's actual inputs appear: topology,
// destination, ranking, export, enhancements. Timing, seeds, and fault
// plans are irrelevant to the verdict and deliberately excluded, so one
// cached verdict serves a whole seed sweep.
type safetyKeySpec struct {
	V            int              `json:"v"`
	Nodes        int              `json:"nodes"`
	Edges        [][2]int         `json:"edges"`
	Dest         int              `json:"dest"`
	Policy       string           `json:"policy"`
	Export       string           `json:"export"`
	Enhancements bgp.Enhancements `json:"enhancements"`
}

// SafetyKey returns the content address of the scenario's static safety
// report for the sweep cache, or "" when the policy cannot be named in
// the key (the same rule as CacheKey, minus everything timing-related).
func SafetyKey(s Scenario) string {
	if s.Graph == nil {
		return ""
	}
	pol, exp, ok := s.policyKey()
	if !ok {
		return ""
	}
	edges := s.Graph.Edges()
	spec := safetyKeySpec{
		V:            CacheKeyVersion,
		Nodes:        s.Graph.NumNodes(),
		Edges:        make([][2]int, len(edges)),
		Dest:         int(s.Dest),
		Policy:       pol,
		Export:       exp,
		Enhancements: s.BGP.Enhancements,
	}
	for i, e := range edges {
		spec.Edges[i] = [2]int{int(e.A), int(e.B)}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256([]byte("safety/" + string(b)))
	return hex.EncodeToString(sum[:])
}

// EncodeSafetyReport serializes a safety report for the sweep cache.
func EncodeSafetyReport(r *safety.Report) ([]byte, error) {
	if r == nil {
		return nil, errors.New("experiment: encode nil safety report")
	}
	return json.Marshal(r)
}

// DecodeSafetyReport is the inverse of EncodeSafetyReport.
func DecodeSafetyReport(data []byte) (*safety.Report, error) {
	r := &safety.Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("experiment: decode safety report: %w", err)
	}
	return r, nil
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
	if s.BGP.Damping != nil {
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

// preflightGenerator wraps a Generator with the static safety gate used
// by SweepOptions.Preflight: every scenario is analysed (verdict only),
// UNSAFE scenarios are refused with an error wrapping
// ErrStaticallyUnsafe and rendering the dispute-wheel witness, and SAFE
// scenarios get the derived watchdog horizon. Verdicts are memoized by
// SafetyKey across the sweep (workers call the generator concurrently)
// and persisted in the sweep cache when one is available.
func preflightGenerator(gen Generator, cache *sweep.Cache) Generator {
	var (
		mu   sync.Mutex
		memo = map[string]*safety.Report{}
	)
	verdictFor := func(s Scenario) (*safety.Report, error) {
		key := SafetyKey(s)
		if key != "" {
			mu.Lock()
			rep, ok := memo[key]
			mu.Unlock()
			if ok {
				return rep, nil
			}
			if cache != nil {
				if data, ok, err := cache.Get(key); err == nil && ok {
					if rep, err := DecodeSafetyReport(data); err == nil {
						mu.Lock()
						memo[key] = rep
						mu.Unlock()
						return rep, nil
					}
				}
			}
		}
		rep, err := PreflightVerdict(s)
		if err != nil {
			return nil, err
		}
		if key != "" {
			mu.Lock()
			memo[key] = rep
			mu.Unlock()
			if cache != nil {
				if data, err := EncodeSafetyReport(rep); err == nil {
					_ = cache.Put(key, data)
				}
			}
		}
		return rep, nil
	}
	return func(trial int) (Scenario, error) {
		s, err := gen(trial)
		if err != nil {
			return Scenario{}, err
		}
		rep, err := verdictFor(s)
		if err != nil {
			return Scenario{}, fmt.Errorf("experiment: preflight: %w", err)
		}
		if rep.Verdict == safety.Unsafe {
			return Scenario{}, fmt.Errorf("%w: %s\n%s", ErrStaticallyUnsafe, rep.Reason, rep.Wheel)
		}
		return WithStaticBound(s, rep), nil
	}
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
