// Multi-prefix runs are N origins through the RunContext engine (execute
// in run.go): one scheduler, one fault plan, one watchdog, and each origin
// measured over the failure phase. MultiResult's totals are sums of those
// per-origin phase measurements. The streaming invariant guards cover
// every prefix; the rib-fib and as-path sweep checks and the oscillation
// probe stay bound to the lowered Scenario.Dest.

package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/topology"
)

// MultiScenario is the multi-prefix extension of Scenario: every AS in
// Origins originates its own prefix (the paper studies a single
// destination; this workload measures how one failure disturbs routing to
// *every* destination simultaneously, exercising the per-(destination,
// peer) MRAI timers).
type MultiScenario struct {
	// Graph is the AS topology.
	Graph *topology.Graph
	// Origins lists the prefix-originating ASes (every node if empty).
	Origins []topology.Node
	// Event selects the failure: TDown fails every link of FailNode;
	// TLong fails FailLink.
	Event    EventKind
	FailNode topology.Node
	FailLink topology.Edge
	// BGP configures every speaker.
	BGP bgp.Config
	// PacketInterval, TTL, LinkDelay, SettleDelay, Seed, MaxEvents as in
	// Scenario.
	PacketInterval time.Duration
	TTL            int
	LinkDelay      time.Duration
	SettleDelay    time.Duration
	Seed           int64
	MaxEvents      uint64
}

// scenario lowers the multi-prefix scenario to the Scenario the run loop
// executes. Scenario.Dest is what the T_down canonical plan fails and what
// the per-destination checks watch: the failed node for T_down, the first
// origin for T_long.
func (s MultiScenario) scenario() Scenario {
	ls := Scenario{
		Graph:          s.Graph,
		Event:          s.Event,
		FailLink:       s.FailLink,
		BGP:            s.BGP,
		PacketInterval: s.PacketInterval,
		TTL:            s.TTL,
		LinkDelay:      s.LinkDelay,
		SettleDelay:    s.SettleDelay,
		Seed:           s.Seed,
		MaxEvents:      s.MaxEvents,
	}
	if s.Event == TDown {
		ls.Dest = s.FailNode
	} else if len(s.Origins) > 0 {
		ls.Dest = s.Origins[0]
	}
	if ls.MaxEvents == 0 {
		ls.MaxEvents = 200_000_000
	}
	return ls
}

// Validate reports scenario construction errors.
func (s MultiScenario) Validate() error {
	if s.Graph == nil {
		return errors.New("experiment: nil topology")
	}
	seen := make([]bool, s.Graph.NumNodes())
	for _, o := range s.Origins {
		if !s.Graph.Valid(o) {
			return fmt.Errorf("experiment: origin %d not in topology", o)
		}
		if seen[o] {
			return fmt.Errorf("experiment: origin %d listed twice", o)
		}
		seen[o] = true
	}
	if s.Event == TDown && !s.Graph.Valid(s.FailNode) {
		return fmt.Errorf("experiment: fail node %d not in topology", s.FailNode)
	}
	return s.scenario().Validate()
}

// DestOutcome is the per-destination slice of a multi-prefix run.
type DestOutcome struct {
	Replay    dataplane.ReplayResult
	Loops     []loopanalysis.Loop
	LoopStats loopanalysis.Stats
}

// MultiResult aggregates a multi-prefix run.
type MultiResult struct {
	FailAt          des.Time
	ConvergenceTime time.Duration
	// PerDest maps each origin to its outcome; destinations whose
	// routing never changed after the failure have empty outcomes.
	PerDest map[topology.Node]*DestOutcome
	// AffectedDests counts destinations whose FIBs changed after the
	// failure.
	AffectedDests int
	// Totals across destinations.
	PacketsSent    int
	TTLExhaustions int
	Delivered      int
	NoRoute        int
	LoopingRatio   float64
	UpdatesSent    int
	LoopCount      int
	EventsExecuted uint64
}

// RunMulti executes the multi-prefix scenario: the origins, in the given
// order, go through the RunContext run loop as N originating nodes, and
// the totals are sums of the per-origin measurements of the failure phase.
func RunMulti(s MultiScenario) (*MultiResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ls, plan, err := s.scenario().lowered()
	if err != nil {
		return nil, err
	}
	origins := s.Origins
	if len(origins) == 0 {
		origins = s.Graph.Nodes()
	}
	out, err := ls.execute(context.Background(), plan, origins, nil)
	if err != nil {
		return nil, err
	}

	// The phase window is the run's, not the origin's: every origin
	// reports the same injection instant and convergence time.
	failure := out.phases[0][out.main]
	res := &MultiResult{
		FailAt:          failure.InjectAt,
		ConvergenceTime: failure.ConvergenceTime,
		PerDest:         make(map[topology.Node]*DestOutcome, len(origins)),
		EventsExecuted:  out.executed,
	}
	for k, dest := range origins {
		pr := out.phases[k][out.main]
		res.PerDest[dest] = &DestOutcome{Replay: pr.Replay, Loops: pr.Loops, LoopStats: pr.LoopStats}
		// A destination counts as affected when any of its FIB entries
		// changed at or after the failure instant.
		if at, ok := out.histories[dest].LastChange(); ok && at >= res.FailAt {
			res.AffectedDests++
		}
		res.PacketsSent += pr.Replay.Sent
		res.TTLExhaustions += pr.Replay.TTLExhausted
		res.Delivered += pr.Replay.Delivered
		res.NoRoute += pr.Replay.NoRoute
		res.LoopCount += len(pr.Loops)
	}
	if res.PacketsSent > 0 {
		res.LoopingRatio = float64(res.TTLExhaustions) / float64(res.PacketsSent)
	}
	for _, sp := range out.speakers {
		res.UpdatesSent += sp.Stats().UpdatesSent()
	}
	return res, nil
}
