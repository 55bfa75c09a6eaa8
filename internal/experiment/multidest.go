// Multi-prefix runs are N origins through the RunContext engine (execute
// in run.go): one scheduler, one fault plan, one watchdog, and each origin
// measured over the failure phase. MultiResult's totals are sums of those
// per-origin phase measurements. The streaming invariant guards cover
// every prefix; the rib-fib and as-path sweep checks and the oscillation
// probe stay bound to Scenario.Dest.

package experiment

import (
	"context"
	"fmt"
	"time"

	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/topology"
)

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

// RunMulti executes the multi-prefix extension of s: every AS in origins
// (every node if empty) originates its own prefix, and one failure
// disturbs routing to all of them at once. s.Dest is the node a T_down
// fails and the destination the sweep checks watch. The origins, in the
// given order, go through the RunContext run loop as N originating nodes,
// and the totals are sums of the per-origin measurements of the failure
// phase.
func RunMulti(s Scenario, origins []topology.Node) (*MultiResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seen := make([]bool, s.Graph.NumNodes())
	for _, o := range origins {
		if !s.Graph.Valid(o) {
			return nil, fmt.Errorf("experiment: origin %d not in topology", o)
		}
		if seen[o] {
			return nil, fmt.Errorf("experiment: origin %d listed twice", o)
		}
		seen[o] = true
	}
	s, plan, err := s.lowered()
	if err != nil {
		return nil, err
	}
	if len(origins) == 0 {
		origins = s.Graph.Nodes()
	}
	out, err := s.execute(context.Background(), plan, origins, nil)
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
