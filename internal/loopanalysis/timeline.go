package loopanalysis

import (
	"sort"
	"time"

	"bgploop/internal/des"
)

// TimelinePoint is one step of the loop-concurrency timeline: Active loops
// exist from At until the next point's At.
type TimelinePoint struct {
	At     des.Time
	Active int
}

// ConcurrencyTimeline returns the number of simultaneously-alive loops
// over time as a step function (sorted by time; zero-active gaps appear
// explicitly). Empty input yields nil.
func ConcurrencyTimeline(loops []Loop) []TimelinePoint {
	if len(loops) == 0 {
		return nil
	}
	type edge struct {
		at    des.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(loops))
	for _, l := range loops {
		edges = append(edges, edge{at: l.Start, delta: +1})
		edges = append(edges, edge{at: l.End, delta: -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		// Process ends before starts at the same instant so a loop that
		// is replaced at t does not double-count.
		return edges[i].delta < edges[j].delta
	})
	var out []TimelinePoint
	active := 0
	for i := 0; i < len(edges); {
		at := edges[i].at
		for i < len(edges) && edges[i].at == at {
			active += edges[i].delta
			i++
		}
		if n := len(out); n > 0 && out[n-1].Active == active {
			continue
		}
		out = append(out, TimelinePoint{At: at, Active: active})
	}
	return out
}

// MaxConcurrent returns the peak number of simultaneously-alive loops.
func MaxConcurrent(loops []Loop) int {
	max := 0
	for _, p := range ConcurrencyTimeline(loops) {
		if p.Active > max {
			max = p.Active
		}
	}
	return max
}

// LoopFreeTime returns how much of the window [from, to) had no loop
// alive — the gap §4.3 alludes to when it notes "there is not always a
// loop during the overall looping duration".
func LoopFreeTime(loops []Loop, from, to des.Time) time.Duration {
	if to <= from {
		return 0
	}
	timeline := ConcurrencyTimeline(loops)
	free := time.Duration(0)
	prevAt := from
	prevActive := 0
	for _, p := range timeline {
		at := p.At
		if at < from {
			prevActive = p.Active
			continue
		}
		if at > to {
			at = to
		}
		if prevActive == 0 && at > prevAt {
			free += at - prevAt
		}
		prevAt = at
		prevActive = p.Active
		if p.At >= to {
			break
		}
	}
	if prevActive == 0 && to > prevAt {
		free += to - prevAt
	}
	return free
}
