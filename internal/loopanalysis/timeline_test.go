package loopanalysis

import (
	"testing"
	"time"

	"bgploop/internal/topology"
)

func mkLoop(nodes []topology.Node, start, end time.Duration) Loop {
	return Loop{Nodes: nodes, Start: start, End: end, Resolved: true}
}

func TestConcurrencyTimeline(t *testing.T) {
	loops := []Loop{
		mkLoop([]topology.Node{1, 2}, time.Second, 3*time.Second),
		mkLoop([]topology.Node{3, 4}, 2*time.Second, 5*time.Second),
	}
	tl := ConcurrencyTimeline(loops)
	want := []TimelinePoint{
		{time.Second, 1},
		{2 * time.Second, 2},
		{3 * time.Second, 1},
		{5 * time.Second, 0},
	}
	if len(tl) != len(want) {
		t.Fatalf("timeline = %v, want %v", tl, want)
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Fatalf("timeline[%d] = %v, want %v", i, tl[i], want[i])
		}
	}
	if MaxConcurrent(loops) != 2 {
		t.Errorf("MaxConcurrent = %d, want 2", MaxConcurrent(loops))
	}
	if ConcurrencyTimeline(nil) != nil {
		t.Error("empty timeline not nil")
	}
}

func TestConcurrencyBackToBack(t *testing.T) {
	// One loop ends exactly when another starts: the count stays at 1
	// with no transient 2 or 0.
	loops := []Loop{
		mkLoop([]topology.Node{1, 2}, 0, time.Second),
		mkLoop([]topology.Node{3, 4}, time.Second, 2*time.Second),
	}
	for _, p := range ConcurrencyTimeline(loops) {
		if p.Active > 1 {
			t.Errorf("back-to-back loops double-counted at %v", p.At)
		}
	}
	if MaxConcurrent(loops) != 1 {
		t.Errorf("MaxConcurrent = %d, want 1", MaxConcurrent(loops))
	}
}

func TestLoopFreeTime(t *testing.T) {
	loops := []Loop{
		mkLoop([]topology.Node{1, 2}, time.Second, 2*time.Second),
		mkLoop([]topology.Node{3, 4}, 4*time.Second, 5*time.Second),
	}
	// Window [0s, 6s): free = [0,1) + [2,4) + [5,6) = 4s.
	if got := LoopFreeTime(loops, 0, 6*time.Second); got != 4*time.Second {
		t.Errorf("LoopFreeTime = %v, want 4s", got)
	}
	// Window fully inside a loop: zero free time.
	if got := LoopFreeTime(loops, time.Second, 2*time.Second); got != 0 {
		t.Errorf("inside-loop free time = %v, want 0", got)
	}
	// No loops: the whole window is free.
	if got := LoopFreeTime(nil, 0, time.Second); got != time.Second {
		t.Errorf("no-loop free time = %v, want 1s", got)
	}
	// Degenerate window.
	if got := LoopFreeTime(loops, 5*time.Second, 5*time.Second); got != 0 {
		t.Errorf("empty window free time = %v", got)
	}
}
