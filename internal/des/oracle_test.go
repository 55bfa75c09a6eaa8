package des

import (
	"container/heap"
	"fmt"
)

// oracleScheduler is the container/heap scheduler of boxed *oracleEvent
// closures that the value heap replaced, kept as the reference the
// differential test compares against. Len and PendingCensus walk the queue;
// handles point at events that are never reused. A reserved key is a null
// event, counted when it surfaces; a claim gives it its function in place.
type oracleScheduler struct {
	now      Time
	seq      uint64
	queue    oracleHeap
	stopped  bool
	executed uint64
	passed   int // null events executed: keys that were never claimed
}

type oracleEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

type oracleHandle struct{ ev *oracleEvent }

func (h oracleHandle) Cancel() bool {
	if h.ev == nil || h.ev.cancelled || h.ev.fired {
		return false
	}
	h.ev.cancelled = true
	return true
}

func (h oracleHandle) Pending() bool {
	return h.ev != nil && !h.ev.cancelled && !h.ev.fired
}

// claim, reserved and drop make a reserved key's handle a reservation.
func (h oracleHandle) claim(fn func()) bool {
	if !h.Pending() {
		return false
	}
	if h.ev.fn == nil {
		h.ev.fn = fn
	}
	return true
}

func (h oracleHandle) reserved() bool { return h.Pending() }
func (h oracleHandle) drop() bool     { return h.Cancel() }

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }

func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *oracleHeap) Push(x any) { *h = append(*h, x.(*oracleEvent)) }

func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (s *oracleScheduler) Now() Time { return s.now }

func (s *oracleScheduler) Len() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

func (s *oracleScheduler) Executed() uint64 { return s.executed }

func (s *oracleScheduler) At(t Time, fn func()) (oracleHandle, error) {
	if t < s.now {
		return oracleHandle{}, fmt.Errorf("%w: now=%v, requested=%v", ErrPastTime, s.now, t)
	}
	ev := &oracleEvent{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return oracleHandle{ev: ev}, nil
}

// Reserve models a reserved key: a null event.
func (s *oracleScheduler) Reserve(t Time) (oracleHandle, error) { return s.At(t, nil) }

// LaneAt models an entry on a lane whose latest instant is *last. A lane
// changes where an event waits, never when it fires, so the entry is a
// plain At; all the lane adds is the refusal of disorder.
func (s *oracleScheduler) LaneAt(last *Time, t Time, fn func()) (oracleHandle, error) {
	if t < *last {
		return oracleHandle{}, fmt.Errorf("%w: lane's last entry=%v, requested=%v", ErrPastTime, *last, t)
	}
	h, err := s.At(t, fn)
	if err == nil {
		*last = t
	}
	return h, err
}

func (s *oracleScheduler) Step() bool {
	for len(s.queue) > 0 && !s.stopped {
		ev := heap.Pop(&s.queue).(*oracleEvent)
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		ev.fired = true
		s.executed++
		if ev.fn == nil {
			s.passed++
			return true
		}
		ev.fn()
		return true
	}
	return false
}

func (s *oracleScheduler) RunUntil(t Time) uint64 {
	start := s.executed
	for len(s.queue) > 0 && !s.stopped {
		next := s.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if next := s.peek(); s.now < t && (next == nil || next.at > t) {
		s.now = t
	}
	return s.executed - start
}

func (s *oracleScheduler) RunLimitUntil(limit uint64, horizon Time) (n uint64, hitHorizon bool) {
	for n < limit && !s.stopped {
		ev := s.peek()
		if ev == nil {
			return n, false
		}
		if ev.at > horizon {
			return n, true
		}
		s.Step()
		n++
	}
	return n, false
}

func (s *oracleScheduler) PendingCensus() (n int, earliest, latest Time) {
	for _, ev := range s.queue {
		if ev.cancelled {
			continue
		}
		if n == 0 || ev.at < earliest {
			earliest = ev.at
		}
		if n == 0 || ev.at > latest {
			latest = ev.at
		}
		n++
	}
	return n, earliest, latest
}

func (s *oracleScheduler) Run() uint64 {
	start := s.executed
	for s.Step() {
	}
	return s.executed - start
}

func (s *oracleScheduler) Stop()   { s.stopped = true }
func (s *oracleScheduler) Resume() { s.stopped = false }

func (s *oracleScheduler) peek() *oracleEvent {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			heap.Pop(&s.queue)
			continue
		}
		return s.queue[0]
	}
	return nil
}

func (s *oracleScheduler) NextEventTime() (Time, bool) {
	ev := s.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
