package des

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	mustAt(t, s, 30*time.Millisecond, func() { got = append(got, 3) })
	mustAt(t, s, 10*time.Millisecond, func() { got = append(got, 1) })
	mustAt(t, s, 20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired out of order: got %v want %v", i, got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	at := 5 * time.Second
	for i := 0; i < 100; i++ {
		i := i
		mustAt(t, s, at, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-time events did not fire in insertion order: %v", got)
	}
	if len(got) != 100 {
		t.Errorf("fired %d events, want 100", len(got))
	}
}

func TestSchedulerRejectsPast(t *testing.T) {
	s := NewScheduler()
	mustAt(t, s, time.Second, func() {})
	s.Run()
	if _, err := s.At(500*time.Millisecond, func() {}); !errors.Is(err, ErrPastTime) {
		t.Errorf("At(past) error = %v, want ErrPastTime", err)
	}
}

func TestSchedulerCascade(t *testing.T) {
	// Events scheduled by running events must interleave correctly.
	s := NewScheduler()
	var got []string
	mustAt(t, s, 10*time.Millisecond, func() {
		got = append(got, "a")
		mustAt(t, s, s.Now()+5*time.Millisecond, func() { got = append(got, "a+5") })
	})
	mustAt(t, s, 12*time.Millisecond, func() { got = append(got, "b") })
	s.Run()
	want := []string{"a", "b", "a+5"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("cascade order = %v, want %v", got, want)
		}
	}
}

func TestHandleCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h, err := s.At(time.Second, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !h.Pending() {
		t.Error("handle should be pending before cancel")
	}
	if !h.Cancel() {
		t.Error("first Cancel should report true")
	}
	if h.Cancel() {
		t.Error("second Cancel should report false")
	}
	if h.Pending() {
		t.Error("handle should not be pending after cancel")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	h, err := s.At(time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if h.Cancel() {
		t.Error("Cancel after fire should report false")
	}
	if h.Pending() {
		t.Error("fired handle reports pending")
	}
}

func TestLenExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	h, _ := s.At(time.Second, func() {})
	mustAt(t, s, 2*time.Second, func() {})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	h.Cancel()
	if s.Len() != 1 {
		t.Errorf("Len after cancel = %d, want 1", s.Len())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []int
	mustAt(t, s, 10*time.Millisecond, func() { got = append(got, 1) })
	mustAt(t, s, 30*time.Millisecond, func() { got = append(got, 2) })
	n := s.RunUntil(20 * time.Millisecond)
	if n != 1 {
		t.Errorf("RunUntil executed %d events, want 1", n)
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("clock after RunUntil = %v, want 20ms", s.Now())
	}
	s.Run()
	if len(got) != 2 {
		t.Errorf("total events = %d, want 2", len(got))
	}
}

func TestRunUntilAdvancesEmptyQueue(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(time.Minute)
	if s.Now() != time.Minute {
		t.Errorf("clock = %v, want 1m", s.Now())
	}
}

func TestStopAndResume(t *testing.T) {
	s := NewScheduler()
	var got []int
	mustAt(t, s, 1*time.Millisecond, func() {
		got = append(got, 1)
		s.Stop()
	})
	mustAt(t, s, 2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 1 {
		t.Fatalf("ran %d events before stop, want 1", len(got))
	}
	s.Resume()
	s.Run()
	if len(got) != 2 {
		t.Fatalf("ran %d events total, want 2", len(got))
	}
}

func TestRunLimit(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		mustAt(t, s, time.Duration(i)*time.Millisecond, func() {})
	}
	if n := s.RunLimit(4); n != 4 {
		t.Errorf("RunLimit(4) executed %d", n)
	}
	if s.Len() != 6 {
		t.Errorf("remaining = %d, want 6", s.Len())
	}
}

func TestNextEventTime(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextEventTime(); ok {
		t.Error("empty scheduler reported a next event")
	}
	h, _ := s.At(3*time.Second, func() {})
	mustAt(t, s, 5*time.Second, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 3*time.Second {
		t.Errorf("NextEventTime = %v,%v want 3s,true", at, ok)
	}
	h.Cancel()
	if at, ok := s.NextEventTime(); !ok || at != 5*time.Second {
		t.Errorf("NextEventTime after cancel = %v,%v want 5s,true", at, ok)
	}
}

// TestPropertyEventOrder verifies with random schedules that events always
// fire in nondecreasing time order and that all non-cancelled events fire.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 500 {
			delaysMs = delaysMs[:500]
		}
		s := NewScheduler()
		var fired []Time
		for _, d := range delaysMs {
			at := time.Duration(d) * time.Millisecond
			if _, err := s.At(at, func() { fired = append(fired, s.Now()) }); err != nil {
				return false
			}
		}
		s.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGStreamsDeterministic(t *testing.T) {
	r1 := NewRNG(42)
	r2 := NewRNG(42)
	a := r1.Stream("proc/5")
	b := r2.Stream("proc/5")
	for i := 0; i < 10; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("same-named streams diverge at draw %d: %d vs %d", i, x, y)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	r := NewRNG(42)
	a := r.Stream("proc/5")
	b := r.Stream("proc/6")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("differently-named streams produced identical sequences")
	}
}

func TestRNGSeedChangesStreams(t *testing.T) {
	a := NewRNG(1).Stream("x")
	b := NewRNG(2).Stream("x")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical streams")
	}
}

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lo, hi := 100*time.Millisecond, 500*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := Uniform(rng, lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Uniform out of bounds: %v", d)
		}
	}
	if d := Uniform(rng, hi, lo); d != hi {
		t.Errorf("degenerate Uniform = %v, want lo", d)
	}
}

func TestUniformFactorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		f := UniformFactor(rng, 0.75, 1.0)
		if f < 0.75 || f > 1.0 {
			t.Fatalf("UniformFactor out of bounds: %v", f)
		}
	}
	if f := UniformFactor(rng, 1.0, 1.0); f != 1.0 {
		t.Errorf("degenerate UniformFactor = %v, want 1.0", f)
	}
}

func mustAt(t *testing.T, s *Scheduler, at Time, fn func()) {
	t.Helper()
	if _, err := s.At(at, fn); err != nil {
		t.Fatalf("At(%v): %v", at, err)
	}
}

func TestRunLimitUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		if _, err := s.At(Time(i)*time.Second, func() { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}

	// Horizon stops the run with events still pending and must not
	// advance the clock past the last executed event.
	n, hitHorizon := s.RunLimitUntil(100, 2*time.Second)
	if n != 2 || !hitHorizon {
		t.Fatalf("RunLimitUntil = (%d, %v), want (2, true)", n, hitHorizon)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s (clock must not jump to the horizon)", s.Now())
	}

	// Event limit stops next.
	n, hitHorizon = s.RunLimitUntil(2, 100*time.Second)
	if n != 2 || hitHorizon {
		t.Fatalf("RunLimitUntil = (%d, %v), want (2, false)", n, hitHorizon)
	}

	// Queue drain reports neither condition.
	n, hitHorizon = s.RunLimitUntil(100, 100*time.Second)
	if n != 1 || hitHorizon {
		t.Fatalf("RunLimitUntil = (%d, %v), want (1, false)", n, hitHorizon)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events, want 5", len(fired))
	}
}

func TestPendingCensus(t *testing.T) {
	s := NewScheduler()
	if n, _, _ := s.PendingCensus(); n != 0 {
		t.Fatalf("empty census = %d, want 0", n)
	}
	if _, err := s.At(3*time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	h, err := s.At(time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(7*time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	n, earliest, latest := s.PendingCensus()
	if n != 3 || earliest != time.Second || latest != 7*time.Second {
		t.Fatalf("census = (%d, %v, %v), want (3, 1s, 7s)", n, earliest, latest)
	}
	h.Cancel()
	n, earliest, latest = s.PendingCensus()
	if n != 2 || earliest != 3*time.Second || latest != 7*time.Second {
		t.Fatalf("census after cancel = (%d, %v, %v), want (2, 3s, 7s)", n, earliest, latest)
	}
}

// TestRunUntilAfterStopKeepsClock: a Stop inside RunUntil leaves an event
// at or before the target pending, so the clock must stay where the stopped
// event put it — jumping to the target would make the pending event fire
// in the clock's past and refuse instants before the target that are not.
func TestRunUntilAfterStopKeepsClock(t *testing.T) {
	s := NewScheduler()
	mustAt(t, s, time.Millisecond, s.Stop)
	mustAt(t, s, 2*time.Millisecond, func() {})
	if n := s.RunUntil(5 * time.Millisecond); n != 1 {
		t.Fatalf("RunUntil executed %d events, want 1", n)
	}
	if s.Now() != time.Millisecond {
		t.Errorf("clock after a stopped RunUntil = %v, want 1ms", s.Now())
	}
	if _, err := s.At(3*time.Millisecond, func() {}); err != nil {
		t.Errorf("At(3ms) after a stopped RunUntil: %v", err)
	}
	s.Resume()
	s.Step()
	if s.Now() != 2*time.Millisecond {
		t.Errorf("clock after the pending event = %v, want 2ms", s.Now())
	}
	// Once nothing is left at or before the target, RunUntil advances.
	s.RunUntil(5 * time.Millisecond)
	if s.Now() != 5*time.Millisecond {
		t.Errorf("clock = %v, want 5ms", s.Now())
	}
}

// TestLaneWaitsOutsideHeap: a lane's entries fire exactly where plain
// events with the same instants would, interleaved with plain events at the
// same instants, while only the lane's first entry is in the heap; Len and
// PendingCensus count the ones waiting.
func TestLaneWaitsOutsideHeap(t *testing.T) {
	s := NewScheduler()
	r := &payloadRecorder{}
	var lane Lane
	for i := 0; i < 100; i++ {
		at := Time(i/10) * time.Millisecond
		if _, err := s.ScheduleLane(&lane, at, r, 1, i, 0, nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := s.Schedule(at, r, 0, i, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.queue) != 11 || s.Len() != 110 {
		t.Fatalf("heap holds %d items, Len %d; want 11 and 110", len(s.queue), s.Len())
	}
	if n, lo, hi := s.PendingCensus(); n != 110 || lo != 0 || hi != 9*time.Millisecond {
		t.Fatalf("census = (%d, %v, %v), want (110, 0s, 9ms)", n, lo, hi)
	}
	s.Run()
	var want []string
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			want = append(want, fmt.Sprintf("0 %d 0 <nil>", i))
		}
		want = append(want, fmt.Sprintf("1 %d 0 <nil>", i))
	}
	// Each instant's plain event was scheduled after the lane entry at the
	// same index, so the lane entry fires first.
	for i := 0; i < len(want); i += 11 {
		want[i], want[i+1] = want[i+1], want[i]
	}
	if fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Errorf("fired\n  %v\nwant\n  %v", r.got, want)
	}
}

// TestLaneRefusesDisorder: an entry before the lane's latest instant is
// refused with ErrPastTime, not reordered, even when it is not in the
// scheduler's past; the refusal leaves the lane as it was, and a drained
// lane still remembers its latest instant.
func TestLaneRefusesDisorder(t *testing.T) {
	s := NewScheduler()
	r := &payloadRecorder{}
	var lane Lane
	if _, err := s.ScheduleLane(&lane, 5*time.Millisecond, r, 0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScheduleLane(&lane, 4*time.Millisecond, r, 0, 1, 0, nil); !errors.Is(err, ErrPastTime) {
		t.Errorf("entry before the lane's latest: error %v, want ErrPastTime", err)
	}
	if _, err := s.ScheduleLane(&lane, 5*time.Millisecond, r, 0, 2, 0, nil); err != nil {
		t.Errorf("entry at the lane's latest instant: %v", err)
	}
	s.Run()
	if fmt.Sprint(r.got) != "[0 0 0 <nil> 0 2 0 <nil>]" || s.Len() != 0 {
		t.Errorf("fired %v with Len %d, want entries 0 and 2", r.got, s.Len())
	}
	if _, err := s.ScheduleLane(&lane, 5*time.Millisecond, r, 0, 4, 0, nil); err != nil {
		t.Errorf("drained lane refused its latest instant: %v", err)
	}
	if _, err := s.ScheduleLane(&lane, 4*time.Millisecond, r, 0, 5, 0, nil); err == nil {
		t.Error("drained lane forgot its latest instant")
	}
}

// An event stays at 96 B with its lane link, so that a block of 63 and the
// allocator's header fit the 6 KiB size class: the blocks are what a busy
// trial's queue costs.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 96 {
		t.Errorf("event is %d B, want <= 96", n)
	}
}
