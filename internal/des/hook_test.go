package des

import (
	"testing"
	"time"
)

func TestExecHookObservesEveryEvent(t *testing.T) {
	s := NewScheduler()
	var hooked []Time
	var ran int
	s.SetExecHook(func(at Time) {
		hooked = append(hooked, at)
		if len(hooked) != ran+1 {
			t.Fatalf("hook fired after the event function (ran=%d)", ran)
		}
	})
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		if _, err := s.At(s.Now()+d, func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if ran != 3 || len(hooked) != 3 {
		t.Fatalf("ran=%d hooked=%d, want 3/3", ran, len(hooked))
	}
	for i, want := range []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if hooked[i] != want {
			t.Fatalf("hooked[%d] = %v, want %v", i, hooked[i], want)
		}
	}
	// Removing the hook stops observation.
	s.SetExecHook(nil)
	if _, err := s.At(s.Now()+time.Millisecond, func() { ran++ }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(hooked) != 3 {
		t.Fatal("hook fired after removal")
	}
}

func TestExecHookSkipsCancelledEvents(t *testing.T) {
	s := NewScheduler()
	var hooks int
	s.SetExecHook(func(Time) { hooks++ })
	h, err := s.At(s.Now()+time.Millisecond, func() { t.Fatal("cancelled event ran") })
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if _, err := s.At(s.Now()+2*time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if hooks != 1 {
		t.Fatalf("hook fired %d times, want 1 (cancelled events are not executed)", hooks)
	}
}

// TestExecHookSeesReservedKeys pins where a reserved key waits: without a
// hook it is counted as the clock passes it and fires nothing, with one it
// is an event from the start, fired (and seen by the hook) claimed or not.
func TestExecHookSeesReservedKeys(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		s := NewScheduler()
		var hooks, fired int
		if hooked {
			s.SetExecHook(func(Time) { hooks++ })
		}
		r, err := s.Reserve(time.Millisecond, funcEvent(func() { fired++ }), 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Reserved(r) || s.Len() != 1 {
			t.Fatalf("hooked %v: reserved %v, Len %d after Reserve", hooked, s.Reserved(r), s.Len())
		}
		if n := s.Run(); n != 1 || s.Now() != time.Millisecond || s.Reserved(r) {
			t.Fatalf("hooked %v: Run executed %d, now %v, still reserved %v", hooked, n, s.Now(), s.Reserved(r))
		}
		if want := map[bool]int{false: 0, true: 1}[hooked]; hooks != want || fired != want {
			t.Errorf("hooked %v: hook saw %d events and the key fired %d times, want %d", hooked, hooks, fired, want)
		}
	}
}
