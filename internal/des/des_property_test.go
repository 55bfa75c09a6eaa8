package des

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queue is what the differential test drives: the Scheduler and the oracle
// behind one set of methods (their handles differ in type only).
type queue interface {
	Now() Time
	Len() int
	Executed() uint64
	Step() bool
	RunUntil(Time) uint64
	RunLimitUntil(uint64, Time) (uint64, bool)
	PendingCensus() (int, Time, Time)
	NextEventTime() (Time, bool)
	Stop()
	Resume()
	at(Time, func()) (canceller, error)
}

type canceller interface {
	Cancel() bool
	Pending() bool
}

type realQueue struct{ *Scheduler }

func (q realQueue) at(t Time, fn func()) (canceller, error) { return q.At(t, fn) }

type oracleQueue struct{ *oracleScheduler }

func (q oracleQueue) at(t Time, fn func()) (canceller, error) { return q.At(t, fn) }

// play runs one seeded script against q and returns the transcript of
// everything observable: each operation's result, the firing order, and
// after every operation Now, Len, Executed, PendingCensus and
// NextEventTime. Delays are drawn from a handful of values, mostly zero,
// so that many events share an instant and the (time, seq) order is
// carried by seq; events schedule children, cancel their neighbours and
// stop the run from inside their own firing; handles are cancelled and
// queried long after their events fired.
func play(q queue, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	delays := []Time{0, 0, 0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 7 * time.Millisecond}
	var (
		log     []string
		handles []canceller
	)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	var schedule func(t Time)
	schedule = func(t Time) {
		id := len(handles)
		handles = append(handles, nil)
		h, err := q.at(t, func() {
			logf("fire %d at %v", id, q.Now())
			switch {
			case id%5 == 0:
				schedule(q.Now() + delays[id%len(delays)])
			case id%7 == 0 && id > 0:
				logf("cancel %d from %d: %v", id-1, id, handles[id-1].Cancel())
			case id%11 == 0:
				q.Stop()
			}
		})
		if err != nil {
			logf("schedule %d at %v: refused", id, t)
			handles[id] = oracleHandle{} // a handle that was never valid
			return
		}
		handles[id] = h
		logf("schedule %d at %v", id, t)
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 9:
			schedule(q.Now() + delays[rng.Intn(len(delays))])
		case r == 9:
			schedule(q.Now() - Time(rng.Intn(2))) // in the past half the time
		case r < 13 && len(handles) > 0:
			k := rng.Intn(len(handles))
			logf("cancel %d: %v", k, handles[k].Cancel())
		case r < 15 && len(handles) > 0:
			k := rng.Intn(len(handles))
			logf("pending %d: %v", k, handles[k].Pending())
		case r < 17:
			logf("step: %v", q.Step())
		case r == 17:
			logf("run until: %d", q.RunUntil(q.Now()+delays[rng.Intn(len(delays))]))
		case r == 18:
			n, hit := q.RunLimitUntil(uint64(rng.Intn(6)), q.Now()+delays[rng.Intn(len(delays))])
			logf("run limit until: %d %v", n, hit)
		default:
			q.Resume()
		}
		n, lo, hi := q.PendingCensus()
		next, ok := q.NextEventTime()
		logf("now %v len %d executed %d census %d %v %v next %v %v", q.Now(), q.Len(), q.Executed(), n, lo, hi, next, ok)
	}
	q.Resume()
	for q.Step() {
	}
	logf("drained at %v, executed %d, len %d", q.Now(), q.Executed(), q.Len())
	return log
}

// TestPropertySchedulerMatchesOracle checks the value-heap scheduler
// against the container/heap one it replaced (oracle_test.go): the same
// seeded script must produce the same transcript, line for line.
func TestPropertySchedulerMatchesOracle(t *testing.T) {
	fired := 0
	for seed := int64(0); seed < 400; seed++ {
		ops := 40 + int(seed%7)*40
		got := play(realQueue{NewScheduler()}, seed, ops)
		want := play(oracleQueue{&oracleScheduler{}}, seed, ops)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "(transcript ends)"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d, line %d:\n  got  %s\n  want %s", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: transcript has %d lines, oracle %d", seed, len(got), len(want))
		}
		for _, line := range want {
			if len(line) > 4 && line[:4] == "fire" {
				fired++
			}
		}
	}
	if fired < 10000 {
		t.Errorf("only %d events fired across all scripts; the comparison is nearly vacuous", fired)
	}
}

// TestStaleHandleAfterRecycle pins the handle generation check: once an
// event has fired and its storage has been reused for a later event, the
// old handle must read as dead and must not be able to touch the new
// occupant.
func TestStaleHandleAfterRecycle(t *testing.T) {
	s := NewScheduler()
	var order []string
	first, err := s.At(time.Millisecond, func() { order = append(order, "first") })
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	second, err := s.At(2*time.Millisecond, func() { order = append(order, "second") })
	if err != nil {
		t.Fatal(err)
	}
	if first.ev != second.ev {
		t.Fatal("the fired event was not reused; the test no longer exercises recycling")
	}
	if first.Pending() {
		t.Error("stale handle reports the new occupant as its own pending event")
	}
	if first.Cancel() {
		t.Error("stale handle cancelled something")
	}
	if !second.Pending() || s.Len() != 1 {
		t.Errorf("new occupant disturbed: pending %v, Len %d", second.Pending(), s.Len())
	}
	s.Run()
	if len(order) != 2 || order[1] != "second" {
		t.Errorf("fired %v, want first then second", order)
	}

	// The same holds for a cancelled event once its heap item was discarded.
	cancelled, _ := s.At(3*time.Millisecond, func() { t.Error("cancelled event fired") })
	cancelled.Cancel()
	s.Run()
	third, _ := s.At(4*time.Millisecond, func() { order = append(order, "third") })
	if cancelled.ev != third.ev {
		t.Fatal("the discarded event was not reused")
	}
	if cancelled.Pending() || cancelled.Cancel() || !third.Pending() {
		t.Error("handle of a discarded event reaches the new occupant")
	}
	s.Run()
	if len(order) != 3 {
		t.Errorf("fired %v, want three events", order)
	}
}

type payloadRecorder struct{ got []string }

func (r *payloadRecorder) Fire(kind, n int, id uint64, arg any) {
	r.got = append(r.got, fmt.Sprintf("%d %d %d %v", kind, n, id, arg))
}

// TestScheduleDeliversPayload checks the typed form end to end, interleaved
// with a func() event at the same instant.
func TestScheduleDeliversPayload(t *testing.T) {
	s := NewScheduler()
	r := &payloadRecorder{}
	if _, err := s.Schedule(time.Millisecond, r, 2, -1, 7, "x"); err != nil {
		t.Fatal(err)
	}
	mustAt(t, s, time.Millisecond, func() { r.got = append(r.got, "func") })
	h, _ := s.Schedule(time.Millisecond, r, 3, 0, 0, nil)
	h.Cancel()
	if _, err := s.Schedule(-1, r, 0, 0, 0, nil); err == nil {
		t.Error("typed event accepted in the past")
	}
	s.Run()
	if want := []string{"2 -1 7 x", "func"}; fmt.Sprint(r.got) != fmt.Sprint(want) {
		t.Errorf("fired %v, want %v", r.got, want)
	}
}
