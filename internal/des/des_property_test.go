package des

import (
	"fmt"
	"math/rand"
	"strings"
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
	Run() uint64
	Stop()
	Resume()
	at(Time, func()) (canceller, error)
	onLane(k int, t Time, fn func()) (canceller, error)
	// reserve reserves a key at t; fn is what an exec-hooked scheduler
	// fires at the key, claimed or not.
	reserve(t Time, fn func()) (reservation, error)
}

type canceller interface {
	Cancel() bool
	Pending() bool
}

type reservation interface {
	claim(fn func()) bool
	reserved() bool
	drop() bool
}

// lanes is how many lanes a script spreads its lane entries over.
const lanes = 3

type realQueue struct {
	*Scheduler
	lanes [lanes]Lane
}

// newRealQueue returns the scheduler under test; hooked attaches an exec
// hook, under which reservations are events from the start.
func newRealQueue(hooked bool) *realQueue {
	q := &realQueue{Scheduler: NewScheduler()}
	if hooked {
		q.SetExecHook(func(Time) {})
	}
	return q
}

func (q *realQueue) reserve(t Time, fn func()) (reservation, error) {
	r, err := q.Reserve(t, funcEvent(fn), 0, 0, 0, nil)
	return &realReservation{q: q.Scheduler, r: r}, err
}

type realReservation struct {
	q *Scheduler
	r Reservation
}

func (r *realReservation) claim(fn func()) (ok bool) {
	r.r, ok = r.q.Claim(r.r, funcEvent(fn), 0, 0, 0, nil)
	return ok
}

func (r *realReservation) reserved() bool { return r.q.Reserved(r.r) }
func (r *realReservation) drop() bool     { return r.q.Drop(r.r) }

func (q *realQueue) at(t Time, fn func()) (canceller, error) { return q.At(t, fn) }

func (q *realQueue) onLane(k int, t Time, fn func()) (canceller, error) {
	return q.ScheduleLane(&q.lanes[k], t, funcEvent(fn), 0, 0, 0, nil)
}

type oracleQueue struct {
	*oracleScheduler
	last [lanes]Time
}

func newOracleQueue() *oracleQueue { return &oracleQueue{oracleScheduler: &oracleScheduler{}} }

func (q *oracleQueue) at(t Time, fn func()) (canceller, error) { return q.At(t, fn) }

func (q *oracleQueue) onLane(k int, t Time, fn func()) (canceller, error) {
	return q.LaneAt(&q.last[k], t, fn)
}

func (q *oracleQueue) reserve(t Time, _ func()) (reservation, error) { return q.Reserve(t) }

// script is where play draws its choices: a seeded math/rand for the
// property test, the fuzzer's bytes for the fuzz target.
type script interface{ Intn(n int) int }

// byteScript makes one choice per byte, and zeros once the bytes run out.
type byteScript []byte

func (b *byteScript) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0])
	*b = (*b)[1:]
	return c % n
}

// play runs one script against q and returns the transcript of everything
// observable: each operation's result, the firing order, and after every
// operation Now, Len, Executed, PendingCensus and NextEventTime. Delays are
// drawn from a handful of values, mostly zero, so that many events share
// an instant and the (time, seq) order is carried by seq; events schedule
// children, cancel their neighbours and stop the run from inside their
// own firing; handles are cancelled and queried long after their events
// fired. About a third of the entries go on one of the lanes, at or after
// the lane's latest instant and so mostly at instants plain events share;
// the script cancels lane heads and queued entries alike, and offers the
// lanes entries before their latest instant, which must be refused.
// Reserved keys are made, claimed, dropped and queried from the script and
// from inside events, so that claims land at a key's own instant, before
// it and after the clock passed it; a claimed key's event reserves and
// stops in turn, and run limits fall among reserved keys.
func play(q queue, src script, ops int) []string {
	delays := []Time{0, 0, 0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 7 * time.Millisecond}
	limits := []uint64{0, 1, 2, 4, 9, 40}
	var (
		log     []string
		handles []canceller
		queued  [lanes][]int // the ids each lane accepted, in order
		last    [lanes]Time  // each lane's latest accepted instant
		resvs   []reservation
		claimed []bool
		bodies  []func() // what each reserved key's event does once claimed
	)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	laneAt := func(k int, d Time) Time { return max(q.Now(), last[k]) + d }
	var reserve func(t Time)
	reserve = func(t Time) {
		k := len(resvs)
		body := func() {
			logf("fire reservation %d at %v", k, q.Now())
			switch {
			case k%3 == 0:
				reserve(q.Now() + delays[k%len(delays)])
			case k%4 == 3:
				q.Stop()
			}
		}
		claimed, bodies = append(claimed, false), append(bodies, body)
		r, err := q.reserve(t, func() {
			if claimed[k] {
				body()
			}
		})
		if err != nil {
			logf("reserve %d at %v: refused", k, t)
			resvs = append(resvs, oracleHandle{})
			return
		}
		resvs = append(resvs, r)
		logf("reserve %d at %v", k, t)
	}
	claim := func(k int) bool {
		ok := resvs[k].claim(bodies[k])
		claimed[k] = claimed[k] || ok
		return ok
	}
	var schedule func(lane int, t Time) // lane -1 is a plain event
	schedule = func(lane int, t Time) {
		id := len(handles)
		handles = append(handles, nil)
		fire := func() {
			logf("fire %d at %v", id, q.Now())
			switch {
			case id%5 == 0 && lane >= 0:
				k := (lane + 1) % lanes
				schedule(k, laneAt(k, delays[id%len(delays)]))
			case id%5 == 0:
				schedule(-1, q.Now()+delays[id%len(delays)])
			case id%7 == 0 && id > 0:
				logf("cancel %d from %d: %v", id-1, id, handles[id-1].Cancel())
			case id%11 == 0:
				q.Stop()
			}
			switch k := len(resvs) - 1; {
			case id%3 == 0:
				reserve(q.Now() + delays[id%len(delays)])
			case id%4 == 1 && k >= 0:
				logf("claim %d from %d: %v", k, id, claim(k))
			case id%8 == 2 && k >= 0:
				logf("reserved %d from %d: %v", k, id, resvs[k].reserved())
			case id%10 == 7 && k >= 0:
				logf("drop 0 from %d: %v", id, resvs[0].drop())
			}
		}
		var (
			h   canceller
			err error
		)
		if lane < 0 {
			h, err = q.at(t, fire)
		} else {
			h, err = q.onLane(lane, t, fire)
		}
		if err != nil {
			logf("schedule %d on lane %d at %v: refused", id, lane, t)
			handles[id] = oracleHandle{} // a handle that was never valid
			return
		}
		handles[id] = h
		if lane >= 0 {
			queued[lane] = append(queued[lane], id)
			last[lane] = t
		}
		logf("schedule %d on lane %d at %v", id, lane, t)
	}
	for i := 0; i < ops; i++ {
		switch r := src.Intn(30); {
		case r < 8:
			schedule(-1, q.Now()+delays[src.Intn(len(delays))])
		case r == 8:
			schedule(-1, q.Now()-Time(src.Intn(2))) // in the past half the time
		case r < 13:
			k := src.Intn(lanes)
			schedule(k, laneAt(k, delays[src.Intn(len(delays))]))
		case r == 13:
			k := src.Intn(lanes)
			schedule(k, last[k]-Time(1+src.Intn(2))) // before the lane's latest
		case r < 16 && len(handles) > 0:
			k := src.Intn(len(handles))
			logf("cancel %d: %v", k, handles[k].Cancel())
		case r == 16:
			k := src.Intn(lanes)
			for _, id := range queued[k] { // the lane's first pending entry
				if handles[id].Pending() {
					logf("cancel head %d of lane %d: %v", id, k, handles[id].Cancel())
					break
				}
			}
		case r < 19 && len(handles) > 0:
			k := src.Intn(len(handles))
			logf("pending %d: %v", k, handles[k].Pending())
		case r < 21:
			logf("step: %v", q.Step())
		case r == 21:
			logf("run until: %d", q.RunUntil(q.Now()+delays[src.Intn(len(delays))]))
		case r == 22:
			n, hit := q.RunLimitUntil(limits[src.Intn(len(limits))], q.Now()+delays[src.Intn(len(delays))])
			logf("run limit until: %d %v", n, hit)
		case r == 23:
			q.Resume()
		case r < 26:
			reserve(q.Now() + delays[src.Intn(len(delays))] - Time(src.Intn(8)/7)) // in the past one time in eight
		case r < 28 && len(resvs) > 0:
			k := src.Intn(len(resvs))
			logf("claim %d: %v", k, claim(k))
		case r == 28 && len(resvs) > 0:
			k := src.Intn(len(resvs))
			logf("drop %d: %v", k, resvs[k].drop())
		case len(resvs) > 0:
			k := src.Intn(len(resvs))
			logf("reserved %d: %v", k, resvs[k].reserved())
		}
		n, lo, hi := q.PendingCensus()
		next, ok := q.NextEventTime()
		logf("now %v len %d executed %d census %d %v %v next %v %v", q.Now(), q.Len(), q.Executed(), n, lo, hi, next, ok)
	}
	for q.Resume(); q.Run() > 0; q.Resume() {
	}
	logf("drained at %v, executed %d, len %d", q.Now(), q.Executed(), q.Len())
	return log
}

// sameTranscript fails t at the first line where got and want differ.
func sameTranscript(t *testing.T, name string, got, want []string) {
	t.Helper()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "(transcript ends)"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("%s, line %d:\n  got  %s\n  want %s", name, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: transcript has %d lines, oracle %d", name, len(got), len(want))
	}
}

// TestPropertySchedulerMatchesOracle checks the value-heap scheduler, its
// lanes and its reserved keys, with and without an exec hook, against the
// container/heap scheduler it replaced (oracle_test.go), where a lane
// entry is a plain At and a reserved key a null At: the same seeded script
// must produce the same transcript, line for line.
func TestPropertySchedulerMatchesOracle(t *testing.T) {
	var fired, onLane, refused, claimed, passed int
	for seed := int64(0); seed < 400; seed++ {
		ops := 50 + int(seed%7)*50
		oracle := newOracleQueue()
		want := play(oracle, rand.New(rand.NewSource(seed)), ops)
		for _, hooked := range []bool{false, true} {
			got := play(newRealQueue(hooked), rand.New(rand.NewSource(seed)), ops)
			sameTranscript(t, fmt.Sprintf("seed %d, hooked %v", seed, hooked), got, want)
		}
		passed += oracle.passed
		for _, line := range want {
			switch {
			case strings.HasPrefix(line, "fire"):
				fired++
			case strings.HasPrefix(line, "claim") && strings.HasSuffix(line, "true"):
				claimed++
			case strings.HasPrefix(line, "schedule") && !strings.Contains(line, "lane -1"):
				if strings.HasSuffix(line, "refused") {
					refused++
				} else {
					onLane++
				}
			}
		}
	}
	t.Logf("%d events fired, %d lane entries accepted and %d refused, %d reserved keys claimed and %d passed unclaimed",
		fired, onLane, refused, claimed, passed)
	if fired < 15000 || onLane < 8000 || refused < 1500 || claimed < 3000 || passed < 6000 {
		t.Errorf("%d events fired, %d lane entries accepted and %d refused, %d reserved keys claimed and %d passed unclaimed across all scripts; the comparison is nearly vacuous",
			fired, onLane, refused, claimed, passed)
	}
}

// FuzzSchedulerMatchesOracle is the property test driven by the fuzzer's
// bytes, one choice per byte (seeds under testdata/fuzz/).
func FuzzSchedulerMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := min(len(data), 2000)
		b := byteScript(data)
		want := play(newOracleQueue(), &b, ops)
		for _, hooked := range []bool{false, true} {
			a := byteScript(data)
			sameTranscript(t, fmt.Sprintf("script, hooked %v", hooked), play(newRealQueue(hooked), &a, ops), want)
		}
	})
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
