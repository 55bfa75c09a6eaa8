// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel is single-threaded by design: events execute one at a time in
// strict (time, insertion-order) order, which makes every simulation run
// reproducible given the same schedule of events and the same RNG seeds.
// Virtual time is expressed as a time.Duration offset from the start of the
// simulation; no wall-clock time is ever consulted.
//
// There is one event representation. An event is a Receiver plus a small
// fixed payload (Scheduler.Schedule); a func() is scheduled as the
// Receiver that calls it (At), so Step has a single dispatch path. The
// queue is a 4-ary heap of {time, seq, *event} values that orders itself
// without touching the events, and fired or discarded events go back on a
// free list, so a warm scheduler allocates nothing per event. Because
// events are reused, a Handle names its event together with the
// generation it was scheduled under; see Handle. Events that arrive
// already in time order can wait on a Lane instead of in the heap.
//
// An event that will usually turn out not to be needed, such as a timer
// expiry that finds nothing to do, can be reserved instead (Reserve): its
// (time, seq) key is set aside in a pointer-free slab, and the key becomes
// an event only if it is claimed (Claim) before the clock passes it. An
// unclaimed key counts as one executed event that fires nothing, at
// exactly its key, so Executed, Len, the run loops' limits and horizons,
// PendingCensus and NextEventTime read as if it were an event. With an
// exec hook attached a reservation is an event from the start.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual-time instant, measured as an offset from the start of
// the simulation. It deliberately reuses time.Duration so that callers can
// use the standard duration literals (30 * time.Second) for both instants
// and intervals.
type Time = time.Duration

// ErrPastTime is returned when an event is scheduled before the current
// virtual time. Scheduling in the past would silently violate causality, so
// the kernel refuses it.
var ErrPastTime = errors.New("des: event scheduled in the past")

// Receiver is the target of a typed event. Fire is called at the event's
// instant with the small fixed payload the event was scheduled with: a
// kind for the receiver to switch on, two scalars and one value. A
// receiver that schedules through a pointer it already holds, and passes
// as arg a value that is already an interface or a pointer, makes
// scheduling and firing allocation-free.
type Receiver interface {
	Fire(kind, n int, id uint64, arg any)
}

// funcEvent adapts a plain func() to Receiver. A func value is
// pointer-shaped, so the conversion to the interface does not allocate.
type funcEvent func()

func (f funcEvent) Fire(int, int, uint64, any) { f() }

// Handle identifies a scheduled event and allows it to be cancelled.
// The zero value is not a valid handle; handles are obtained from
// Scheduler.At, Schedule and ScheduleLane.
//
// Events are recycled once they have fired or been discarded, so a handle
// also carries its event's generation — the sequence number the event was
// scheduled under. A handle kept past its event's firing (timers are
// routinely cancelled late) no longer matches whatever the event has been
// reused for: it can neither cancel the new occupant nor report it pending.
type Handle struct {
	ev  *event
	seq uint64
}

// Cancel removes the event from the schedule. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.ev.pending = false
	h.ev.sched.live--
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.seq == h.seq && h.ev.pending
}

// event is the out-of-heap part of a scheduled event: what to call and
// whether it is still wanted. An event belongs to exactly one heap item
// from Schedule until that item is popped, then to the free list; a lane
// entry waits linked behind its predecessor until that one's item leaves
// the heap, and then gets an item of its own. (96 B: kind and n are
// int32 so that at and lane fit in the size class.)
type event struct {
	sched   *Scheduler
	recv    Receiver
	arg     any
	id      uint64
	seq     uint64 // generation: the seq of the current (or last) scheduling
	at      Time
	kind, n int32
	pending bool   // scheduled, not yet fired, not cancelled
	next    *event // free list, or the next entry of the lane; nil otherwise
	lane    *Lane  // the lane the event waits on, nil for a plain event
}

// Lane is a FIFO of events whose instants never decrease, such as the
// completions of a serial processor. Only the lane's first entry is in the
// heap; the others wait, linked through their events, and each goes onto
// the heap when the entry ahead of it leaves (fired, or discarded after
// Cancel). An entry is keyed (time, seq) when it is scheduled, exactly as
// Schedule would key it, so a lane changes where an event waits and never
// when it fires. A lane serves one scheduler; the zero value is empty.
type Lane struct {
	tail *event // the last entry, nil when the lane is empty
	last Time   // the latest instant ever scheduled on the lane
}

// item is one heap entry. The ordering key (at, seq) lives in the item so
// that sifting never dereferences an event.
type item struct {
	at  Time
	seq uint64
	ev  *event
}

func (a item) before(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Reservation names a key set aside by Reserve, and the event it became
// once claimed. The zero value names nothing: it is never reserved.
type Reservation struct {
	h   Handle // the event once there is one; while only a key, h.seq is its seq
	key int32  // 1 + the key's slab index while it is only a key, 0 otherwise
}

// rkey is a reserved key in the scheduler's slab (16 B, no pointers). A
// free entry has seq freeSeq and, in at, 1 + the next free entry's index.
type rkey struct {
	at  Time
	seq uint64
}

// freeSeq marks a free slab entry; no event is ever keyed with it.
const freeSeq = math.MaxUint64

// item is k as a heap key, for ordering.
func (k rkey) item() item { return item{at: k.at, seq: k.seq} }

// keyRef is a reserved key in the exact run path's ordering (see
// runExact), with the slab index it was reserved at.
type keyRef struct {
	rkey
	i int32
}

// Scheduler is the event queue and virtual clock of a simulation.
// The zero value is a ready-to-use scheduler positioned at time zero.
//
// The queue is a 4-ary min-heap of items held by value, ordered by (time,
// scheduling sequence). Cancellation is lazy: a cancelled event keeps its
// heap item until the item surfaces and is discarded, and a cancelled lane
// entry keeps its place in the lane until the entry ahead of it leaves.
//
// Reserved keys are unordered in a slab beside the heap. The clock passes
// them lazily: a key is passed once the clock has reached it, and a passed
// key stays in the slab, uncounted, until a sweep counts and frees it.
// Every run loop ends with a sweep, so between runs the slab holds only
// keys ahead of the clock.
type Scheduler struct {
	now     Time
	cur     uint64 // 1 + the seq of the event or key the clock last stopped at
	seq     uint64
	queue   []item
	free    *event
	live    int // pending events, in the heap or waiting on a lane
	stopped bool

	keys     []rkey
	keyFree  int32 // 1 + the first free slab entry, 0 when none is free
	reserved int   // occupied slab entries, passed or not
	// rq orders the reserved keys while runExact interleaves them with the
	// heap (exact is set); it is empty otherwise.
	rq    []keyRef
	exact bool

	// executed counts events that have fired and keys that have been
	// passed (once swept); useful for instrumentation and for guarding
	// against runaway simulations.
	executed uint64

	// execHook, when set, observes every fired event just before its
	// function runs. It is the invariant guard layer's tap: the hook must
	// be observation-only (no scheduling, no RNG, no state mutation) so
	// that a guarded run is byte-identical to an unguarded one.
	execHook func(at Time)
}

// NewScheduler returns an empty scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (non-cancelled) events, lane entries
// and reserved keys the clock has not passed included. Cancelled events
// that have not yet been popped are excluded.
func (s *Scheduler) Len() int {
	s.sweep()
	return s.live + s.reserved
}

// Executed returns the number of events that have fired so far, passed
// reserved keys included.
func (s *Scheduler) Executed() uint64 {
	s.sweep()
	return s.executed
}

// SetExecHook installs (or, with nil, removes) the per-event observation
// hook. The hook fires once per executed event, after the clock has
// advanced to the event's timestamp and before the event function runs —
// i.e. at a point where all simulation state is between-events
// consistent. Hooks must be observation-only; they are how the invariant
// guard engine sees the kernel without perturbing it. While a hook is
// attached, Reserve schedules an event, so the hook sees every key fire;
// keys reserved before it was attached pass unobserved.
func (s *Scheduler) SetExecHook(fn func(at Time)) { s.execHook = fn }

// Schedule arranges for r.Fire(kind, n, id, arg) to be called at the
// absolute virtual time t. Events scheduled for the same instant fire in
// the order they were scheduled. At schedules a func() through it.
// kind and n must fit in an int32.
func (s *Scheduler) Schedule(t Time, r Receiver, kind, n int, id uint64, arg any) (Handle, error) {
	return s.ScheduleLane(nil, t, r, kind, n, id, arg)
}

// ScheduleLane is Schedule for an event that waits on lane l: it fires
// exactly when Schedule would have fired it, but until every earlier entry
// of l has left the heap it waits outside it. An instant before l's latest
// one is refused with ErrPastTime, never reordered. A nil l is Schedule;
// it is the one way onto the queue.
func (s *Scheduler) ScheduleLane(l *Lane, t Time, r Receiver, kind, n int, id uint64, arg any) (Handle, error) {
	if t < s.now {
		return Handle{}, fmt.Errorf("%w: now=%v, requested=%v", ErrPastTime, s.now, t)
	}
	if l != nil && t < l.last {
		return Handle{}, fmt.Errorf("%w: lane's last entry=%v, requested=%v", ErrPastTime, l.last, t)
	}
	if err := fitsInt32(kind, n); err != nil {
		return Handle{}, err
	}
	ev := s.newEvent(t, s.seq, r, kind, n, id, arg, l)
	s.seq++
	if l != nil && l.tail != nil {
		l.tail.next = ev // waits until its predecessor leaves the heap
	} else {
		s.push(item{at: t, seq: ev.seq, ev: ev})
	}
	if l != nil {
		l.tail, l.last = ev, t
	}
	return Handle{ev: ev, seq: ev.seq}, nil
}

func fitsInt32(kind, n int) error {
	if int(int32(kind)) != kind || int(int32(n)) != n {
		return fmt.Errorf("des: event kind %d or n %d overflows int32", kind, n)
	}
	return nil
}

// newEvent takes an event off the free list, pending with key (t, seq).
func (s *Scheduler) newEvent(t Time, seq uint64, r Receiver, kind, n int, id uint64, arg any, l *Lane) *event {
	ev := s.free
	if ev == nil {
		// Events are made a block at a time: the free list only ever grows
		// to the queue's high-water mark, a few thousand on a busy run. 63
		// events and the allocator's 8-byte header fit the 6 KiB size
		// class; 64 would spill into the next one, 6.4 KiB.
		block := make([]event, 63)
		for i := 1; i < len(block); i++ {
			block[i-1].next = &block[i]
		}
		ev = &block[0]
	}
	s.free = ev.next
	*ev = event{sched: s, recv: r, arg: arg, id: id, seq: seq, at: t, kind: int32(kind), n: int32(n), pending: true, lane: l}
	s.live++
	return ev
}

// Reserve sets aside the key (t, seq) that Schedule would give an event
// for r.Fire(kind, n, id, arg) at t, without making the event: the key
// waits in a slab outside the heap. Until the clock passes it the key is
// reserved (Reserved), and Claim makes it an event with that same key;
// a key the clock passes unclaimed counts as one executed event that
// fired nothing. Drop discards a key before it is passed, as Cancel
// discards an event. With an exec hook attached Reserve is Schedule, and
// the event fires whether it is claimed or not, so r must do nothing when
// no claim was wanted.
func (s *Scheduler) Reserve(t Time, r Receiver, kind, n int, id uint64, arg any) (Reservation, error) {
	if s.execHook != nil {
		h, err := s.Schedule(t, r, kind, n, id, arg)
		return Reservation{h: h}, err
	}
	if t < s.now {
		return Reservation{}, fmt.Errorf("%w: now=%v, requested=%v", ErrPastTime, s.now, t)
	}
	if err := fitsInt32(kind, n); err != nil {
		return Reservation{}, err
	}
	if s.keyFree == 0 {
		s.makeRoom()
	}
	i := s.keyFree - 1
	s.keyFree = int32(s.keys[i].at)
	s.keys[i] = rkey{at: t, seq: s.seq}
	s.reserved++
	if s.exact {
		s.rqPush(keyRef{rkey: s.keys[i], i: i})
	}
	s.seq++
	return Reservation{h: Handle{seq: s.keys[i].seq}, key: i + 1}, nil
}

// Reserved reports whether r is still ahead of the clock: a key not yet
// passed, claimed or dropped, or the pending event a claim made of it.
func (s *Scheduler) Reserved(r Reservation) bool {
	if r.key == 0 {
		return r.h.Pending()
	}
	k := s.keys[r.key-1]
	return k.seq == r.h.seq && !s.passed(k)
}

// Claim makes the reserved key r an event for recv.Fire(kind, n, id, arg)
// with r's own key, and returns r naming that event. A reservation that
// already is an event is returned as it is. ok is false, and nothing
// happens, when r is no longer reserved (see Reserved).
func (s *Scheduler) Claim(r Reservation, recv Receiver, kind, n int, id uint64, arg any) (_ Reservation, ok bool) {
	if !s.Reserved(r) {
		return r, false
	}
	if r.key == 0 {
		return r, true
	}
	k := s.keys[r.key-1]
	s.freeKey(r.key - 1)
	ev := s.newEvent(k.at, k.seq, recv, kind, n, id, arg, nil)
	s.push(item{at: k.at, seq: k.seq, ev: ev})
	return Reservation{h: Handle{ev: ev, seq: k.seq}}, true
}

// Drop discards r as Cancel discards an event: a dropped key is never
// counted. It reports whether r was still reserved; a key the clock has
// already passed stays counted.
func (s *Scheduler) Drop(r Reservation) bool {
	if r.key == 0 {
		return r.h.Cancel()
	}
	if !s.Reserved(r) {
		return false
	}
	s.freeKey(r.key - 1)
	return true
}

// passed reports whether the clock has reached key k.
func (s *Scheduler) passed(k rkey) bool {
	return k.at < s.now || k.at == s.now && k.seq < s.cur
}

func (s *Scheduler) freeKey(i int32) {
	s.keys[i] = rkey{at: Time(s.keyFree), seq: freeSeq}
	s.keyFree = i + 1
	s.reserved--
}

// sweep counts and frees every key the clock has passed.
func (s *Scheduler) sweep() {
	if s.reserved == 0 {
		return
	}
	for i, k := range s.keys {
		if k.seq != freeSeq && s.passed(k) {
			s.freeKey(int32(i))
			s.executed++
		}
	}
}

// makeRoom frees a slab entry when none is: it sweeps, and doubles the
// slab if that leaves it more than three quarters full, so that the next
// sweep is at least a quarter of the slab's reservations away.
func (s *Scheduler) makeRoom() {
	s.sweep()
	if s.reserved <= len(s.keys)*3/4 && s.keyFree != 0 {
		return
	}
	old := len(s.keys)
	s.keys = append(s.keys, make([]rkey, max(64, old))...)
	for i := len(s.keys) - 1; i >= old; i-- {
		s.keys[i] = rkey{at: Time(s.keyFree), seq: freeSeq}
		s.keyFree = int32(i + 1)
	}
}

// At schedules fn to run at the absolute virtual time t. Events scheduled
// for the same instant fire in the order they were scheduled.
func (s *Scheduler) At(t Time, fn func()) (Handle, error) {
	return s.Schedule(t, funcEvent(fn), 0, 0, 0, nil)
}

// Step executes the next event, or passes the next reserved key. It
// reports false when there is neither or the scheduler has been stopped.
func (s *Scheduler) Step() bool {
	n, _ := s.RunLimitUntil(1, math.MaxInt64)
	return n == 1
}

// peek returns the heap's earliest pending item, discarding cancelled ones
// on the way.
func (s *Scheduler) peek() (item, bool) {
	for len(s.queue) > 0 {
		if top := s.queue[0]; top.ev.pending {
			return top, true
		}
		s.release(s.pop().ev)
	}
	return item{}, false
}

// fire pops and executes the heap's earliest item, which must be pending.
func (s *Scheduler) fire() {
	it := s.pop()
	ev := it.ev
	// Recycle before firing: what the event schedules next reuses it
	// while it is still in cache.
	recv, kind, n, id, arg := ev.recv, int(ev.kind), int(ev.n), ev.id, ev.arg
	s.release(ev)
	s.live--
	s.now, s.cur = it.at, it.seq+1
	s.executed++
	if s.execHook != nil {
		s.execHook(it.at)
	}
	recv.Fire(kind, n, id, arg)
}

// release puts a popped event on the free list. Handles to it are dead
// from here on: pending is false until reuse gives it a new generation.
func (s *Scheduler) release(ev *event) {
	ev.recv, ev.arg, ev.pending = nil, nil, false
	ev.next, s.free = s.free, ev
}

// push adds it to the heap.
func (s *Scheduler) push(it item) {
	q := append(s.queue, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !it.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
	s.queue = q
}

// pop removes and returns the earliest item; the queue must be non-empty.
// When the item heads a lane, the lane's next pending entry takes its
// place, keyed as it was scheduled; otherwise the last item does. Either
// is then sifted down from the root.
func (s *Scheduler) pop() item {
	q := s.queue
	top := q[0]
	var it item
	if next := s.advance(top.ev); next != nil {
		it = item{at: next.at, seq: next.seq, ev: next}
	} else {
		last := len(q) - 1
		it = q[last]
		q[last] = item{}
		q = q[:last]
		s.queue = q
		if last == 0 {
			return top
		}
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= len(q) {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < len(q); c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(it) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = it
	return top
}

// advance is called as ev's heap item leaves. For the first entry of a
// lane it returns the lane's next pending entry, releasing cancelled ones
// on the way, or nil when none is left; for a plain event, nil.
func (s *Scheduler) advance(ev *event) *event {
	if ev.lane == nil {
		return nil
	}
	next := ev.next
	for next != nil && !next.pending {
		dead := next
		next = next.next
		s.release(dead)
	}
	if next == nil {
		ev.lane.tail = nil
	}
	return next
}

// Run executes events until the queue is empty (quiescence) or Stop is
// called. It returns the number of events executed by this call.
func (s *Scheduler) Run() uint64 {
	n, _ := s.RunLimitUntil(math.MaxUint64, math.MaxInt64)
	return n
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (even if the queue drained earlier) — unless a Stop left an event at or
// before t pending, which must still fire at its own instant. It returns the
// number of events executed by this call.
func (s *Scheduler) RunUntil(t Time) uint64 {
	n, _ := s.RunLimitUntil(math.MaxUint64, t)
	if s.now < t {
		if at, ok := s.NextEventTime(); !ok || at > t {
			s.now = t
		}
	}
	return n
}

// RunLimit executes at most limit events, returning the number executed.
// It is a guard against accidental non-terminating simulations.
func (s *Scheduler) RunLimit(limit uint64) uint64 {
	n, _ := s.RunLimitUntil(limit, math.MaxInt64)
	return n
}

// RunLimitUntil executes at most limit events whose timestamps do not
// exceed horizon. It returns the number of events executed and whether the
// run stopped because the next pending event lies beyond the horizon (the
// virtual-time watchdog condition). Unlike RunUntil the clock is not
// advanced to the horizon when the queue drains early, so a subsequent
// phase continues from the true quiescence instant. It is every run
// loop's one loop, and counts a reserved key the clock passes as an
// event at its own key.
func (s *Scheduler) RunLimitUntil(limit uint64, horizon Time) (n uint64, hitHorizon bool) {
	start := s.executed
	// Fire heap events while the limit could not be reached even if every
	// key in the slab were passed before the next one.
	for !s.stopped {
		it, ok := s.peek()
		if !ok || it.at > horizon || uint64(s.reserved) >= limit-(s.executed-start) {
			break
		}
		s.fire()
	}
	s.sweep()
	n = s.executed - start
	if s.stopped || n >= limit {
		return n, false
	}
	it, ok := s.peek()
	if ok && it.at <= horizon {
		return s.runExact(start, limit, horizon)
	}
	// The heap is drained or waits beyond the horizon, so what is left at
	// or before it is keys: they pass in one count if the limit allows.
	var (
		c    uint64
		last rkey
	)
	for _, k := range s.keys {
		if k.seq != freeSeq && k.at <= horizon {
			c++
			if c == 1 || last.item().before(k.item()) {
				last = k
			}
		}
	}
	if c > limit-n {
		return s.runExact(start, limit, horizon)
	}
	if c > 0 {
		s.now, s.cur = last.at, last.seq+1
		s.sweep()
		n += c
	}
	if n == limit {
		return n, false
	}
	return n, ok || s.reserved > 0
}

// runExact continues RunLimitUntil where its limit may fall among reserved
// keys: it orders them, and those reserved meanwhile, in rq and takes the
// earlier of rq's and the heap's first key at each step, so that it stops
// at exactly the event or key the limit or the horizon falls on.
func (s *Scheduler) runExact(start, limit uint64, horizon Time) (n uint64, hitHorizon bool) {
	for i, k := range s.keys {
		if k.seq != freeSeq {
			s.rq = append(s.rq, keyRef{rkey: k, i: int32(i)})
		}
	}
	for i := len(s.rq)/2 - 1; i >= 0; i-- {
		s.rqDown(i)
	}
	s.exact = true
	for !s.stopped && s.executed-start < limit {
		it, ok := s.peek()
		for len(s.rq) > 0 && s.keys[s.rq[0].i].seq != s.rq[0].seq {
			s.rqPop() // claimed or dropped
		}
		if len(s.rq) > 0 && (!ok || s.rq[0].item().before(it)) {
			k := s.rq[0]
			if k.at > horizon {
				hitHorizon = true
				break
			}
			s.rqPop()
			s.freeKey(k.i)
			s.now, s.cur = k.at, k.seq+1
			s.executed++
			continue
		}
		if !ok {
			break
		}
		if it.at > horizon {
			hitHorizon = true
			break
		}
		s.fire()
	}
	s.exact = false
	s.rq = s.rq[:0]
	return s.executed - start, hitHorizon
}

// rqPush, rqPop and rqDown keep rq a binary min-heap.
func (s *Scheduler) rqPush(k keyRef) {
	s.rq = append(s.rq, k)
	for i := len(s.rq) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.rq[i].item().before(s.rq[p].item()) {
			break
		}
		s.rq[i], s.rq[p] = s.rq[p], s.rq[i]
		i = p
	}
}

func (s *Scheduler) rqPop() {
	last := len(s.rq) - 1
	s.rq[0] = s.rq[last]
	s.rq = s.rq[:last]
	s.rqDown(0)
}

func (s *Scheduler) rqDown(i int) {
	q := s.rq
	for {
		least, c := i, 2*i+1
		if c < len(q) && q[c].item().before(q[least].item()) {
			least = c
		}
		if c+1 < len(q) && q[c+1].item().before(q[least].item()) {
			least = c + 1
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// PendingCensus reports the number of pending (non-cancelled) events and
// reserved keys, and the earliest and latest pending timestamps. With
// none pending both timestamps are zero. It is the scheduler's
// contribution to the non-quiescence diagnosis: how much scheduled work
// remains and how far into virtual time it stretches.
func (s *Scheduler) PendingCensus() (n int, earliest, latest Time) {
	s.sweep()
	note := func(at Time) {
		if n == 0 || at < earliest {
			earliest = at
		}
		if n == 0 || at > latest {
			latest = at
		}
		n++
	}
	for _, it := range s.queue {
		// A heap item's event is followed by the entries waiting behind it
		// on its lane; a plain event's next is nil.
		for ev := it.ev; ev != nil; ev = ev.next {
			if ev.pending {
				note(ev.at)
			}
		}
	}
	for _, k := range s.keys {
		if k.seq != freeSeq {
			note(k.at)
		}
	}
	return n, earliest, latest
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Resume clears a previous Stop so the scheduler can run again.
func (s *Scheduler) Resume() { s.stopped = false }

// NextEventTime returns the timestamp of the earliest pending event or
// reserved key and whether one exists. Cancelled events that have
// surfaced are discarded on the way.
func (s *Scheduler) NextEventTime() (Time, bool) {
	s.sweep()
	it, ok := s.peek()
	at := it.at
	for _, k := range s.keys {
		if k.seq != freeSeq && (!ok || k.at < at) {
			at, ok = k.at, true
		}
	}
	return at, ok
}
