package netsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// transcriptTap writes every tap callback, in order, as one line.
type transcriptTap struct {
	sched *des.Scheduler
	lines []string
	lost  []uint64
}

func (p *transcriptTap) logf(format string, args ...any) {
	p.lines = append(p.lines, fmt.Sprintf("%v ", p.sched.Now())+fmt.Sprintf(format, args...))
}
func (p *transcriptTap) MessageSent(from, to topology.Node, id uint64) {
	p.logf("sent %d->%d #%d", from, to, id)
}
func (p *transcriptTap) MessageDelivered(from, to topology.Node, id uint64) {
	p.logf("delivered %d->%d #%d", from, to, id)
}
func (p *transcriptTap) MessageLost(a, b topology.Node, id uint64) {
	p.logf("lost [%d %d] #%d", a, b, id)
	p.lost = append(p.lost, id)
}
func (p *transcriptTap) SessionDown(a, b topology.Node) { p.logf("down [%d %d]", a, b) }
func (p *transcriptTap) SessionUp(a, b topology.Node)   { p.logf("up [%d %d]", a, b) }

// TestFailDestroysInflightBothDirections fails a link with undelivered
// messages on both of its directions, interleaved in send order with
// traffic that was already delivered and traffic on another link. The
// destroyed messages are reported in ascending message id across the two
// directions — the order the id-keyed map of the previous implementation
// was drained in, recorded from it before the per-link FIFOs went in.
func TestFailDestroysInflightBothDirections(t *testing.T) {
	sched, net, recs := build(t, topology.Clique(3), 2*time.Millisecond)
	tap := &transcriptTap{sched: sched}
	net.SetTap(tap)
	send := func(from, to topology.Node) {
		t.Helper()
		if err := net.Send(from, to, fmt.Sprintf("%d->%d", from, to)); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1) // #0, delivered before the failure
	send(1, 0) // #1, delivered before the failure
	sched.RunUntil(time.Millisecond)
	send(0, 1) // #2
	send(1, 0) // #3
	send(0, 2) // #4, another link
	sched.RunUntil(2500 * time.Microsecond)
	send(1, 0) // #5
	send(0, 1) // #6
	send(1, 0) // #7
	net.Fail(topology.Edge{A: 1, B: 0})
	sched.Run()

	if got, want := fmt.Sprint(tap.lost), "[2 3 5 6 7]"; got != want {
		t.Errorf("lost ids in order %s, want %s", got, want)
	}
	if st := net.Stats(); st.Sent != 8 || st.Delivered != 3 || st.Lost != 5 {
		t.Errorf("stats %+v, want 8 sent, 3 delivered, 5 lost", st)
	}
	if len(recs[0].deliveries) != 1 || len(recs[1].deliveries) != 1 || len(recs[2].deliveries) != 1 {
		t.Errorf("deliveries at 0/1/2 = %d/%d/%d, want one each",
			len(recs[0].deliveries), len(recs[1].deliveries), len(recs[2].deliveries))
	}
}

// TestImpairedTranscriptPinned drives a seeded send script over lossy,
// reordering, jittered links through a failure, a restore and a session
// kill, and pins the whole tap transcript — every send, delivery and loss
// with its instant and id — to the digest the map-based in-flight tracking
// produced. Under impairment the in-order clamp makes many deliveries on a
// directed link share an instant, so this is where popping anything but
// the FIFO head, or draining a failed link in another order, would show.
func TestImpairedTranscriptPinned(t *testing.T) {
	sched, net, _ := build(t, topology.Clique(3), 2*time.Millisecond)
	tap := &transcriptTap{sched: sched}
	net.SetTap(tap)
	net.SetImpairment(transport.NewModel(des.NewRNG(5), &transport.Config{
		Loss: 0.3, ReorderProb: 0.4, ReorderWindow: 20 * time.Millisecond, Jitter: 3 * time.Millisecond,
		RTOInitial: 10 * time.Millisecond, MaxRetries: 2,
	}))
	rng := rand.New(rand.NewSource(9))
	at(t, net, 40*time.Millisecond, net.Fail, topology.Edge{A: 0, B: 1})
	at(t, net, 55*time.Millisecond, net.Restore, topology.Edge{A: 0, B: 1})
	at(t, net, 70*time.Millisecond, func(e topology.Edge) { net.KillSession(e.A, e.B) }, topology.Edge{A: 1, B: 2})
	refused := 0
	for i := 0; i < 400; i++ {
		sched.RunUntil(des.Time(i) * 250 * time.Microsecond)
		from := topology.Node(rng.Intn(3))
		to := (from + 1 + topology.Node(rng.Intn(2))) % 3
		if err := net.Send(from, to, i); err != nil {
			refused++
		}
	}
	sched.Run()

	h := sha256.New()
	for _, line := range tap.lines {
		fmt.Fprintln(h, line)
	}
	st := net.Stats()
	got := fmt.Sprintf("%x refused=%d lostIDs=%d %+v", h.Sum(nil)[:8], refused, len(tap.lost), st)
	const want = "43098ae3f2212b88 refused=16 lostIDs=88 {Sent:384 Delivered:296 Lost:88 Dropped:15 Duplicated:0 Reordered:162 Retransmitted:150}"
	if got != want {
		t.Errorf("transcript\n  got  %s\n  want %s", got, want)
	}
	if st.Sent != st.Delivered+st.Lost {
		t.Errorf("conservation broken: %+v", st)
	}
}

// queueTap keeps the ids the tap reports sent and, in order, lost.
type queueTap struct{ sent, lost []uint64 }

func (q *queueTap) MessageSent(_, _ topology.Node, id uint64)     { q.sent = append(q.sent, id) }
func (q *queueTap) MessageDelivered(_, _ topology.Node, _ uint64) {}
func (q *queueTap) MessageLost(_, _ topology.Node, id uint64)     { q.lost = append(q.lost, id) }
func (q *queueTap) SessionDown(_, _ topology.Node)                {}
func (q *queueTap) SessionUp(_, _ topology.Node)                  {}

// queueHandler hands a delivery to the oracle.
type queueHandler func(from topology.Node, payload any)

func (h queueHandler) Deliver(from topology.Node, payload any) { h(from, payload) }
func (queueHandler) PeerDown(topology.Node)                    {}
func (queueHandler) PeerUp(topology.Node)                      {}

// inflightDiff runs a case on Clique(4) and on the bookkeeping the flight
// pool replaced, one slice queue of message ids per directed link kept
// here, and returns the first difference, or "". The first byte turns an
// impairment model on (bit 0) and seeds it; then each byte is an operation
// on the link from a = bits 3-4 to a+1+(bits 5-7 mod 3), mod 4:
//
//	kind 0-3  Send a->b, its payload the id the message must get
//	kind 4    Fail
//	kind 5    Restore
//	kind 6    KillSession
//	kind 7    run until the next byte times 50µs from now
//
// After every operation the deliveries so far must have come in queue
// order, the tap's MessageLost sequence must be the queues' drains (each
// failure's two directions merged by id, a transport drop at its send),
// and the Stats counters must match the oracle's.
func inflightDiff(data []byte) string {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sched := des.NewScheduler()
	net := New(sched, topology.Clique(4), 2*time.Millisecond)
	tap := &queueTap{}
	net.SetTap(tap)
	if head := next(); head&1 == 1 {
		net.SetImpairment(transport.NewModel(des.NewRNG(int64(head>>1)), &transport.Config{
			Loss: 0.3, Duplicate: 0.1, ReorderProb: 0.4, ReorderWindow: 20 * time.Millisecond,
			Jitter: 3 * time.Millisecond, RTOInitial: 10 * time.Millisecond, MaxRetries: 2,
		}))
	}
	var (
		queues          [4][4][]uint64
		down            [4][4]bool
		wantLost        []uint64
		delivered, lost int
		diff            string
	)
	for v := topology.Node(0); v < 4; v++ {
		net.Attach(v, queueHandler(func(from topology.Node, payload any) {
			q := &queues[from][v]
			if id := payload.(uint64); len(*q) == 0 || (*q)[0] != id {
				if diff == "" {
					diff = fmt.Sprintf("message %d delivered on %d->%d, oracle queue %v", id, from, v, *q)
				}
				return
			}
			*q = (*q)[1:]
			delivered++
		}))
	}
	// drain destroys both directions' queues of link (a, b), merged by id.
	drain := func(a, b topology.Node) {
		x, y := queues[a][b], queues[b][a]
		for len(x) > 0 || len(y) > 0 {
			if len(x) == 0 || len(y) > 0 && y[0] < x[0] {
				x, y = y, x
			}
			wantLost, x = append(wantLost, x[0]), x[1:]
			lost++
		}
		queues[a][b], queues[b][a] = nil, nil
	}
	check := func() string {
		if diff != "" {
			return diff
		}
		inflight := 0
		for a := range queues {
			for b := range queues[a] {
				inflight += len(queues[a][b])
			}
		}
		st := net.Stats()
		if st.Sent != len(tap.sent) || st.Delivered != delivered || st.Lost != lost || st.Sent != delivered+lost+inflight {
			return fmt.Sprintf("stats %+v, oracle %d sent, %d delivered, %d lost, %d in flight", st, len(tap.sent), delivered, lost, inflight)
		}
		if !slices.Equal(tap.lost, wantLost) {
			return fmt.Sprintf("lost ids %v, oracle %v", tap.lost, wantLost)
		}
		return ""
	}
	for step := 0; len(data) > 0; step++ {
		op := next()
		a := topology.Node(op >> 3 % 4)
		b := (a + 1 + topology.Node(op>>5%3)) % 4
		e := topology.Edge{A: a, B: b}
		var desc string
		switch op % 8 {
		case 0, 1, 2, 3:
			id := uint64(len(tap.sent))
			desc = fmt.Sprintf("Send(%d, %d) #%d", a, b, id)
			err := net.Send(a, b, id)
			switch {
			case down[a][b]:
				if !errors.Is(err, ErrLinkDown) {
					return fmt.Sprintf("step %d, %s on a failed link: err %v", step, desc, err)
				}
			case err != nil:
				return fmt.Sprintf("step %d, %s: %v", step, desc, err)
			case len(tap.lost) > len(wantLost):
				wantLost = append(wantLost, id) // dropped by the transport at once
				lost++
			default:
				queues[a][b] = append(queues[a][b], id)
			}
		case 4:
			desc = fmt.Sprintf("Fail(%v)", e)
			net.Fail(e)
			if !down[a][b] {
				drain(a, b)
				down[a][b], down[b][a] = true, true
			}
		case 5:
			desc = fmt.Sprintf("Restore(%v)", e)
			net.Restore(e)
			down[a][b], down[b][a] = false, false
		case 6:
			desc = fmt.Sprintf("KillSession(%d, %d)", a, b)
			net.KillSession(a, b)
			if !down[a][b] {
				drain(a, b)
			}
		default:
			d := des.Time(next()) * 50 * time.Microsecond
			desc = fmt.Sprintf("RunUntil(+%v)", d)
			sched.RunUntil(sched.Now() + d)
		}
		if d := check(); d != "" {
			return fmt.Sprintf("step %d, %s: %s", step, desc, d)
		}
	}
	sched.Run()
	if d := check(); d != "" {
		return "at quiescence: " + d
	}
	if delivered+lost != len(tap.sent) {
		return fmt.Sprintf("at quiescence: %d sent, %d delivered, %d lost", len(tap.sent), delivered, lost)
	}
	return ""
}

// FuzzInflightMatchesQueues checks the network's flight pool against
// per-link slice queues (see inflightDiff), on clean and impaired links.
// The seeded cases run under go test.
func FuzzInflightMatchesQueues(f *testing.F) {
	f.Add([]byte{0, 0, 8, 16, 7, 20, 4, 7, 40, 5, 0, 7, 200})
	f.Add([]byte{3, 0, 0, 8, 8, 6, 7, 3, 1, 9, 4, 5, 7, 100, 14, 7, 255})
	// A burst of 150 sends over every link keeps more than a pool chunk in
	// flight before a failure, a session kill and a run drain it.
	burst := []byte{0}
	for i := 0; i < 150; i++ {
		burst = append(burst, byte(i%4|i%4<<3|i/4%3<<5))
	}
	burst = append(burst, 4, 6|1<<3, 7, 255)
	f.Add(burst)
	f.Add(append([]byte{1}, burst[1:]...))
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 64; i++ {
		data := make([]byte, 1+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		if diff := inflightDiff(data); diff != "" {
			t.Fatal(diff)
		}
	})
}
