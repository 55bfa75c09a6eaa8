package netsim

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
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
