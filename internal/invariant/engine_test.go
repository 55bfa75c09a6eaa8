package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustViolation(t *testing.T, e *Engine, wantID string) *ViolationError {
	t.Helper()
	err := e.Err()
	if err == nil {
		t.Fatalf("expected a %s violation, engine is clean", wantID)
	}
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("Err() = %T, want *ViolationError", err)
	}
	if ve.V.ID != wantID {
		t.Fatalf("violation ID = %q, want %q (detail: %s)", ve.V.ID, wantID, ve.V.Detail)
	}
	return ve
}

func TestClockMonotonicity(t *testing.T) {
	e := New()
	e.NoteExec(1 * time.Second)
	e.NoteExec(1 * time.Second) // equal timestamps are legal
	e.NoteExec(2 * time.Second)
	if err := e.Err(); err != nil {
		t.Fatalf("monotone sequence flagged: %v", err)
	}
	e.NoteExec(1500 * time.Millisecond)
	ve := mustViolation(t, e, "des-clock-monotonic")
	if ve.V.At != 1500*time.Millisecond {
		t.Fatalf("violation At = %v, want 1.5s", ve.V.At)
	}
}

func TestChannelFIFO(t *testing.T) {
	e := New()
	e.NoteSend(0, 1, 2, 10)
	e.NoteSend(0, 1, 2, 11)
	e.NoteSend(0, 2, 1, 12) // reverse direction: independent channel
	e.NoteDeliver(time.Second, 1, 2, 10)
	e.NoteDeliver(time.Second, 2, 1, 12)
	if err := e.Err(); err != nil {
		t.Fatalf("in-order delivery flagged: %v", err)
	}
	// id 11 after 10 is fine; replaying 10 is a FIFO breach.
	e.NoteDeliver(2*time.Second, 1, 2, 11)
	if err := e.Err(); err != nil {
		t.Fatalf("in-order delivery flagged: %v", err)
	}
	e.NoteDeliver(3*time.Second, 1, 2, 10)
	ve := mustViolation(t, e, "channel-fifo")
	if ve.V.Node != 1 || ve.V.Peer != 2 {
		t.Fatalf("violation endpoints = (%d,%d), want (1,2)", ve.V.Node, ve.V.Peer)
	}
	if len(ve.V.Trail) == 0 {
		t.Fatal("FIFO violation carries no trail")
	}
}

// TestFIFOEpochExemption checks the per-session-epoch reading of the FIFO
// invariant: a session transition resets the watermark, so an older id
// delivered in a *new* epoch is legal, while the same inversion within one
// epoch stays a violation (TestChannelFIFO).
func TestFIFOEpochExemption(t *testing.T) {
	e := New()
	e.NoteSend(0, 1, 2, 10)
	e.NoteSend(0, 1, 2, 11)
	e.NoteDeliver(time.Second, 1, 2, 11)
	// Session bounce between the deliveries: new epoch, new watermark.
	e.NoteSessionDown(2*time.Second, 1, 2)
	e.NoteSessionUp(2*time.Second, 1, 2)
	e.NoteDeliver(3*time.Second, 1, 2, 10)
	if err := e.Err(); err != nil {
		t.Fatalf("cross-epoch delivery flagged: %v", err)
	}
	// Within the new epoch the contract applies again.
	e.NoteDeliver(4*time.Second, 1, 2, 10)
	mustViolation(t, e, "channel-fifo")
}

// TestRegisterBoundary checks boundary-only checks run at PhaseBoundary
// and never during sweeps.
func TestRegisterBoundary(t *testing.T) {
	e := New()
	calls := 0
	e.RegisterBoundary("session-withdrawal-completeness", func() *Violation {
		calls++
		return &Violation{Node: 1, Peer: 2, Detail: "stale route"}
	})
	e.NoteExec(time.Second) // full-cadence sweep: boundary checks must not run
	if calls != 0 {
		t.Fatalf("boundary check ran during a sweep (%d calls)", calls)
	}
	if err := e.Err(); err != nil {
		t.Fatalf("premature violation: %v", err)
	}
	e.PhaseBoundary(2*time.Second, "main")
	if calls != 1 {
		t.Fatalf("boundary check ran %d times at the boundary, want 1", calls)
	}
	ve := mustViolation(t, e, "session-withdrawal-completeness")
	if ve.V.At != 2*time.Second {
		t.Fatalf("violation At = %v, want the boundary instant", ve.V.At)
	}
}

func TestConservationInequality(t *testing.T) {
	e := New()
	// Deliver a message that was never sent: delivered > sent.
	e.NoteDeliver(time.Second, 3, 4, 7)
	e.PhaseBoundary(time.Second, "main")
	mustViolation(t, e, "message-conservation")
}

func TestConservationEqualityAtBoundary(t *testing.T) {
	e := New()
	e.NoteSend(0, 1, 2, 1)
	e.NoteSend(0, 1, 2, 2)
	e.NoteDeliver(time.Second, 1, 2, 1)
	// One message still in flight: legal mid-run...
	e.NoteExec(time.Second)
	if err := e.Err(); err != nil {
		t.Fatalf("in-flight message flagged mid-run: %v", err)
	}
	// ...but not at a phase boundary.
	e.PhaseBoundary(2*time.Second, "main")
	ve := mustViolation(t, e, "message-conservation")
	if !strings.Contains(ve.V.Detail, "in flight at quiescence") {
		t.Fatalf("unexpected detail: %s", ve.V.Detail)
	}
}

func TestConservationCountsLost(t *testing.T) {
	e := New()
	e.NoteSend(0, 1, 2, 1)
	e.NoteSend(0, 2, 1, 2) // opposite direction shares the undirected channel
	e.NoteDeliver(time.Second, 1, 2, 1)
	e.NoteLost(2*time.Second, 1, 2, 2)
	e.PhaseBoundary(3*time.Second, "main")
	if err := e.Err(); err != nil {
		t.Fatalf("delivered+lost==sent flagged: %v", err)
	}
}

func TestMRAISoundness(t *testing.T) {
	e := New()
	e.SetMRAIWindow(10 * time.Second)
	e.NoteUpdate(0, 1, 2, 0, false)
	e.NoteUpdate(5*time.Second, 1, 2, 5, false) // other dest: independent window
	e.NoteUpdate(5*time.Second, 1, 2, 0, true)  // withdrawal: exempt
	e.NoteUpdate(10*time.Second, 1, 2, 0, false)
	if err := e.Err(); err != nil {
		t.Fatalf("legal announcement cadence flagged: %v", err)
	}
	e.NoteUpdate(15*time.Second, 1, 2, 0, false)
	ve := mustViolation(t, e, "mrai-soundness")
	if ve.V.Node != 1 || ve.V.Peer != 2 {
		t.Fatalf("violation endpoints = (%d,%d), want (1,2)", ve.V.Node, ve.V.Peer)
	}
}

func TestMRAIClearsOnSessionTransition(t *testing.T) {
	e := New()
	e.SetMRAIWindow(10 * time.Second)
	e.NoteUpdate(0, 1, 2, 0, false)
	e.NoteSessionDown(time.Second, 2, 1)
	e.NoteSessionUp(2*time.Second, 2, 1)
	// Fresh session: the speaker re-advertises immediately and legally.
	e.NoteUpdate(2*time.Second, 1, 2, 0, false)
	if err := e.Err(); err != nil {
		t.Fatalf("post-reset announcement flagged: %v", err)
	}
}

func TestMRAISameInstantIsLegal(t *testing.T) {
	e := New()
	e.SetMRAIWindow(10 * time.Second)
	// The continuous MRAI model may flush several best-path changes at
	// one tick instant; equal timestamps must not trip the check.
	e.NoteUpdate(5*time.Second, 1, 2, 0, false)
	e.NoteUpdate(5*time.Second, 1, 2, 0, false)
	if err := e.Err(); err != nil {
		t.Fatalf("same-instant announcements flagged: %v", err)
	}
	e.NoteUpdate(7*time.Second, 1, 2, 0, false)
	mustViolation(t, e, "mrai-soundness")
}

func TestMRAIDisabledWindow(t *testing.T) {
	e := New()
	// Window 0 = MRAI disabled; back-to-back announcements are legal.
	e.NoteUpdate(0, 1, 2, 0, false)
	e.NoteUpdate(0, 1, 2, 0, false)
	if err := e.Err(); err != nil {
		t.Fatalf("announcements with MRAI disabled flagged: %v", err)
	}
}

func TestRegisteredCheckViolation(t *testing.T) {
	e := New()
	e.SetStateDigest(func() []string { return []string{"node=1 best=[1 0]"} })
	e.NoteDeliver(time.Second, 0, 1, 1)
	e.Register("rib-fib-coherence", func() *Violation {
		return &Violation{Node: 1, Peer: NoNode, Detail: "RIB next hop 0 != FIB next hop none"}
	})
	e.NoteExec(2 * time.Second)
	ve := mustViolation(t, e, "rib-fib-coherence")
	if ve.V.At != 2*time.Second {
		t.Fatalf("violation At = %v, want 2s (engine-stamped)", ve.V.At)
	}
	if len(ve.V.Trail) == 0 {
		t.Fatal("violation carries no trail")
	}
	if len(ve.RIBDigests) != 1 || ve.RIBDigests[0] != "node=1 best=[1 0]" {
		t.Fatalf("RIB digests = %v", ve.RIBDigests)
	}
}

func TestEngineFreezesOnFirstViolation(t *testing.T) {
	e := New()
	e.NoteExec(2 * time.Second)
	e.NoteExec(1 * time.Second) // first violation: monotonicity
	first := mustViolation(t, e, "des-clock-monotonic")
	// A later, different breach must not replace the first diagnosis.
	e.NoteDeliver(3*time.Second, 1, 2, 5)
	e.NoteDeliver(4*time.Second, 1, 2, 4)
	again := mustViolation(t, e, "des-clock-monotonic")
	if first != again {
		t.Fatal("violation was replaced after freeze")
	}
}

func TestTrailRingWraps(t *testing.T) {
	e := New()
	for i := 0; i < trailSize+6; i++ {
		e.NoteDeliver(time.Duration(i)*time.Second, 0, 1, uint64(i+1))
	}
	trail := e.Trail()
	if len(trail) != trailSize {
		t.Fatalf("trail length = %d, want %d", len(trail), trailSize)
	}
	for i, entry := range trail {
		if want := fmt.Sprintf("msg %d", i+7); entry.Detail != want {
			t.Fatalf("trail[%d] = %q, want %q (oldest-first order broken)", i, entry.Detail, want)
		}
	}
}

func TestCapturePanic(t *testing.T) {
	e := New()
	e.SetStateDigest(func() []string { return []string{"node=0 best=nil"} })
	e.NoteDeliver(time.Second, 0, 1, 1)
	pe := e.CapturePanic(fmt.Errorf("boom at %v", 3*time.Second), []byte("stack"))
	if pe.Value != "boom at 3s" {
		t.Fatalf("panic value = %q", pe.Value)
	}
	if len(pe.Trail) != 1 || pe.Stack != "stack" || len(pe.RIBDigests) != 1 {
		t.Fatalf("forensic context incomplete: %+v", pe)
	}
}

func TestCapturePanicDigestPanics(t *testing.T) {
	e := New()
	e.SetStateDigest(func() []string { panic("corrupt state") })
	pe := e.CapturePanic("boom", nil)
	if len(pe.RIBDigests) != 1 || !strings.Contains(pe.RIBDigests[0], "digest panic") {
		t.Fatalf("digest panic not absorbed: %v", pe.RIBDigests)
	}
}

func TestUnreachablePanics(t *testing.T) {
	defer func() {
		r := recover()
		ue, ok := r.(*UnreachableError)
		if !ok {
			t.Fatalf("recovered %T, want *UnreachableError", r)
		}
		if ue.ID != "test-site" || !strings.Contains(ue.Error(), "impossible") {
			t.Fatalf("unexpected error: %v", ue)
		}
	}()
	Unreachable("test-site", "impossible state reached")
}

func TestParseCadence(t *testing.T) {
	for _, s := range []string{"", "off", "full"} {
		if _, err := ParseCadence(s); err != nil {
			t.Fatalf("ParseCadence(%q): %v", s, err)
		}
	}
	for _, s := range []string{"phase", "every-n", "sometimes"} {
		if _, err := ParseCadence(s); err == nil || !strings.Contains(err.Error(), "want off or full") {
			t.Fatalf("ParseCadence(%q) = %v, want an off-or-full refusal", s, err)
		}
	}
	if c := FromEnv("full"); c != CadenceFull {
		t.Fatalf("FromEnv(full) = %q", c)
	}
	for _, v := range []string{"nonsense", "phase", "every-n"} {
		if c := FromEnv(v); c != CadenceOff {
			t.Fatalf("FromEnv(%s) = %q, want off", v, c)
		}
	}
	if (Config{}).Enabled() || (Config{Cadence: CadenceOff}).Enabled() {
		t.Fatal("off/unset config reports enabled")
	}
	if !(Config{Cadence: CadenceFull}).Enabled() {
		t.Fatal("full config reports disabled")
	}
}
