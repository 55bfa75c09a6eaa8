package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/invariant"
)

func TestQuiescenceFailureOscillating(t *testing.T) {
	_, err := Run(BadGadget(30_000))
	if err == nil {
		t.Fatal("BAD GADGET quiesced; it must not have a stable solution")
	}
	if !errors.Is(err, ErrNoQuiescence) {
		t.Fatalf("err = %v, want ErrNoQuiescence in the chain", err)
	}
	var qf *QuiescenceFailure
	if !errors.As(err, &qf) {
		t.Fatalf("err = %T, want *QuiescenceFailure", err)
	}
	if qf.Phase != "initial convergence" {
		t.Errorf("Phase = %q, want \"initial convergence\"", qf.Phase)
	}
	if qf.Verdict != VerdictOscillating {
		t.Errorf("Verdict = %q, want %q (recurrence %d over %d states)",
			qf.Verdict, VerdictOscillating, qf.MaxStateRecurrence, qf.DistinctStates)
	}
	if qf.MaxStateRecurrence < oscillationRecurrenceThreshold {
		t.Errorf("MaxStateRecurrence = %d, want >= %d", qf.MaxStateRecurrence, oscillationRecurrenceThreshold)
	}
	if qf.PendingEvents <= 0 {
		t.Errorf("PendingEvents = %d, want > 0 (the dispute keeps scheduling work)", qf.PendingEvents)
	}
	if qf.NextEventAt <= 0 || qf.LastEventAt < qf.NextEventAt {
		t.Errorf("census window [%v, %v] is not sane", qf.NextEventAt, qf.LastEventAt)
	}
	if len(qf.TopTalkers) == 0 {
		t.Error("TopTalkers is empty; the oscillating ring nodes must appear")
	}
	if qf.HorizonHit {
		t.Error("HorizonHit = true, want false (the event budget fired, no horizon set)")
	}
	if qf.EventsExecuted == 0 || qf.EventBudget == 0 {
		t.Errorf("budget accounting = %d/%d, want both positive", qf.EventsExecuted, qf.EventBudget)
	}
}

func TestQuiescenceFailureStillConverging(t *testing.T) {
	// A well-behaved clique cut off at a tiny budget: plenty of work left,
	// but every routing state is fresh — the diagnosis must not call it
	// oscillating.
	s := CliqueTDown(8, bgp.DefaultConfig(), 3)
	s.MaxEvents = 50
	_, err := Run(s)
	if err == nil {
		t.Fatal("expected the 50-event budget to be exhausted")
	}
	var qf *QuiescenceFailure
	if !errors.As(err, &qf) {
		t.Fatalf("err = %T, want *QuiescenceFailure", err)
	}
	if qf.Verdict != VerdictStillConverging {
		t.Errorf("Verdict = %q, want %q (recurrence %d)", qf.Verdict, VerdictStillConverging, qf.MaxStateRecurrence)
	}
}

func TestQuiescenceFailureHorizon(t *testing.T) {
	// Speaker processing alone takes 0.1-0.5 s per update, so a 50 ms
	// horizon fires during initial convergence.
	s := CliqueTDown(6, bgp.DefaultConfig(), 5)
	s.Horizon = 50 * time.Millisecond
	_, err := Run(s)
	if err == nil {
		t.Fatal("expected the 50ms horizon to abort the run")
	}
	if !errors.Is(err, ErrNoQuiescence) {
		t.Fatalf("err = %v, want ErrNoQuiescence in the chain", err)
	}
	var qf *QuiescenceFailure
	if !errors.As(err, &qf) {
		t.Fatalf("err = %T, want *QuiescenceFailure", err)
	}
	if !qf.HorizonHit {
		t.Error("HorizonHit = false, want true")
	}
	if qf.VirtualTime > 50*time.Millisecond {
		t.Errorf("VirtualTime = %v, want <= the 50ms horizon (clock must not run past it)", qf.VirtualTime)
	}
	if qf.NextEventAt <= 50*time.Millisecond {
		t.Errorf("NextEventAt = %v, want beyond the horizon", qf.NextEventAt)
	}
}

func TestPhaseEventBudget(t *testing.T) {
	// The per-phase budget trips even though the global budget is ample.
	s := CliqueTDown(8, bgp.DefaultConfig(), 3)
	s.PhaseEventBudget = 50
	_, err := Run(s)
	if err == nil {
		t.Fatal("expected the 50-event phase budget to be exhausted")
	}
	var qf *QuiescenceFailure
	if !errors.As(err, &qf) {
		t.Fatalf("err = %T, want *QuiescenceFailure", err)
	}
	if qf.EventBudget != 50 {
		t.Errorf("EventBudget = %d, want the 50-event phase budget", qf.EventBudget)
	}
}

func TestQuiescenceFailureMessage(t *testing.T) {
	s := CliqueTDown(8, bgp.DefaultConfig(), 3)
	s.MaxEvents = 50
	_, err := Run(s)
	if err == nil {
		t.Fatal("expected a quiescence failure")
	}
	msg := err.Error()
	for _, want := range []string{
		"did not quiesce within the event budget", // historical phrasing
		"verdict still-converging",
		"pending events",
		"distinct routing states",
	} {
		if !contains(msg, want) {
			t.Errorf("error message %q lacks %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// countdownCtx is a deterministic cancellation: Err reports nil for the
// first polls calls and context.Canceled from then on. seen counts calls.
type countdownCtx struct {
	context.Context
	polls, seen int
}

func (c *countdownCtx) Err() error {
	c.seen++
	if c.seen > c.polls {
		return context.Canceled
	}
	return nil
}

// TestRediagnoseCancellation cancels a cut run at every one of its
// watchdog polls. The cut run and its diagnosis re-run poll alike, so the
// second half of the polls falls in the re-run: there too the error must
// wrap context.Canceled and carry no diagnosis.
func TestRediagnoseCancellation(t *testing.T) {
	s := BadGadget(3*quiescenceChunk - 1) // three chunks, so three polls per run
	all := &countdownCtx{Context: context.Background(), polls: math.MaxInt}
	_, want := RunContext(all, s)
	if !errors.As(want, new(*QuiescenceFailure)) {
		t.Fatalf("uncanceled run: error %v, want a watchdog cut", want)
	}
	n := all.seen
	if n != 6 {
		t.Fatalf("cut run and re-run polled %d times, want 3 each", n)
	}
	for k := 0; k < n; k++ {
		_, err := RunContext(&countdownCtx{Context: context.Background(), polls: k}, s)
		if !errors.Is(err, context.Canceled) || errors.As(err, new(*QuiescenceFailure)) {
			t.Errorf("canceled at poll %d of %d: error %v, want one wrapping context.Canceled and no diagnosis", k+1, n, err)
		}
	}
	_, err := RunContext(&countdownCtx{Context: context.Background(), polls: n}, s)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("canceled after the last poll: error %v, want the diagnosis %v", err, want)
	}
}

// TestSameCut checks the comparison that keeps a diagnosis re-run honest:
// only a re-run stopped in the same phase, after the same events, at the
// same virtual time gives the diagnosis; a cancellation passes through;
// anything else is an error naming both cuts that carries no diagnosis.
func TestSameCut(t *testing.T) {
	cut := &QuiescenceFailure{Phase: "failure", EventsExecuted: 4000, EventBudget: 4000, VirtualTime: 3 * time.Second, PendingEvents: 9}
	diag := *cut
	diag.DistinctStates, diag.MaxStateRecurrence, diag.Verdict = 12, 3, VerdictStillConverging
	if got := sameCut(cut, &diag); got != error(&diag) {
		t.Errorf("same cut: got %v, want the re-run's diagnosis", got)
	}
	canceled := fmt.Errorf("experiment: run canceled during failure: %w", context.Canceled)
	if got := sameCut(cut, canceled); got != canceled {
		t.Errorf("canceled re-run: got %v, want its error as is", got)
	}
	late := fmt.Errorf("experiment: run canceled during failure: %w", context.DeadlineExceeded)
	if got := sameCut(cut, late); got != late {
		t.Errorf("timed-out re-run: got %v, want its error as is", got)
	}
	moved := func(f func(q *QuiescenceFailure)) *QuiescenceFailure {
		q := diag
		f(&q)
		return &q
	}
	for _, c := range []struct {
		name  string
		rerun error
		names []string
	}{
		{"other phase", moved(func(q *QuiescenceFailure) { q.Phase = "recovery" }), []string{`phase "recovery"`, `phase "failure"`}},
		{"other events", moved(func(q *QuiescenceFailure) { q.EventsExecuted = 3999 }), []string{"after 3999 events", "after 4000 events"}},
		{"other time", moved(func(q *QuiescenceFailure) { q.VirtualTime = 2 * time.Second }), []string{"at 2s", "at 3s"}},
		{"quiesced", nil, []string{cut.cut()}},
		{"violation", &invariant.ViolationError{V: invariant.Violation{ID: "rib-fib-coherence"}}, []string{cut.cut(), "rib-fib-coherence"}},
	} {
		err := sameCut(cut, c.rerun)
		if err == nil || errors.As(err, new(*QuiescenceFailure)) || errors.Is(err, ErrNoQuiescence) {
			t.Errorf("%s: got %v, want an error without a diagnosis", c.name, err)
			continue
		}
		for _, want := range c.names {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", c.name, err, want)
			}
		}
	}
}
