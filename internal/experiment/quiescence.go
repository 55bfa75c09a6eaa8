package experiment

import (
	"fmt"
	"strings"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
)

// Verdicts of the non-quiescence watchdog.
const (
	// VerdictOscillating: the network cycles through a small set of global
	// RIB states (a policy dispute à la Griffin's BAD GADGET); more budget
	// would not help.
	VerdictOscillating = "oscillating"
	// VerdictStillConverging: the network is making progress through fresh
	// routing states and simply ran out of budget or horizon.
	VerdictStillConverging = "still-converging"
)

// oscillationRecurrenceThreshold is how often the most revisited global
// RIB state must recur within a phase before the watchdog calls the run
// oscillating rather than still converging. Ordinary path exploration
// revisits a global state only a handful of times (per-node MRAI jitter
// decorrelates the revisits); a true dispute wheel revisits its cycle
// states once per rotation, unboundedly.
const oscillationRecurrenceThreshold = 8

// maxReportedTalkers bounds the top-talker list embedded in a
// QuiescenceFailure.
const maxReportedTalkers = 8

// QuiescenceFailure is the structured diagnosis produced when a phase
// exhausts its event budget or runs past the virtual-time horizon. It
// wraps ErrNoQuiescence (use errors.Is) and carries enough state to
// distinguish a genuinely divergent oscillation from a run that merely
// needs more budget.
type QuiescenceFailure struct {
	// Phase names the plan phase (or "initial convergence") that failed
	// to quiesce.
	Phase string
	// EventsExecuted is how many events the phase consumed out of
	// EventBudget before the watchdog fired.
	EventsExecuted uint64
	EventBudget    uint64
	// HorizonHit is true when the stop was the virtual-time horizon
	// rather than the event budget.
	HorizonHit bool
	// VirtualTime is the clock at the stop instant.
	VirtualTime des.Time
	// PendingEvents / NextEventAt / LastEventAt are the pending-event
	// census: how much scheduled work remained and how far into virtual
	// time it stretched.
	PendingEvents int
	NextEventAt   des.Time
	LastEventAt   des.Time
	// DistinctStates / MaxStateRecurrence / StatesDropped summarise the
	// oscillation probe over the failed phase: how many distinct global
	// RIB states were entered and how often the most revisited one
	// recurred.
	DistinctStates     int
	MaxStateRecurrence int
	StatesDropped      int
	// TopTalkers lists the phase's most update-active nodes.
	TopTalkers []bgp.NodeUpdates
	// Verdict is VerdictOscillating or VerdictStillConverging.
	Verdict string
}

// Error implements error. The message keeps the historical "did not
// quiesce within the event budget" phrasing so log scrapers keep working,
// then appends the diagnosis.
func (q *QuiescenceFailure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment: phase %q did not quiesce within the event budget", q.Phase)
	if q.HorizonHit {
		fmt.Fprintf(&b, " (virtual-time horizon reached at %v)", q.VirtualTime)
	} else {
		fmt.Fprintf(&b, " (%d/%d events)", q.EventsExecuted, q.EventBudget)
	}
	fmt.Fprintf(&b, ": verdict %s, %d pending events (next %v, last %v), %d distinct routing states, max recurrence %d",
		q.Verdict, q.PendingEvents, q.NextEventAt, q.LastEventAt, q.DistinctStates, q.MaxStateRecurrence)
	return b.String()
}

// cut names where the watchdog stopped the run.
func (q *QuiescenceFailure) cut() string {
	return fmt.Sprintf("phase %q after %d events at %v", q.Phase, q.EventsExecuted, q.VirtualTime)
}

// Unwrap makes errors.Is(err, ErrNoQuiescence) hold.
func (q *QuiescenceFailure) Unwrap() error { return ErrNoQuiescence }

// diagnoseQuiescenceFailure assembles the watchdog diagnosis from the
// scheduler's pending-event census and the oscillation probe's phase
// snapshot; without a probe, the cut alone.
func diagnoseQuiescenceFailure(phase string, sched *des.Scheduler, probe *bgp.OscillationProbe, budget, used uint64, hitHorizon bool) error {
	pending, earliest, latest := sched.PendingCensus()
	var stats bgp.OscillationStats
	if probe != nil {
		stats = probe.Snapshot(sched.Now())
	}
	talkers := stats.Talkers
	if len(talkers) > maxReportedTalkers {
		talkers = talkers[:maxReportedTalkers]
	}
	verdict := VerdictStillConverging
	if stats.MaxRecurrence >= oscillationRecurrenceThreshold {
		verdict = VerdictOscillating
	}
	return &QuiescenceFailure{
		Phase:              phase,
		EventsExecuted:     used,
		EventBudget:        budget,
		HorizonHit:         hitHorizon,
		VirtualTime:        sched.Now(),
		PendingEvents:      pending,
		NextEventAt:        earliest,
		LastEventAt:        latest,
		DistinctStates:     stats.DistinctStates,
		MaxStateRecurrence: stats.MaxRecurrence,
		StatesDropped:      stats.StatesDropped,
		TopTalkers:         talkers,
		Verdict:            verdict,
	}
}
