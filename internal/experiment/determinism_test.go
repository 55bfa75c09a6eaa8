package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/invariant"
	"bgploop/internal/topology"
	"bgploop/internal/trace"
)

// runDigest executes the scenario and collapses everything observable —
// the full protocol event trace and every measured metric — into one
// digest. Two runs of the same seed must produce byte-identical digests;
// this is the reproducibility contract detlint enforces statically,
// checked dynamically.
func runDigest(t *testing.T, s Scenario) string {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if res.Trace == nil {
		t.Fatal("scenario must set TraceLimit so the digest covers the event schedule")
	}
	for _, e := range res.Trace.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d dropped\n", res.Trace.Dropped())
	// The trace pointer itself is identity, not data; digest the rest of
	// the result via JSON (map-free, so encoding is deterministic too).
	trace := res.Trace
	res.Trace = nil
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	res.Trace = trace
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()+string(blob))))
}

// TestSameSeedSameDigest is the regression test for the determinism
// contract: the same scenario and seed replays the exact event order,
// FIB evolution, and metrics. It would have caught, e.g., the map-order
// iteration over in-flight messages in netsim.failLinkNow.
func TestSameSeedSameDigest(t *testing.T) {
	scenarios := []struct {
		name string
		s    Scenario
	}{
		{"figure1-tlong", TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), 7)},
		{"clique6-tdown", TDownScenario(topology.Clique(6), 0, bgp.DefaultConfig(), 21)},
	}
	for _, tt := range scenarios {
		t.Run(tt.name, func(t *testing.T) {
			tt.s.TraceLimit = 1 << 20
			first := runDigest(t, tt.s)
			for i := 0; i < 2; i++ {
				if again := runDigest(t, tt.s); again != first {
					t.Fatalf("run %d digest %s != first run %s: same seed replayed differently", i+2, again, first)
				}
			}
		})
	}
}

// TestDifferentSeedDifferentSchedule guards the test above against
// vacuity: if the digest ignored the schedule, distinct seeds (distinct
// jitter and processing delays) would still collide.
func TestDifferentSeedDifferentSchedule(t *testing.T) {
	a := TDownScenario(topology.Clique(6), 0, bgp.DefaultConfig(), 21)
	b := TDownScenario(topology.Clique(6), 0, bgp.DefaultConfig(), 22)
	a.TraceLimit = 1 << 20
	b.TraceLimit = 1 << 20
	if runDigest(t, a) == runDigest(t, b) {
		t.Fatal("digests insensitive to the seed; the determinism test is vacuous")
	}
}

// TestCanonicalPlanByteIdentical is the compatibility contract of the
// fault-plan engine: expressing a legacy single-event scenario as its
// explicit canonical plan must replay the exact event schedule and
// reproduce every metric byte for byte. This covers the plain events, the
// recovery phase, and damping pre-flap cycles.
func TestCanonicalPlanByteIdentical(t *testing.T) {
	flapped := TDownScenario(topology.Clique(5), 0, bgp.DefaultConfig(), 11)
	flapped.FlapCycles = 2
	flapped.RestoreDelay = 2 * time.Second
	flapped.BGP.Damping = true

	recovered := TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), 7)
	recovered.RestoreDelay = time.Second

	scenarios := []struct {
		name string
		s    Scenario
	}{
		{"figure1-tlong", TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), 7)},
		{"clique6-tdown", TDownScenario(topology.Clique(6), 0, bgp.DefaultConfig(), 21)},
		{"figure1-tlong-recovery", recovered},
		{"clique5-tdown-flap-damping", flapped},
	}
	for _, tt := range scenarios {
		t.Run(tt.name, func(t *testing.T) {
			tt.s.TraceLimit = 1 << 20
			legacy := runDigest(t, tt.s)

			planned := tt.s
			plan, err := CanonicalPlan(tt.s)
			if err != nil {
				t.Fatal(err)
			}
			planned.FaultPlan = plan
			if got := runDigest(t, planned); got != legacy {
				t.Fatalf("canonical plan digest %s != legacy digest %s", got, legacy)
			}
		})
	}
}

// TestTraceIsObservationOnly: the trace recorder is one more view on the
// speakers' observer fan-out, so recording a trace must not move a byte of
// the result, and the recorded events must not depend on which views ride
// after it (guards off vs full).
func TestTraceIsObservationOnly(t *testing.T) {
	inet, err := InternetTDown(110, bgp.DefaultConfig(), 3)(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Scenario{
		"clique10-tdown":    CliqueTDown(10, bgp.DefaultConfig(), 1),
		"internet110-tdown": inet,
	} {
		t.Run(name, func(t *testing.T) {
			untraced, err := Run(guarded(s, invariant.CadenceOff))
			if err != nil {
				t.Fatal(err)
			}
			want, err := DigestResult(untraced)
			if err != nil {
				t.Fatal(err)
			}
			s.TraceLimit = 1 << 20
			var events [][]trace.Event
			for _, c := range []invariant.Cadence{invariant.CadenceOff, invariant.CadenceFull} {
				res, err := Run(guarded(s, c))
				if err != nil {
					t.Fatalf("guards %s: %v", c, err)
				}
				if got, err := DigestResult(res); err != nil || got != want {
					t.Errorf("guards %s: traced digest %s (%v), untraced %s", c, got, err, want)
				}
				if res.Trace == nil || len(res.Trace.Events()) == 0 || res.Trace.Dropped() != 0 {
					t.Fatalf("guards %s: trace %+v, want every event recorded", c, res.Trace)
				}
				events = append(events, res.Trace.Events())
			}
			if !reflect.DeepEqual(events[0], events[1]) {
				t.Errorf("trace differs between guards off (%d events) and full (%d events)", len(events[0]), len(events[1]))
			}
		})
	}
}

// TestFanOutLeavesOutAbsentViews: an untraced, unguarded run hands the
// speakers the bare measurement observer, and the views that are present
// ride after it in the order measurement, trace, probe, guards.
func TestFanOutLeavesOutAbsentViews(t *testing.T) {
	obs := &observer{}
	if got, ok := fanOut(obs, nil, nil, nil).(*observer); !ok || got != obs {
		t.Errorf("fanOut with no views = %T, want the bare *observer", fanOut(obs, nil, nil, nil))
	}
	rec := &trace.Recorder{}
	probe := bgp.NewOscillationProbe(2, 0)
	all := reflect.ValueOf(fanOut(obs, rec, probe, invariant.New()))
	if all.Kind() != reflect.Slice || all.Len() != 4 {
		t.Fatalf("fanOut with every view = %v, want a fan-out of 4", all)
	}
	if all.Index(0).Interface() != obs || all.Index(1).Interface() != rec || all.Index(2).Interface() != probe {
		t.Errorf("fan-out order %v, want measurement, trace, probe, guards", all)
	}
	if _, ok := all.Index(3).Interface().(*guardObserver); !ok {
		t.Errorf("last view %T, want the guards", all.Index(3).Interface())
	}
}
