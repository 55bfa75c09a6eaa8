package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/topology"
)

// diagnosisGolden is the committed diagnosis of every watchdog cut
// TestQuiescenceDiagnosisGolden drives, one JSON line per case.
var diagnosisGolden = filepath.Join("testdata", "quiescence_diagnosis.jsonl")

// diagnosisRecord is one golden line: the full error text plus the
// diagnosis fields the text leaves out.
type diagnosisRecord struct {
	Case           string
	Error          string
	TopTalkers     []bgp.NodeUpdates
	DistinctStates int
	StatesDropped  int
}

// TestQuiescenceDiagnosisGolden pins the watchdog's diagnosis of four cut
// runs across commits: a phase-budget cut, a horizon cut, a policy
// oscillation and a multi-prefix budget cut. TestGuardWatchdogParity
// compares guards off against full within one build; this test holds the
// text itself still, so a change to how the diagnosis is produced cannot
// move a byte of it unnoticed.
func TestQuiescenceDiagnosisGolden(t *testing.T) {
	tdown, err := InternetTDown(110, bgp.DefaultConfig(), 3)(0)
	if err != nil {
		t.Fatal(err)
	}
	tdown.PhaseEventBudget = 4000
	tlong, err := InternetTLong(110, bgp.DefaultConfig(), 5)(0)
	if err != nil {
		t.Fatal(err)
	}
	tlong.Horizon = 60 * time.Second
	run := func(s Scenario) func() error {
		return func() error { _, err := Run(s); return err }
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"internet110-tdown-phase-budget", run(tdown)},
		{"internet110-tlong-horizon", run(tlong)},
		{"badgadget", run(BadGadget(30_000))},
		{"clique5-multi-max-events", func() error {
			s := TDownScenario(topology.Clique(5), 0, bgp.DefaultConfig(), 1)
			s.MaxEvents = 10
			_, err := RunMulti(s, nil)
			return err
		}},
	}
	var got bytes.Buffer
	for _, c := range cases {
		err := c.run()
		var qf *QuiescenceFailure
		if !errors.As(err, &qf) {
			t.Fatalf("%s: error %v (%T), want a *QuiescenceFailure", c.name, err, err)
		}
		rec := diagnosisRecord{
			Case:           c.name,
			Error:          err.Error(),
			TopTalkers:     qf.TopTalkers,
			DistinctStates: qf.DistinctStates,
			StatesDropped:  qf.StatesDropped,
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	want, err := os.ReadFile(diagnosisGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d diagnosis lines, %s holds %d", len(gotLines)-1, diagnosisGolden, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("diagnosis drifted from %s:\n got: %s\nwant: %s", diagnosisGolden, gotLines[i], wantLines[i])
		}
	}
}
