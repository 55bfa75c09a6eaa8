package figures

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"bgploop/internal/sweep"
)

func TestExtensionIDs(t *testing.T) {
	ids := ExtensionIDs()
	want := []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7"}
	if len(ids) != len(want) {
		t.Fatalf("ExtensionIDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ExtensionIDs = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Caption(id) == "" {
			t.Errorf("extension %s has no caption", id)
		}
	}
}

func TestEveryExtensionRuns(t *testing.T) {
	sc := tinyScale()
	for _, id := range ExtensionIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("ragged row %v", row)
				}
			}
		})
	}
}

// TestExtensionsHonourSweepOptions: every sweep an extension figure runs
// goes through Scale.Sweep — counted in its Stats, stopped by its Context.
func TestExtensionsHonourSweepOptions(t *testing.T) {
	sc := tinyScale()
	// Trials each extension sweeps.
	sweeps := map[string]int{
		"x1": 2 * len(sc.MRAIs) * sc.Trials, // clique and bclique per MRAI
		"x2": sc.InternetTrials,
		"x3": 3 * sc.InternetTrials, // three topology models
		"x4": 2 * sc.InternetTrials, // two policies
		"x5": 2,                     // one run per flap workload
		"x6": 5 * sc.Trials,         // five delay models
		"x7": 2,                     // one run with, one without damping
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range ExtensionIDs() {
		t.Run(id, func(t *testing.T) {
			var stats sweep.Stats
			sc := tinyScale()
			sc.Sweep.Stats = &stats
			if _, err := Run(id, sc); err != nil {
				t.Fatal(err)
			}
			if stats.Trials != sweeps[id] {
				t.Errorf("Stats.Trials = %d, want %d", stats.Trials, sweeps[id])
			}
			if sweeps[id] == 0 {
				return
			}
			sc.Sweep.Context = canceled
			if _, err := Run(id, sc); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled context: err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestX5RecoveryIsMilder(t *testing.T) {
	sc := tinyScale()
	tbl, err := Run("x5", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		failExh, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		recExh, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if recExh > failExh {
			t.Errorf("%s: recovery exhaustions %v exceed failure-phase %v", row[0], recExh, failExh)
		}
	}
}

func TestX4PolicyReducesLooping(t *testing.T) {
	sc := tinyScale()
	sc.InternetTrials = 2
	tbl, err := Run("x4", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	spExh, err := strconv.ParseFloat(tbl.Rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	grExh, err := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if grExh > spExh {
		t.Errorf("Gao-Rexford looping %v exceeds shortest-path %v", grExh, spExh)
	}
}
