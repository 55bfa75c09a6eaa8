package figures

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/metrics"
	"bgploop/internal/sweep"
)

// tinyScale is even smaller than QuickScale, for per-figure unit tests.
func tinyScale() Scale {
	return Scale{
		CliqueSizes:     []int{4, 5},
		BCliqueSizes:    []int{4},
		InternetSizes:   []int{29},
		MRAIs:           mraiGrid(5, 10),
		CliqueMRAISize:  5,
		BCliqueMRAISize: 4,
		Trials:          1,
		InternetTrials:  1,
		Seed:            1,
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"4a", "4b", "4c", "5a", "5b",
		"6a", "6b", "6c", "7a", "7b",
		"8a", "8b", "8c", "8d",
		"9a", "9b", "9c", "9d",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", tinyScale()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestCaption(t *testing.T) {
	if Caption("4a") == "" {
		t.Error("4a has no caption")
	}
	if Caption("zz") != "" {
		t.Error("unknown id has a caption")
	}
}

func TestEveryFigureRuns(t *testing.T) {
	sc := tinyScale()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("figure produced no rows")
			}
			if tbl.Title != "Figure "+id {
				t.Errorf("title = %q", tbl.Title)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("ragged row %v vs columns %v", row, tbl.Columns)
				}
			}
		})
	}
}

// TestSuiteSweepsEachCellOnce: the 18 paper figures rendered through one
// suite simulate each distinct (workload, size, MRAI, variant) point once,
// and every table equals the one a fresh one-figure Run produces.
func TestSuiteSweepsEachCellOnce(t *testing.T) {
	sc := tinyScale()
	var stats sweep.Stats
	sc.Sweep.Stats = &stats
	suite := NewSuite(sc)
	for _, id := range IDs() {
		got, err := suite.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(id, tinyScale())
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("figure %s through the shared suite:\n%s\nfresh Run:\n%s", id, got, want)
		}
	}

	// The distinct cells, counted from the scale alone: every workload at
	// every size under every variant (the size figures read the
	// "standard" column's cells), plus the MRAI grid at the two fixed
	// sizes — which coincides with a size cell where the grid contains
	// the base MRAI and the fixed size is on the size grid.
	type point struct {
		workload string
		n        int
		mrai     time.Duration
		variant  string
	}
	trialsOf := map[point]int{}
	for _, w := range []struct {
		name     string
		sizes    []int
		mraiSize int
		trials   int
	}{
		{"clique-tdown", sc.CliqueSizes, sc.CliqueMRAISize, sc.Trials},
		{"bclique-tlong", sc.BCliqueSizes, sc.BCliqueMRAISize, sc.Trials},
		{"internet-tdown", sc.InternetSizes, 0, sc.InternetTrials},
		{"internet-tlong", sc.InternetSizes, 0, sc.InternetTrials},
	} {
		for _, n := range w.sizes {
			for _, v := range bgp.Variants {
				trialsOf[point{w.name, n, bgp.DefaultMRAI, v.Name}] = w.trials
			}
		}
		if w.mraiSize != 0 {
			for _, m := range sc.MRAIs {
				trialsOf[point{w.name, w.mraiSize, m, "standard"}] = w.trials
			}
		}
	}
	want := 0
	for _, n := range trialsOf {
		want += n
	}
	if stats.Trials != want {
		t.Errorf("suite ran %d trials for %d distinct cells worth %d", stats.Trials, len(trialsOf), want)
	}
}

func TestFig8aNormalisedBaseline(t *testing.T) {
	tbl, err := Run("8a", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Column 1 is "standard" and must be exactly 1 after normalisation
	// whenever the baseline produced loops.
	if tbl.Columns[1] != "standard" {
		t.Fatalf("columns = %v", tbl.Columns)
	}
	for _, row := range tbl.Rows {
		if row[1] != "1" && row[1] != "0" {
			t.Errorf("standard column = %q, want 1 (or 0 when no loops)", row[1])
		}
	}
}

func TestFig5aLinearInMRAI(t *testing.T) {
	// Observation 1: convergence time and looping duration are linear in
	// the MRAI value. Fit a line over a 3-point sweep on a small clique
	// and demand a strong fit with positive slope.
	sc := tinyScale()
	sc.MRAIs = mraiGrid(10, 20, 30)
	sc.CliqueMRAISize = 6
	sc.Trials = 2
	tbl, err := Run("5a", sc)
	if err != nil {
		t.Fatal(err)
	}
	var xs, conv []float64
	for _, row := range tbl.Rows {
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		c, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
		conv = append(conv, c)
	}
	fit, err := metrics.FitLine(xs, conv)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Errorf("convergence not increasing in MRAI: %+v", fit)
	}
	if fit.R2 < 0.9 {
		t.Errorf("convergence vs MRAI not linear enough: R2 = %v", fit.R2)
	}
}

func TestScaleDefaults(t *testing.T) {
	var sc Scale
	sc = sc.withDefaults()
	full := FullScale()
	if len(sc.CliqueSizes) != len(full.CliqueSizes) || sc.Trials != full.Trials {
		t.Errorf("zero Scale did not default to FullScale: %+v", sc)
	}
}

func TestQuickScaleIsFast(t *testing.T) {
	start := time.Now()
	if _, err := Run("6a", QuickScale()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("QuickScale figure took %v", elapsed)
	}
}

func TestTableRendersCleanly(t *testing.T) {
	tbl, err := Run("4a", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "clique_size") || !strings.Contains(out, "convergence_s") {
		t.Errorf("render missing headers:\n%s", out)
	}
}
