package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgploop/internal/topology"
)

func TestBuildFamilies(t *testing.T) {
	for _, topo := range topology.Families() {
		if err := run([]string{"-topo", topo, "-size", "8"}); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
	}
	if err := run([]string{"-topo", "moebius", "-size", "8"}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestRunStatsAndHist(t *testing.T) {
	if err := run([]string{"-topo", "clique", "-size", "6", "-hist"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topo", "internet", "-size", "20", "-dot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEdgeListToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.topo")
	if err := run([]string{"-topo", "bclique", "-size", "4", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "nodes 8") {
		t.Errorf("edge list missing header:\n%s", data)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-topo", "internet", "-size", "2"}); err == nil {
		t.Error("tiny internet accepted")
	}
}
