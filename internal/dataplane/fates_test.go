package dataplane

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bgploop/internal/topology"
)

// fatesDiff compares f, kept up to date incrementally, with a full
// classification of next from scratch and describes the first difference
// ("" if none). Cycle ids and the rotation a cycle is stored in may differ
// between the two, so a cycle is compared as the node sequence read from
// the node it is entered on.
func fatesDiff(f *fates, next []topology.Node, dest topology.Node) string {
	ref := newFates(len(next))
	ref.classify(next, dest)
	fromEntry := func(f *fates, v topology.Node) []topology.Node {
		c := f.cycleOf(v)
		i := slices.Index(c, f.entry(v))
		return slices.Concat(c[i:], c[:i])
	}
	for v := range next {
		u := topology.Node(v)
		if f.fate[u] != ref.fate[u] || f.dist[u] != ref.dist[u] {
			return fmt.Sprintf("node %d: fate %d dist %d, full pass: fate %d dist %d", u, f.fate[u], f.dist[u], ref.fate[u], ref.dist[u])
		}
		if ref.fate[u] != fateCycle {
			continue
		}
		if got, want := fromEntry(f, u), fromEntry(&ref, u); !slices.Equal(got, want) {
			return fmt.Sprintf("node %d: enters cycle %v, full pass: %v", u, got, want)
		}
	}
	return ""
}

// incrementalDiff walks h's epochs with one fates fed every change, as
// Replay feeds it, classifying two epochs out of three so that the changes
// of a skipped one pile up for the next, and checks it after every
// classification against a full pass. It returns the fates, whose counters
// say which passes ran, and the first difference ("" if none).
func incrementalDiff(h *History, dest topology.Node) (*fates, string) {
	f := new(fates)
	*f = newFates(h.NumNodes())
	ep := h.Epochs()
	for i := 0; ep.Next(); i++ {
		for _, v := range ep.Changed {
			f.touch(v)
		}
		if i%3 == 1 {
			continue
		}
		f.classify(ep.Hops, dest)
		if diff := fatesDiff(f, ep.Hops, dest); diff != "" {
			return f, fmt.Sprintf("epoch %d at %v: %s", i, ep.Start, diff)
		}
	}
	return f, ""
}

// TestIncrementalFatesMatchFullClassify checks the incremental classifier
// against a full pass after every classified epoch, on the dense small
// histories of decodeCase, sparse ones of up to 80 nodes, and bursty
// convergence-shaped ones (see TestPropertyReplayMatchesStepwiseWalk).
func TestIncrementalFatesMatchFullClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(20042))
	var incremental, full, compactions int
	check := func(i int, h *History, dest topology.Node) {
		t.Helper()
		f, diff := incrementalDiff(h, dest)
		if diff != "" {
			t.Fatalf("case %d: %s", i, diff)
		}
		incremental += f.incremental
		full += f.full
		compactions += f.compactions
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, 7+2*rng.Intn(48))
		rng.Read(data)
		h, cfg := decodeCase(data)
		check(i, h.History, cfg.Dest)
	}
	for i := 0; i < 200; i++ {
		check(2000+i, buildRandomHistory(rng, 4+rng.Intn(77), time.Second).History, 0)
	}
	for i := 0; i < 50; i++ {
		h, cfg := burstyHistory(rng, 30+rng.Intn(91))
		check(2200+i, h.History, cfg.Dest)
	}
	t.Logf("%d incremental passes, %d full passes (%d of them compactions)", incremental, full, compactions)
	if incremental == 0 || full == 0 {
		t.Errorf("%d incremental and %d full passes, want both > 0", incremental, full)
	}
}

// FuzzIncrementalFates is the same comparison driven by the fuzzer, on the
// histories of decodeCase.
func FuzzIncrementalFates(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		h, cfg := decodeCase(data)
		if _, diff := incrementalDiff(h.History, cfg.Dest); diff != "" {
			t.Fatal(diff)
		}
	})
}

// The fallback thresholds are exact: an incremental pass may affect n/2
// nodes and start with a cycle table of 2n nodes, and one more of either
// takes a full pass.
func TestFatesFallbackThresholds(t *testing.T) {
	const n = 10
	next := make([]topology.Node, n)
	f := newFates(n)
	set := func(v, hop topology.Node) {
		t.Helper()
		next[v] = hop
		f.touch(v)
		f.classify(next, 0)
		if diff := fatesDiff(&f, next, 0); diff != "" {
			t.Fatal(diff)
		}
	}
	// The chain 9 -> 8 -> ... -> 1 -> 0, Dest: a change on v affects v and
	// the nodes above it.
	next[0] = topology.None
	for v := 1; v < n; v++ {
		next[v] = topology.Node(v - 1)
	}
	f.classify(next, 0)
	if f.full != 1 || f.incremental != 0 {
		t.Fatalf("first classification: %d full, %d incremental passes, want one full", f.full, f.incremental)
	}
	set(5, topology.None) // affects 5..9: n/2
	set(5, 4)
	if f.full != 1 || f.incremental != 2 {
		t.Errorf("a change affecting n/2 nodes took a full pass")
	}
	set(4, topology.None) // affects 4..9: n/2 + 1
	if f.full != 2 {
		t.Errorf("a change affecting n/2+1 nodes took an incremental pass")
	}
	set(4, 3)

	// Close and open the 2-cycle 8 <-> 9: each close adds a cycle of two
	// to the table and affects only 8 and 9.
	for k := 0; k < n; k++ {
		set(8, 9)
		set(8, 7)
	}
	if len(f.ring) != 2*n || f.compactions != 0 {
		t.Fatalf("cycle table holds %d nodes after %d compactions, want %d and none", len(f.ring), f.compactions, 2*n)
	}
	set(8, 9) // starts from a table of exactly 2n
	if f.compactions != 0 {
		t.Errorf("a table of 2n nodes was compacted")
	}
	set(8, 7) // starts from 2n + 2
	if f.compactions != 1 || len(f.ring) != 0 {
		t.Errorf("a table of 2n+2 nodes: %d compactions, %d nodes left, want 1 and 0", f.compactions, len(f.ring))
	}
}
