package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bgploop/internal/topology"
)

// A table case is a byte string: a header byte choosing the policy (bit 0:
// ShortestPath or GaoRexford) and the owner (bits 1-3 all set: the origin
// itself), then operations over peers 1..8 of node 9 toward destination 0:
//
//	kind 0-3  Update: one byte of peer, then (op>>3)%5 path elements after
//	          the leading peer, each in 0..10 — short enough that lengths
//	          tie, wide enough to repeat an element and to contain self
//	kind 4    Update with an empty, non-nil path
//	kind 5    Withdraw
//	kind 6    RemovePeer
//	kind 7    Invalidate, the next byte a keep-mask over the eight peers
const (
	caseSelf  = topology.Node(9)
	casePeers = 8
)

// caseRelationships spreads the eight peers over GaoRexford's four classes.
func caseRelationships() *topology.Relationships {
	rel := topology.NewRelationships()
	rel.SetProviderCustomer(caseSelf, 1)
	rel.SetProviderCustomer(caseSelf, 2)
	rel.SetPeers(caseSelf, 3)
	rel.SetPeers(caseSelf, 4)
	rel.SetProviderCustomer(5, caseSelf)
	rel.SetProviderCustomer(6, caseSelf)
	return rel
}

// caseStats counts what a stream exercised, so a generator that stops
// reaching a branch of the incremental selection shows.
type caseStats struct {
	ops, changed, unchanged, noRoute int
}

// tableDiff applies the case to a Table on an arena and to the oracle and
// returns a description of the first observable difference, or "".
func tableDiff(data []byte, st *caseStats) string {
	if len(data) == 0 {
		return ""
	}
	self := caseSelf
	if data[0]&0x0e == 0x0e {
		self = 0
	}
	var pol Policy = ShortestPath{}
	if data[0]&1 == 1 {
		pol = GaoRexford{Self: self, Rel: caseRelationships()}
	}
	got, want := new(Table), newOracleTable(self, 0, pol)
	got.Init(self, 0, pol, nil, new(Arena))

	data = data[1:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0; step++ {
		op := next()
		peer := topology.Node(1 + next()%casePeers)
		var desc string
		var a, b bool
		switch kind := op % 8; {
		case kind <= 4:
			path := Path{}
			if kind < 4 {
				path = append(path, peer)
				for n := int(op>>3) % 5; n > 0; n-- {
					path = append(path, topology.Node(next()%11))
				}
			}
			desc = fmt.Sprintf("Update(%d, %v)", peer, path)
			a, b = got.Update(peer, path), want.Update(peer, path)
		case kind == 5:
			desc = fmt.Sprintf("Withdraw(%d)", peer)
			a, b = got.Withdraw(peer), want.Withdraw(peer)
		case kind == 6:
			desc = fmt.Sprintf("RemovePeer(%d)", peer)
			a, b = got.RemovePeer(peer), want.RemovePeer(peer)
		default:
			mask := next()
			keep := func(peer topology.Node, _ Path) bool { return mask>>(uint(peer)-1)&1 == 1 }
			desc = fmt.Sprintf("Invalidate(keep %08b)", mask)
			a, b = got.Invalidate(keep), want.Invalidate(keep)
		}
		fail := func(what string, g, w any) string {
			return fmt.Sprintf("step %d, %s: %s = %v, oracle %v", step, desc, what, g, w)
		}
		if a != b {
			return fail("changed", a, b)
		}
		if g, w := got.Best(), want.Best(); !g.Equal(w) || (g == nil) != (w == nil) || cap(g) != len(g) {
			return fail("Best", g, w)
		}
		if g, w := got.NextHop(), want.NextHop(); g != w {
			return fail("NextHop", g, w)
		}
		if g, w := got.HasRoute(), want.HasRoute(); g != w {
			return fail("HasRoute", g, w)
		}
		if g, w := got.PeersWithRoutes(), want.PeersWithRoutes(); !reflect.DeepEqual(g, w) {
			return fail("PeersWithRoutes", g, w)
		}
		for p := topology.Node(0); p <= casePeers+1; p++ {
			g, gok := got.Received(p)
			w, wok := want.Received(p)
			if gok != wok || !g.Equal(w) || (g == nil) != (w == nil) {
				return fail(fmt.Sprintf("Received(%d)", p), fmt.Sprint(g, gok), fmt.Sprint(w, wok))
			}
		}
		if st != nil {
			st.ops++
			if a {
				st.changed++
			} else {
				st.unchanged++
			}
			if !got.HasRoute() {
				st.noRoute++
			}
		}
	}
	return ""
}

// TestPropertyTableMatchesOracle checks the slot table against the
// map-based one it replaced (oracle_test.go) after every operation of
// seeded random streams: the reported change, Best, NextHop, HasRoute,
// PeersWithRoutes and every peer's Received.
func TestPropertyTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20042))
	var st caseStats
	for i := 0; i < 4000; i++ {
		data := make([]byte, 1+rng.Intn(96))
		rng.Read(data)
		if diff := tableDiff(data, &st); diff != "" {
			t.Fatalf("case %d (%x):\n%s", i, data, diff)
		}
	}
	t.Logf("%d operations: %d changed the best path, %d did not, %d left no route",
		st.ops, st.changed, st.unchanged, st.noRoute)
	if st.changed == 0 || st.unchanged == 0 || st.noRoute == 0 {
		t.Errorf("an outcome went missing from the generated cases: %+v", st)
	}
}

// FuzzTableMatchesOracle is the same comparison driven by the fuzzer; the
// corpus under testdata/fuzz names the branches of the incremental update.
func FuzzTableMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // longer streams revisit the same eight slots
		}
		if diff := tableDiff(data, nil); diff != "" {
			t.Fatal(diff)
		}
	})
}

// lengthOnly ranks by AS-path length alone: equal-length paths tie.
type lengthOnly struct{}

func (lengthOnly) Better(a, b Candidate) bool { return a.Path.Len() < b.Path.Len() }

// TestSelectionDeterministicUnderTies pins the rule for candidates the
// policy leaves tied: the lowest peer ID wins, whichever way the table got
// there — the tied path arriving later (incremental displacement), earlier
// (incremental rejection), or both already stored when the best is
// withdrawn (rescan). Repeated, because the map-based table answered by
// iteration order.
func TestSelectionDeterministicUnderTies(t *testing.T) {
	for run := 0; run < 200; run++ {
		late := NewTable(5, 0, lengthOnly{})
		late.Update(7, p(7, 1, 0))
		late.Update(6, p(6, 2, 0))
		early := NewTable(5, 0, lengthOnly{})
		early.Update(6, p(6, 2, 0))
		early.Update(7, p(7, 1, 0))
		rescan := NewTable(5, 0, lengthOnly{})
		rescan.Update(7, p(7, 1, 0))
		rescan.Update(4, p(4, 0))
		rescan.Update(6, p(6, 2, 0))
		rescan.Withdraw(4)
		for name, tab := range map[string]*Table{"late": late, "early": early, "rescan": rescan} {
			if tab.NextHop() != 6 || !tab.Best().Equal(p(5, 6, 2, 0)) {
				t.Fatalf("run %d, %s: next hop %d via %v, want the lower tied peer 6", run, name, tab.NextHop(), tab.Best())
			}
		}
	}
}
