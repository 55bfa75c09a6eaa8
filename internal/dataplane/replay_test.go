package dataplane

import (
	"testing"
	"time"

	"bgploop/internal/topology"
)

// stableChain builds a history for 0<-1<-2<-...: every node's next hop is
// node-1 from t=0.
func stableChain(t *testing.T, n int) *History {
	t.Helper()
	h := NewHistory(n)
	for v := 1; v < n; v++ {
		mustRecord(t, h, 0, topology.Node(v), topology.Node(v-1))
	}
	return h
}

func TestReplayDelivery(t *testing.T) {
	h := stableChain(t, 4)
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1, 2, 3},
		Start:   0,
		End:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 10; res.Sent != want {
		t.Errorf("Sent = %d, want %d", res.Sent, want)
	}
	if res.Delivered != res.Sent {
		t.Errorf("Delivered = %d, want all %d", res.Delivered, res.Sent)
	}
	if res.TTLExhausted != 0 || res.NoRoute != 0 || res.LoopEncounters != 0 {
		t.Errorf("unexpected drops: %+v", res)
	}
	// 1 hop + 2 hops + 3 hops per round, 10 rounds.
	if want := 10 * 6; res.TotalHops != want {
		t.Errorf("TotalHops = %d, want %d", res.TotalHops, want)
	}
}

func TestReplaySkipsDestSource(t *testing.T) {
	h := stableChain(t, 2)
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{0, 1},
		Start:   0,
		End:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1 {
		t.Errorf("Sent = %d, want 1 (destination must not send to itself)", res.Sent)
	}
}

func TestReplayNoRoute(t *testing.T) {
	h := NewHistory(3)
	mustRecord(t, h, 0, 2, 1) // 2 -> 1, but 1 has no route
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{2},
		Start:   0,
		End:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoRoute != 1 || res.Delivered != 0 {
		t.Errorf("result = %+v, want 1 NoRoute", res)
	}
}

func TestReplayTTLExhaustionInLoop(t *testing.T) {
	// Permanent 2-node loop between 1 and 2.
	h := NewHistory(3)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 1)
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1},
		Start:   0,
		End:     time.Second,
		TTL:     128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTLExhausted != res.Sent {
		t.Errorf("TTLExhausted = %d, want all %d packets", res.TTLExhausted, res.Sent)
	}
	if res.LoopEncounters != res.Sent {
		t.Errorf("LoopEncounters = %d, want %d", res.LoopEncounters, res.Sent)
	}
	// First packet leaves at t=0 and dies after 128 hops of 2 ms.
	if want := 128 * 2 * time.Millisecond; res.FirstExhaustion != want {
		t.Errorf("FirstExhaustion = %v, want %v", res.FirstExhaustion, want)
	}
	// Last packet leaves at t=900ms.
	if want := 900*time.Millisecond + 256*time.Millisecond; res.LastExhaustion != want {
		t.Errorf("LastExhaustion = %v, want %v", res.LastExhaustion, want)
	}
	if got := res.OverallLoopingDuration(); got != 900*time.Millisecond {
		t.Errorf("OverallLoopingDuration = %v, want 900ms", got)
	}
	if got := res.LoopingRatio(); got != 1.0 {
		t.Errorf("LoopingRatio = %v, want 1.0", got)
	}
}

func TestReplayEscapeFromTransientLoop(t *testing.T) {
	// Loop between 1 and 2 until t=100ms, when node 2 repairs to 0. A
	// packet sent at t=0 bounces, then escapes and is delivered.
	h := NewHistory(3)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 100*time.Millisecond, 2, 0)
	res, err := Replay(h, ReplayConfig{
		Dest:     0,
		Sources:  []topology.Node{1},
		Start:    0,
		End:      time.Millisecond, // exactly one packet
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1 || res.Delivered != 1 {
		t.Fatalf("result = %+v, want 1 delivered", res)
	}
	if res.LoopEncounters != 1 || res.DeliveredAfterLoop != 1 {
		t.Errorf("loop escape not detected: %+v", res)
	}
	if res.TTLExhausted != 0 {
		t.Errorf("escaped packet counted as exhausted: %+v", res)
	}
}

func TestReplayShortTTLMissesShortLoop(t *testing.T) {
	// §4.2: if convergence is very short a looping packet can escape
	// before TTL exhaustion. With a transient loop lasting less than
	// TTL*delay the packet escapes; with a tiny TTL it is caught.
	h := NewHistory(3)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 20*time.Millisecond, 2, 0)
	cfg := ReplayConfig{
		Dest:     0,
		Sources:  []topology.Node{1},
		Start:    0,
		End:      time.Millisecond,
		Interval: time.Millisecond,
	}
	// Default TTL 128 -> lifetime 256 ms > 20 ms loop: escapes.
	res, err := Replay(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TTLExhausted != 0 || res.Delivered != 1 {
		t.Errorf("long-TTL packet should escape: %+v", res)
	}
	// TTL 5 -> lifetime 10 ms < 20 ms loop: caught.
	cfg.TTL = 5
	res, err = Replay(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TTLExhausted != 1 {
		t.Errorf("short-TTL packet should exhaust: %+v", res)
	}
}

func TestReplayHopStats(t *testing.T) {
	h := stableChain(t, 4)
	res, err := Replay(h, ReplayConfig{
		Dest:     0,
		Sources:  []topology.Node{1, 3},
		Start:    0,
		End:      time.Millisecond,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One packet from node 1 (1 hop) and one from node 3 (3 hops).
	if res.DeliveredHops.Count != 2 || res.DeliveredHops.Total != 4 || res.DeliveredHops.Max != 3 {
		t.Errorf("DeliveredHops = %+v", res.DeliveredHops)
	}
	if res.DeliveredHops.Mean() != 2 {
		t.Errorf("mean hops = %v, want 2", res.DeliveredHops.Mean())
	}
	if res.EscapedHops.Count != 0 {
		t.Errorf("EscapedHops = %+v, want empty", res.EscapedHops)
	}
}

func TestReplayEscapedHopStats(t *testing.T) {
	// Loop 1<->2 until 100ms, then 2 repairs to 0: the packet bounces and
	// escapes, accumulating extra hops.
	h := NewHistory(3)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 100*time.Millisecond, 2, 0)
	res, err := Replay(h, ReplayConfig{
		Dest:     0,
		Sources:  []topology.Node{1},
		Start:    0,
		End:      time.Millisecond,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EscapedHops.Count != 1 {
		t.Fatalf("EscapedHops = %+v, want one packet", res.EscapedHops)
	}
	// Direct delivery would take 2 hops (1->2->0); the loop added ~50
	// round trips before the 100 ms repair.
	if res.EscapedHops.Max < 10 {
		t.Errorf("escaped packet hops = %d, expected a loop's worth of extra hops", res.EscapedHops.Max)
	}
	var empty HopStats
	if empty.Mean() != 0 {
		t.Errorf("empty HopStats mean = %v", empty.Mean())
	}
}

func TestReplayWindowBoundary(t *testing.T) {
	h := stableChain(t, 2)
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1},
		Start:   time.Second,
		End:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// [1s, 2s) at 100ms spacing = 10 packets (2s itself excluded).
	if res.Sent != 10 {
		t.Errorf("Sent = %d, want 10", res.Sent)
	}
}

func TestReplayConfigValidation(t *testing.T) {
	h := NewHistory(2)
	cases := []ReplayConfig{
		{Dest: 0, Sources: []topology.Node{1}, Start: time.Second, End: 0},
		{Dest: 0, Sources: []topology.Node{1}, End: time.Second, Interval: -time.Second},
		{Dest: 0, Sources: []topology.Node{1}, End: time.Second, TTL: -1},
		{Dest: 0, Sources: []topology.Node{1}, End: time.Second, LinkDelay: -time.Millisecond},
	}
	for i, cfg := range cases {
		if _, err := Replay(h, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestReplayEmptyWindow(t *testing.T) {
	h := stableChain(t, 2)
	res, err := Replay(h, ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1},
		Start:   time.Second,
		End:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 0 {
		t.Errorf("Sent = %d, want 0", res.Sent)
	}
	if res.LoopingRatio() != 0 {
		t.Errorf("LoopingRatio on empty result = %v", res.LoopingRatio())
	}
	if res.OverallLoopingDuration() != 0 {
		t.Errorf("OverallLoopingDuration on empty result = %v", res.OverallLoopingDuration())
	}
}

func TestReplaySelfLoopFIB(t *testing.T) {
	// A FIB that points a node at itself (should never happen, but the
	// walker must not hang): the revisit is immediate and TTL runs out.
	h := NewHistory(2)
	mustRecord(t, h, 0, 1, 1)
	res, err := Replay(h, ReplayConfig{
		Dest:     0,
		Sources:  []topology.Node{1},
		Start:    0,
		End:      time.Millisecond,
		Interval: time.Millisecond,
		TTL:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTLExhausted != 1 {
		t.Errorf("self-loop FIB: %+v, want 1 exhaustion", res)
	}
}

// A source outside the history is an error, not an index panic in the
// middle of the replay. The destination is skipped before it is looked at,
// as it always was.
func TestReplayRejectsOutOfRangeSource(t *testing.T) {
	h := stableChain(t, 3)
	tests := []struct {
		name    string
		sources []topology.Node
		wantErr bool
	}{
		{"in range", []topology.Node{1, 2}, false},
		{"destination skipped", []topology.Node{0, 1}, false},
		{"one past the end", []topology.Node{1, 3}, true},
		{"far past the end", []topology.Node{100}, true},
		{"none", []topology.Node{topology.None}, true},
		{"negative", []topology.Node{-7, 1}, true},
	}
	for _, tt := range tests {
		_, err := Replay(h, ReplayConfig{Dest: 0, Sources: tt.sources, End: time.Second})
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: Replay error = %v, want error %v", tt.name, err, tt.wantErr)
		}
	}
}

// A destination outside the history is refused before any work, as a
// source is: no packet could ever be delivered to it.
func TestReplayRejectsOutOfRangeDest(t *testing.T) {
	h := stableChain(t, 3)
	tests := []struct {
		name    string
		dest    topology.Node
		wantErr bool
	}{
		{"first", 0, false},
		{"last", 2, false},
		{"none", topology.None, true},
		{"negative", -2, true},
		{"one past the end", 3, true},
	}
	for _, tt := range tests {
		_, err := Replay(h, ReplayConfig{Dest: tt.dest, Sources: []topology.Node{1}, End: time.Second})
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: Replay error = %v, want error %v", tt.name, err, tt.wantErr)
		}
	}
}

// TestReplayAllocsIndependentOfWindow pins the memory shape: what Replay
// allocates follows the history and the packets in flight at one time, not
// the number of packets sent. The first history flips a loop every 150 ms,
// less than a packet's 256 ms lifetime, so packets are in flight, and
// visited sets in use, at every epoch boundary of either window. The second
// runs 10,000 epochs of 3 ms: node 1 swaps the loop it closes with 2 and 3
// at every change, an incremental pass that adds a cycle to the table, so
// the table is compacted every few dozen epochs; every hundredth change
// falls on node 4, which heads a tree of 12 nodes, too many for an
// incremental pass.
func TestReplayAllocsIndependentOfWindow(t *testing.T) {
	h := NewHistory(4)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 0, 3, 1)
	for k := 0; k < 200; k++ {
		mustRecord(t, h, time.Duration(k)*150*time.Millisecond, 1, topology.Node(2+k%2))
	}
	sources := []topology.Node{1, 2, 3}
	checkAllocsIndependentOfWindow(t, h, sources)

	const n = 16
	h = NewHistory(n)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 0, 3, 1)
	mustRecord(t, h, 0, 4, 0)
	for v := topology.Node(5); v < n; v++ {
		mustRecord(t, h, 0, v, 4)
	}
	for k := 0; k < 10000; k++ {
		at := time.Duration(k) * 3 * time.Millisecond
		if k%100 == 99 {
			mustRecord(t, h, at, 4, topology.Node(k/100%2-1)) // None or 0
			continue
		}
		mustRecord(t, h, at, 1, topology.Node(2+k%2))
	}
	r, err := newReplayer(h, ReplayConfig{Dest: 0, Sources: sources, End: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r.run()
	f := &r.fates
	t.Logf("long history: %d incremental passes, %d full passes (%d of them compactions)", f.incremental, f.full, f.compactions)
	if f.incremental == 0 || f.compactions == 0 || f.full-f.compactions < 2 {
		t.Errorf("long history: %d incremental passes, %d full (%d compactions): want incremental passes, compactions and fallbacks",
			f.incremental, f.full, f.compactions)
	}
	checkAllocsIndependentOfWindow(t, h, sources)
}

// checkAllocsIndependentOfWindow replays h over a 3 s and a 30 s window, in
// both of which every packet must die in a loop, and wants the longer one
// to allocate no more.
func checkAllocsIndependentOfWindow(t *testing.T, h *History, sources []topology.Node) {
	t.Helper()
	allocs := func(window time.Duration) float64 {
		cfg := ReplayConfig{Dest: 0, Sources: sources, End: window}
		return testing.AllocsPerRun(5, func() {
			if res, err := Replay(h, cfg); err != nil || res.TTLExhausted != res.Sent {
				t.Fatalf("Replay = %+v, %v; want every packet to die in the loop", res, err)
			}
		})
	}
	short, long := allocs(3*time.Second), allocs(30*time.Second)
	t.Logf("allocations: %v over 3 s, %v over 30 s", short, long)
	if long > short {
		t.Errorf("Replay allocates with the window: %v allocations over 3 s, %v over 30 s", short, long)
	}
}

// A 2-cycle that no change touches keeps every packet parked on it while 50
// FIB changes elsewhere start 50 epochs: each packet dies exactly one
// lifetime after its send, having taken all of its TTL in hops.
func TestReplayCycleOutlivesChangesElsewhere(t *testing.T) {
	h := newDual(5)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 0, 3, 1) // a tail into the cycle
	// Node 4 sends nothing and leads nowhere near the cycle; it flips
	// between the destination and no route every 20 ms from 10 ms.
	for k := 0; k < 50; k++ {
		mustRecord(t, h, time.Duration(10+20*k)*time.Millisecond, 4, topology.Node(-(k % 2)))
	}
	if got := h.ref.Changes(4); got != 50 {
		t.Fatalf("node 4 has %d changes, want 50", got)
	}
	cfg := ReplayConfig{Dest: 0, Sources: []topology.Node{1, 2, 3}, Start: 0, End: time.Second}
	res, diff := replayDiff(h, cfg)
	if diff != "" {
		t.Fatal(diff)
	}
	want := ReplayResult{
		Sent:            30,
		TTLExhausted:    30,
		LoopEncounters:  30,
		FirstExhaustion: 256 * time.Millisecond,
		LastExhaustion:  (900 + 256) * time.Millisecond,
		TotalHops:       30 * 128,
	}
	if res.res != want {
		t.Errorf("Replay = %+v\nwant     %+v", res.res, want)
	}
	if res.released != 0 {
		t.Errorf("%d entries released: no change touches the cycle", res.released)
	}
}

// Ten sources funnel into the 3-cycle 1->2->3->1 (four through 1, three
// through 2, three through 3), sending at 0 and 5 ms. At 45 ms node 3
// repairs to the destination. Lookups of the packets sent at 5 ms fall on
// odd milliseconds, so some of them look up at exactly 45 ms and see the
// repair; those sent at 0 look up on even milliseconds, on both sides of it.
// A packet that entered the cycle on node e stands on 1, 2, 3 ... from
// lookup 1 on, so it reaches 3 at the first lookup k >= the break with
// k = 0, 2, 1 (mod 3) for e = 1, 2, 3 and is delivered after k+1 hops:
//
//	sent at 0 ms (first lookup >= 45 ms: k = 23): hops 25, 24, 26
//	sent at 5 ms (first lookup >= 45 ms: k = 20): hops 22, 21, 23
//
// so 4*25+3*24+3*26 + 4*22+3*21+3*23 = 470 hops, the longest 26.
func TestReplayFunnelIntoBreakingCycle(t *testing.T) {
	h := newDual(14)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 3)
	mustRecord(t, h, 0, 3, 1)
	var sources []topology.Node
	for v := topology.Node(4); v < 14; v++ {
		entry := topology.Node(1)
		if v >= 11 {
			entry = 3
		} else if v >= 8 {
			entry = 2
		}
		mustRecord(t, h, 0, v, entry)
		sources = append(sources, v)
	}
	mustRecord(t, h, 45*time.Millisecond, 3, 0)
	cfg := ReplayConfig{Dest: 0, Sources: sources, Start: 0, End: 10 * time.Millisecond, Interval: 5 * time.Millisecond}
	res, diff := replayDiff(h, cfg)
	if diff != "" {
		t.Fatal(diff)
	}
	hops := HopStats{Count: 20, Total: 470, Max: 26}
	want := ReplayResult{
		Sent:               20,
		Delivered:          20,
		LoopEncounters:     20,
		DeliveredAfterLoop: 20,
		TotalHops:          470,
		DeliveredHops:      hops,
		EscapedHops:        hops,
	}
	if res.res != want {
		t.Errorf("Replay = %+v\nwant     %+v", res.res, want)
	}
	// Two send instants, three phases each: the ten packets of an instant
	// share three entries, one per class, so no cohort meets an entry
	// already parked.
	if res.folded != 14 || res.merged != 0 || res.released != 6 {
		t.Errorf("folded %d packets, merged %d cohorts and released %d entries, want 14, 0 and 6",
			res.folded, res.merged, res.released)
	}
}

// Classes that reach one cycle in step share its entries. On the cycle
// 1 -> 2 -> 3 -> 1 of TestReplayFunnelIntoBreakingCycle, sources 4 and 5
// enter at 1 after one hop, 7 and 8 at 2 after two (through 6), and 6 at 2
// after one. The first two classes stand on the same node at every lookup,
// so each send instant parks their cohorts as one entry; the third stands
// a node ahead and parks its own. Two instants: four packets folded into
// their classes, two cohorts merged into an entry already parked, and four
// entries released when node 3 repairs at 45 ms.
func TestReplayClassesMergeInStep(t *testing.T) {
	h := newDual(9)
	mustRecord(t, h, 0, 1, 2)
	mustRecord(t, h, 0, 2, 3)
	mustRecord(t, h, 0, 3, 1)
	mustRecord(t, h, 0, 4, 1)
	mustRecord(t, h, 0, 5, 1)
	mustRecord(t, h, 0, 6, 2)
	mustRecord(t, h, 0, 7, 6)
	mustRecord(t, h, 0, 8, 6)
	mustRecord(t, h, 45*time.Millisecond, 3, 0)
	cfg := ReplayConfig{Dest: 0, Sources: []topology.Node{4, 5, 6, 7, 8}, Start: 0, End: 10 * time.Millisecond, Interval: 5 * time.Millisecond}
	res, diff := replayDiff(h, cfg)
	if diff != "" {
		t.Fatal(diff)
	}
	if res.res.Sent != 10 || res.res.DeliveredAfterLoop != 10 {
		t.Errorf("Replay = %+v, want all 10 packets delivered after the loop", res.res)
	}
	if res.folded != 4 || res.merged != 2 || res.released != 4 {
		t.Errorf("folded %d packets, merged %d cohorts and released %d entries, want 4, 2 and 4",
			res.folded, res.merged, res.released)
	}
}
