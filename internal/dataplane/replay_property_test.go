package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bgploop/internal/topology"
)

// buildRandomHistory produces a random but causally-valid FIB history for
// n nodes over the given span, recorded into a History and the reference.
func buildRandomHistory(rng *rand.Rand, n int, span time.Duration) dual {
	h := newDual(n)
	for v := 1; v < n; v++ { // node 0 is the destination: no FIB entries
		at := time.Duration(0)
		changes := rng.Intn(6)
		for c := 0; c < changes; c++ {
			at += time.Duration(rng.Int63n(int64(span) / 6))
			nh := topology.Node(rng.Intn(n+1)) - 1 // -1 = None
			// Records never fail here: times are nondecreasing and nodes
			// in range by construction.
			if err := h.Record(at, topology.Node(v), nh); err != nil {
				panic(err)
			}
		}
	}
	return h
}

// TestPropertyReplayConservation replays random packet workloads over
// random FIB histories and checks the bookkeeping invariants that every
// figure in the study depends on.
func TestPropertyReplayConservation(t *testing.T) {
	f := func(seed int64, nodesSeed, ttlSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nodesSeed)%8
		h := buildRandomHistory(rng, n, 2*time.Second)
		var sources []topology.Node
		for v := 1; v < n; v++ {
			sources = append(sources, topology.Node(v))
		}
		ttl := 2 + int(ttlSeed)%64
		cfg := ReplayConfig{
			Dest:      0,
			Sources:   sources,
			Start:     0,
			End:       2 * time.Second,
			Interval:  250 * time.Millisecond,
			TTL:       ttl,
			LinkDelay: 2 * time.Millisecond,
		}
		res, err := Replay(h.History, cfg)
		if err != nil {
			return false
		}
		// Conservation.
		if res.Delivered+res.NoRoute+res.TTLExhausted != res.Sent {
			return false
		}
		// Expected send count: sources x ceil(window/interval).
		if res.Sent != len(sources)*8 {
			return false
		}
		// Exhaustion timing: a packet dies exactly TTL hops after its
		// send instant, so the first exhaustion cannot precede
		// Start + TTL*linkDelay, and the last cannot exceed
		// (End - interval) + TTL*linkDelay.
		if res.TTLExhausted > 0 {
			lifetime := time.Duration(ttl) * cfg.LinkDelay
			if res.FirstExhaustion < cfg.Start+lifetime {
				return false
			}
			if res.LastExhaustion > cfg.End-cfg.Interval+lifetime {
				return false
			}
		}
		// Delivered hop counts are bounded by TTL; escaped are a subset.
		if res.DeliveredHops.Max > ttl || res.EscapedHops.Count > res.Delivered {
			return false
		}
		if res.DeliveredHops.Count != res.Delivered || res.EscapedHops.Count != res.DeliveredAfterLoop {
			return false
		}
		// Loop encounters can only come from packets that revisited.
		return res.LoopEncounters <= res.Sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// decodeCase turns bytes into a small history, recorded into a History and
// the reference, and a replay configuration, for the seeded differential
// test and for FuzzReplayMatchesWalk alike.
// Seven header bytes pick 2-8 nodes, Dest, a TTL of 1-12 (often smaller than
// tail + cycle), a link delay of 1-3 ms, an interval of 1-6 ms and a send
// window that starts up to 12 ms into the history and may be empty or
// inverted. Every following byte pair is one record: the low three bits of
// the first advance the clock by 0-3.5 ms in half-millisecond steps (0 keeps
// the instant, so several nodes change at once, the first record can sit at
// time 0, and consecutive changes are usually closer than one link delay),
// the rest pick the node (Dest included) and the second byte its next hop
// (None, Dest and the node itself included).
func decodeCase(data []byte) (dual, ReplayConfig) {
	const tick = 500 * time.Microsecond
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%7
	cfg := ReplayConfig{
		Dest:      topology.Node(next() % n),
		TTL:       1 + next()%12,
		LinkDelay: time.Duration(1+next()%3) * time.Millisecond,
		Interval:  time.Duration(1+next()%6) * time.Millisecond,
	}
	cfg.Start = time.Duration(next()%24) * tick
	cfg.End = cfg.Start + time.Duration(next()%48-4)*tick
	for v := 0; v < n; v++ {
		cfg.Sources = append(cfg.Sources, topology.Node(v))
	}
	h := newDual(n)
	var at time.Duration
	for len(data) >= 2 {
		a, b := next(), next()
		at += time.Duration(a&7) * tick
		// Times never decrease and ids are in range by construction.
		if err := h.Record(at, topology.Node((a>>3)%n), topology.Node(b%(n+1)-1)); err != nil {
			panic(err)
		}
	}
	return h, cfg
}

// replayDiff replays cfg over h as Replay does and, over the reference,
// with the walker it replaced and describes the first disagreement ("" if
// none). It returns the replayer, whose counters say what of the cohort
// machinery the case reached.
func replayDiff(h dual, cfg ReplayConfig) (replayer, string) {
	got, gotErr := newReplayer(h.History, cfg)
	if gotErr == nil {
		got.run()
	}
	want, wantErr := walkReplay(h.ref, cfg)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return got, fmt.Sprintf("Replay error = %v, walker error = %v", gotErr, wantErr)
	case got.res != want:
		return got, fmt.Sprintf("Replay = %+v\nwalker = %+v", got.res, want)
	}
	return got, ""
}

// burstyHistory is a convergence-shaped history: a loop-free tree toward
// node 0 at time 0, then bursts 100-700 ms apart in which a few nodes change
// their next hop 0-3 ms apart (0: at the same instant): to no route, to a
// node closer to 0 (a repair), or to a node whose path runs through the
// changing one, which closes a loop that the tree upstream of it feeds.
// Half the changes after the first loop fall on a node that closed one.
// The window starts in the first burst on the 0.5 ms grid of the changes,
// so lookups land on change instants as well as between them.
func burstyHistory(rng *rand.Rand, n int) (dual, ReplayConfig) {
	const tick = 500 * time.Microsecond
	h := newDual(n)
	next := make([]int, n)
	record := func(at time.Duration, v, hop int) {
		next[v] = hop
		// Times never decrease and ids are in range by construction.
		if err := h.Record(at, topology.Node(v), topology.Node(hop)); err != nil {
			panic(err)
		}
	}
	// upstream picks a node whose path passes v, v itself if none is found.
	upstream := func(v int) int {
		for try := 0; try < 8; try++ {
			u := rng.Intn(n)
			for w, k := u, 0; w > 0 && k < n; w, k = next[w], k+1 {
				if w == v {
					return u
				}
			}
		}
		return v
	}
	for v := 1; v < n; v++ {
		record(0, v, rng.Intn(v))
	}
	var at time.Duration
	var closers []int
	for b := 5 + rng.Intn(10); b > 0; b-- {
		at += time.Duration(200+rng.Intn(1200)) * tick
		for c := 1 + rng.Intn(6); c > 0; c-- {
			at += time.Duration(rng.Intn(7)) * tick
			v := 1 + rng.Intn(n-1)
			if len(closers) > 0 && rng.Intn(2) == 0 {
				v = closers[rng.Intn(len(closers))]
			}
			switch rng.Intn(4) {
			case 0:
				record(at, v, int(topology.None))
			case 1:
				record(at, v, rng.Intn(v))
			default:
				record(at, v, upstream(v))
				closers = append(closers, v)
			}
		}
	}
	start := time.Duration(200+rng.Intn(400)) * tick
	cfg := ReplayConfig{
		Dest:      0,
		Start:     start,
		End:       start + time.Duration(500+rng.Intn(1500))*time.Millisecond,
		Interval:  DefaultInterval,
		TTL:       DefaultTTL,
		LinkDelay: 2 * time.Millisecond,
	}
	for v := 1; v < n; v++ {
		cfg.Sources = append(cfg.Sources, topology.Node(v))
	}
	return h, cfg
}

// TestPropertyReplayMatchesStepwiseWalk checks the epoch-major Replay
// against the packet-major walker it replaced (oracle_test.go), on every
// ReplayResult field, over seeded random histories of three shapes: dense
// small ones from decodeCase, where most packets straddle a change; sparser
// ones of up to 80 nodes (visited sets of more than one word, TTL below and
// above the cycle lengths) with a send window that starts mid-history; and
// paper-scale streams over 30-120 nodes whose changes come in bursts
// (burstyHistory), where cohorts merge on long-lived cycles and are
// released when a burst breaks them.
func TestPropertyReplayMatchesStepwiseWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(20041))
	var sum ReplayResult
	var merged, released int
	check := func(i int, h dual, cfg ReplayConfig) {
		t.Helper()
		r, diff := replayDiff(h, cfg)
		if diff != "" {
			t.Fatalf("case %d, cfg %+v:\n%s", i, cfg, diff)
		}
		merged += r.merged
		released += r.released
		res := r.res
		sum.Sent += res.Sent
		sum.Delivered += res.Delivered
		sum.NoRoute += res.NoRoute
		sum.TTLExhausted += res.TTLExhausted
		sum.LoopEncounters += res.LoopEncounters
		sum.DeliveredAfterLoop += res.DeliveredAfterLoop
	}
	for i := 0; i < 3000; i++ {
		data := make([]byte, 7+2*rng.Intn(48))
		rng.Read(data)
		h, cfg := decodeCase(data)
		check(i, h, cfg)
	}
	for i := 0; i < 300; i++ {
		n := 4 + rng.Intn(6)
		if i%3 == 0 {
			n = 65 + rng.Intn(16)
		}
		h := buildRandomHistory(rng, n, time.Second)
		cfg := ReplayConfig{
			Dest:      0,
			Start:     time.Duration(rng.Intn(400)) * time.Millisecond,
			End:       time.Second,
			Interval:  time.Duration(5+rng.Intn(60)) * time.Millisecond,
			TTL:       []int{4, 16, 128}[rng.Intn(3)],
			LinkDelay: 2 * time.Millisecond,
		}
		for v := 1; v < n; v++ {
			cfg.Sources = append(cfg.Sources, topology.Node(v))
		}
		check(3000+i, h, cfg)
	}
	merged, released = 0, 0
	for i := 0; i < 100; i++ {
		h, cfg := burstyHistory(rng, 30+rng.Intn(91))
		check(3300+i, h, cfg)
	}
	// A generator that drifts into producing no loops, or no escapes from
	// them, or cycles no packet waits on together or that never break under
	// one, would leave the comparison above vacuous.
	t.Logf("sent %d: delivered %d (after a loop %d), no route %d, TTL exhausted %d, loop encounters %d",
		sum.Sent, sum.Delivered, sum.DeliveredAfterLoop, sum.NoRoute, sum.TTLExhausted, sum.LoopEncounters)
	t.Logf("bursty histories: %d cohorts merged into parked entries, %d entries released", merged, released)
	if sum.Delivered == 0 || sum.DeliveredAfterLoop == 0 || sum.NoRoute == 0 || sum.TTLExhausted == 0 ||
		sum.LoopEncounters == 0 {
		t.Errorf("an outcome went missing from the generated cases: %+v", sum)
	}
	if merged == 0 || released == 0 {
		t.Errorf("the bursty histories merged %d cohorts and released %d entries, want both > 0", merged, released)
	}
}

// FuzzReplayMatchesWalk is the same comparison driven by the fuzzer: the
// input decodes (decodeCase) to a small history plus a ReplayConfig.
func FuzzReplayMatchesWalk(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // keep histories small; long inputs add no new shape
		}
		h, cfg := decodeCase(data)
		if _, diff := replayDiff(h, cfg); diff != "" {
			t.Fatalf("cfg %+v:\n%s", cfg, diff)
		}
	})
}

// A source listed more than once sends once per listing, as the walker
// does: its class counts it that many times and it launches that many
// packets.
func TestReplayRepeatedSourcesMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(20043))
	for i := 0; i < 300; i++ {
		data := make([]byte, 7+2*rng.Intn(48))
		rng.Read(data)
		h, cfg := decodeCase(data)
		cfg.Sources = append(cfg.Sources, cfg.Sources[rng.Intn(len(cfg.Sources)):]...)
		if _, diff := replayDiff(h, cfg); diff != "" {
			t.Fatalf("case %d, cfg %+v:\n%s", i, cfg, diff)
		}
	}
}
