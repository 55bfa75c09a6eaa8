package experiment

import (
	"os"
	"runtime"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// The allocation budgets of the control-plane kernel's hot path. Seven
// updates in eight change no best path on a Clique(10) MRAI=0 run, so what
// a trial costs is what the no-change path costs; these pin it at nothing
// per message, layer by layer, and cap a whole trial.

func skipUnlessAllocsAreOurs(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	if os.Getenv("BGPSIM_GUARD") != "" {
		t.Skip("invariant guards allocate")
	}
}

// A non-improving update on a warm table: one slot takes the announced
// path, which is built outside the measurement because the table keeps it.
func TestAllocBudgetTableUpdate(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	tab := routing.NewTable(9, 0, routing.ShortestPath{})
	for peer := topology.Node(1); peer <= 8; peer++ {
		tab.Update(peer, routing.Path{peer, 7, 6, 5, 4, 3, 2, 0}[:2+peer%6])
	}
	best := routing.Path{1, 0}
	tab.Update(1, best) // the best, and it stays
	longer, shorter := routing.Path{5, 8, 7, 6, 4, 3, 2, 0}, routing.Path{5, 4, 3, 0}
	if n := testing.AllocsPerRun(1000, func() {
		if tab.Update(5, longer) || tab.Update(5, shorter) || tab.Update(1, best) {
			t.Fatal("best path changed")
		}
	}); n != 0 {
		t.Errorf("non-improving Table.Update allocates %v times, want 0", n)
	}
}

// An improving update builds the new best path with self in front, cut
// from the arena: one block per a few hundred changes, so nothing once
// amortised (it was one allocation per change while each best path was
// made on its own). The withdrawal that undoes it leaves no route and
// allocates nothing.
func TestAllocBudgetTableImprovingUpdate(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	var arena routing.Arena
	var tab routing.Table
	tab.Init(9, 0, routing.ShortestPath{}, nil, &arena)
	for peer := topology.Node(1); peer <= 8; peer++ {
		tab.Update(peer, routing.Path{peer, 9, 0}) // through self: no candidate
	}
	route, looped := routing.Path{5, 4, 3, 0}, routing.Path{5, 9, 0}
	if n := testing.AllocsPerRun(1000, func() {
		if !tab.Update(5, route) || !tab.Update(5, looped) {
			t.Fatal("best path did not change")
		}
	}); n != 0 {
		t.Errorf("an improving Table.Update and its undoing allocate %v times on an arena, want 0", n)
	}
}

type countingReceiver struct{ fired int }

func (r *countingReceiver) Fire(int, int, uint64, any) { r.fired++ }

// Scheduling and firing a typed event on a warm scheduler: the event comes
// off the free list and goes back. On a lane the event is its own link, so
// waiting there costs nothing either.
func TestAllocBudgetTypedEvent(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sched := des.NewScheduler()
	r := &countingReceiver{}
	var arg any = r
	var lane des.Lane
	for _, leg := range []struct {
		name     string
		schedule func(i int) (des.Handle, error)
	}{
		{"heap", func(i int) (des.Handle, error) {
			return sched.Schedule(sched.Now()+des.Time(i%7), r, 1, i, uint64(i), arg)
		}},
		{"lane", func(i int) (des.Handle, error) {
			return sched.ScheduleLane(&lane, sched.Now()+des.Time(i), r, 1, i, uint64(i), arg)
		}},
	} {
		cycle := func() {
			for i := 0; i < 100; i++ {
				if _, err := leg.schedule(i); err != nil {
					t.Fatal(err)
				}
			}
			sched.Run()
		}
		cycle() // warm: grow the heap and the free list
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: 100 schedule+fire cycles allocate %v times, want 0", leg.name, n)
		}
	}
	if r.fired == 0 {
		t.Fatal("nothing fired")
	}
}

type sink struct{ delivered int }

func (s *sink) Deliver(topology.Node, any) { s.delivered++ }
func (s *sink) PeerDown(topology.Node)     {}
func (s *sink) PeerUp(topology.Node)       {}

// Sending a payload that is already boxed and delivering it to a sink: a
// FIFO push, a typed event, a FIFO pop.
func TestAllocBudgetSendDeliver(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sched := des.NewScheduler()
	g := topology.Clique(4)
	net := netsim.New(sched, g, 2*time.Millisecond)
	to := &sink{}
	for _, v := range g.Nodes() {
		net.Attach(v, to)
	}
	var payload any = bgp.Update{Dest: 0, Path: routing.Path{1, 0}}
	cycle := func() {
		for i := 0; i < 60; i++ {
			if err := net.Send(topology.Node(i%4), topology.Node((i+1+i/4%3)%4), payload); err != nil {
				t.Fatal(err)
			}
		}
		sched.Run()
	}
	cycle() // warm: per-link queues, heap, free list
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("60 sends and deliveries allocate %v times, want 0", n)
	}
	if to.delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// One whole Clique(10) MRAI=0 T_down trial, set-up, replay and loop scan
// included: about 23 k messages. It took 209 k allocations while every
// message cost eight, and 1.9 MiB while its processing backlog, about
// 5,000 events, sat in the event heap rather than on the speakers' lanes;
// 1.41 MiB while a node id took 8 bytes, 1.21 MiB with 4; 1.07 MiB once
// the oscillation probe rode only a cut trial's diagnosis re-run. 5,597
// allocations while each best change made its path and boxed its update on
// its own and each link's in-flight queue grew by itself, 771 with those
// cut from trial-owned slabs.
func TestAllocBudgetCliqueTrial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 0
	var sent int
	trial := func() {
		res, err := Run(CliqueTDown(10, cfg, 1))
		if err != nil {
			t.Fatal(err)
		}
		sent = res.Net.Sent
	}
	n, b := testing.AllocsPerRun(3, trial), bytesPerRun(3, trial)
	t.Logf("%v allocations, %.2f MiB for %d messages", n, b/(1<<20), sent)
	if sent < 20000 {
		t.Fatalf("only %d messages sent; the trial is not the path-exploration blow-up any more", sent)
	}
	if n > 1000 {
		t.Errorf("one Clique(10) MRAI=0 trial allocates %v times, budget 1000", n)
	}
	if b >= 1.15*(1<<20) {
		t.Errorf("one Clique(10) MRAI=0 trial allocates %.2f MiB, budget < 1.15", b/(1<<20))
	}
}

// One degraded-clique trial, the session FSM's run: four of a Clique(5)'s
// links lose half their messages for 15 s, so hold timers expire, sessions
// re-establish with backoff and keepalives flow until the impairment
// clears. 679 allocations while every retry, hold and keepalive timer was
// a closure of its own, 229 with them typed events on the speaker, 153
// with each Open cut from the speaker group's slab instead of boxed on
// its own.
func TestAllocBudgetSessionTrial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sc, err := LoadScenarioFile("../../examples/specs/degraded-clique.json")
	if err != nil {
		t.Fatal(err)
	}
	var expiries, keepalives int
	trial := func() {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		expiries, keepalives = res.HoldExpiries, res.KeepalivesSent
	}
	n := testing.AllocsPerRun(3, trial)
	t.Logf("%v allocations; %d hold expiries, %d keepalives", n, expiries, keepalives)
	if expiries == 0 || keepalives == 0 {
		t.Fatalf("%d hold expiries, %d keepalives: the trial no longer runs the FSM's timers", expiries, keepalives)
	}
	if n > 180 {
		t.Errorf("one degraded-clique trial allocates %v times, budget 180", n)
	}
}

// One clique5-flap-damping trial, the only damping run: three pre-flaps
// build penalties until routes are suppressed, and their reuse timers end
// the suppressions. 367 allocations while each (destination, peer) damping
// state was boxed on the peer's first update, 315 with it held by value in
// the speaker group's slab.
func TestAllocBudgetDampingTrial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sc, err := LoadScenarioFile("../../examples/specs/clique5-flap-damping.json")
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, reused int
	trial := func() {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		suppressed, reused = res.RoutesSuppressed, res.RoutesReused
	}
	n := testing.AllocsPerRun(3, trial)
	t.Logf("%v allocations; %d routes suppressed, %d reused", n, suppressed, reused)
	if suppressed == 0 || reused == 0 {
		t.Fatalf("%d suppressed, %d reused: the trial no longer runs flap damping", suppressed, reused)
	}
	if n > 340 {
		t.Errorf("one clique5-flap-damping trial allocates %v times, budget 340", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Decoding one cached Clique(15) T_down result, the unit of a warm sweep:
// encoding/json took 718 allocations for this one, about six per loop.
func TestAllocBudgetDecodeResult(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	res, err := Run(CliqueTDown(15, bgp.DefaultConfig(), 1))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d loops in %d bytes: %v allocations", len(res.Loops), len(enc), n)
	if n > 40 {
		t.Errorf("decoding one Clique(15) result allocates %v times, budget 40", n)
	}
}

// The per-router randomness budgets. An Internet(1000) trial opens 2,000
// streams and none draws 274 numbers, so a stream costs what it draws:
// eagerly seeded math/rand sources were 5,376 B and 12.7 µs each, 51 % of
// the trial and two thirds of its memory.

// A stream that draws 10 or 200 numbers: the rand.Rand, on the caller's
// stack, and the 24 B source. The 10-draw one took 160 B and the 200-draw
// one 5,536 B while a register came with the 17th draw.
func TestAllocBudgetStream(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	rng := des.NewRNG(1)
	var sum int64
	for _, draws := range []int{10, 200} {
		open := func() {
			s := rng.StreamN("bgp/proc/", 417)
			for i := 0; i < draws; i++ {
				sum += s.Int63()
			}
		}
		if n := testing.AllocsPerRun(1000, open); n > 2 {
			t.Errorf("a %d-draw stream allocates %v times, budget 2", draws, n)
		}
		if b := bytesPerRun(1000, open); b >= 32 {
			t.Errorf("a %d-draw stream allocates %.0f B, budget < 32 (its 24 B source)", draws, b)
		}
	}
}

// One speaker on a degree-3 node, before its first event: 1,115 B while
// each of its two stream sources was 160 B, 843 B at 24 B, 928 B once its
// group carried a path arena and an update slab.
func TestAllocBudgetNewSpeaker(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sched := des.NewScheduler()
	g := topology.Clique(4)
	net := netsim.New(sched, g, 2*time.Millisecond)
	rng := des.NewRNG(1)
	cfg := bgp.DefaultConfig()
	build := func() {
		if _, err := bgp.NewSpeaker(2, sched, net, cfg, rng, nil); err != nil {
			t.Fatal(err)
		}
	}
	n, b := testing.AllocsPerRun(200, build), bytesPerRun(200, build)
	t.Logf("NewSpeaker on a degree-3 node: %v allocations, %.0f B", n, b)
	if n > 8 {
		t.Errorf("NewSpeaker allocates %v times, budget 8", n)
	}
	if b >= 1024 {
		t.Errorf("NewSpeaker allocates %.0f B, budget < 1024", b)
	}
}

// One whole Internet(1000) T_long trial with the generator in it, as the
// inet1000-tlong benchmark workload runs it: 15.5 MiB while every stream
// carried a seeded register, 4.2 MiB while one came with the 17th draw and
// 3.5 MiB with none before the 274th, 3.40 MiB while every MRAI expiry was
// an event and 3.20 MiB with those no send waits on kept out of the event
// queue, 2.69 MiB with 4-byte node ids; 32.7 k allocations while each
// router built its own state, 14.5 k with the speakers built in one pass;
// 13.7 k and 2.55 MiB while every receiver copied the paths it kept, 10.5 k
// and 2.46 MiB with the announced paths shared, 3.6 k and 2.36 MiB with best
// paths, announcements and in-flight records cut from trial-owned slabs.
func TestAllocBudgetInternet1000Trial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	gen := InternetTLong(1000, bgp.DefaultConfig(), 1)
	trial := func() {
		sc, err := gen(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	n, b := testing.AllocsPerRun(2, trial), bytesPerRun(2, trial)
	t.Logf("one Internet(1000) T_long generate + run: %v allocations, %.3f MiB", n, b/(1<<20))
	if n > 4200 {
		t.Errorf("one Internet(1000) T_long trial allocates %v times, budget 4200", n)
	}
	if b >= 2.52*(1<<20) {
		t.Errorf("one Internet(1000) T_long trial allocates %.3f MiB, budget < 2.52", b/(1<<20))
	}
}

// A network and its speakers for one origin, built in one pass: 20
// allocations at 1,000 routers and at 3,000 alike, about 1.35 KB per router
// with its destination state (1.6 KB while a stream source was 160 B).
// Built node by node they took 9,019 and 27,023 allocations, 1.7 and
// 1.9 KB per router before any destination state.
func TestAllocBudgetSpeakerGroup(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	counts := map[int]float64{}
	for _, size := range []int{1000, 3000} {
		g, err := topology.InternetLike(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		sched := des.NewScheduler()
		build := func() {
			net := netsim.New(sched, g, 2*time.Millisecond)
			if _, err := bgp.NewSpeakers(sched, net, bgp.DefaultConfig(), des.NewRNG(1), nil, []topology.Node{0}); err != nil {
				t.Fatal(err)
			}
		}
		n, b := testing.AllocsPerRun(3, build), bytesPerRun(3, build)
		perRouter := b / float64(size)
		t.Logf("Internet(%d), %d links: %v allocations, %.0f B per router", size, 2*g.NumEdges(), n, perRouter)
		counts[size] = n
		if perRouter >= 1450 {
			t.Errorf("Internet(%d): building a network and its speakers allocates %.0f B per router, budget < 1450", size, perRouter)
		}
	}
	if counts[1000] != counts[3000] {
		t.Errorf("building 1,000 routers takes %v allocations and 3,000 take %v; want the same", counts[1000], counts[3000])
	}
	if counts[1000] > 24 {
		t.Errorf("building a network and its speakers allocates %v times, budget 24", counts[1000])
	}
}

// Building the Internet(1000) graph: 117 KiB while a map keyed by edge sat
// beside the sorted adjacency lists, 46 % of the build; 63 KiB with the
// lists alone (Internet(10000): 999 and 542 KiB).
func TestAllocBudgetInternetGraph(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	var g *topology.Graph
	build := func() {
		var err error
		if g, err = topology.InternetLike(1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	b := bytesPerRun(5, build)
	t.Logf("InternetLike(1000), %d edges: %.1f KiB", g.NumEdges(), b/(1<<10))
	if b >= 70*(1<<10) {
		t.Errorf("building InternetLike(1000) allocates %.1f KiB, budget < 70", b/(1<<10))
	}
}

// One whole Internet(110) T_down trial, the paper's headline rung, built
// outside the measurement: 1.89 MiB while replay stepped every looping
// packet across every FIB change, 1.85 MiB with cohorts parked on their
// cycles, and 2.09 MiB if every parked packet kept an entry of its own;
// 1.73 MiB while a stream's 17th draw allocated its register, 0.95 MiB
// with no register before the 274th, 0.69 MiB with 4-byte node ids, and
// 0.59 MiB once the oscillation probe rode only a cut trial's diagnosis
// re-run, and 0.52 MiB with the announced paths shared, not copied.
// 8,133 allocations while the FIB history kept a log per node beside its
// merged one, 7,182 with the one log alone, 5,053 while every receiver
// copied the paths it kept, 4,075 with them shared and 530 with best paths,
// announcements and in-flight records cut from trial-owned slabs.
func TestAllocBudgetInternet110Trial(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	sc, err := InternetTDown(110, bgp.DefaultConfig(), 2)(2)
	if err != nil {
		t.Fatal(err)
	}
	trial := func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	n, b := testing.AllocsPerRun(3, trial), bytesPerRun(3, trial)
	t.Logf("one Internet(110) T_down trial: %v allocations, %.2f MiB", n, b/(1<<20))
	if n > 700 {
		t.Errorf("one Internet(110) T_down trial allocates %v times, budget 700", n)
	}
	if b >= 0.56*(1<<20) {
		t.Errorf("one Internet(110) T_down trial allocates %.2f MiB, budget < 0.56", b/(1<<20))
	}
}

// Recording into a 1,000-node history: a first next hop for every node,
// then a change on every node. The history grows one log, so the cost is
// its growth, O(log) allocations, whatever the number of nodes.
func TestAllocBudgetHistoryRecord(t *testing.T) {
	skipUnlessAllocsAreOurs(t)
	const n = 1000
	var h *dataplane.History
	n0 := testing.AllocsPerRun(20, func() { h = dataplane.NewHistory(n) })
	record := func() {
		h = dataplane.NewHistory(n)
		for round := des.Time(1); round <= 2; round++ {
			for v := topology.Node(0); v < n; v++ {
				if err := h.Record(round*time.Millisecond, v, (v+topology.Node(round))%n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(20, record) - n0
	t.Logf("%d records on %d nodes: %v allocations beyond NewHistory's %v", 2*n, n, allocs, n0)
	if h.TotalChanges() != 2*n {
		t.Fatalf("%d changes, want %d", h.TotalChanges(), 2*n)
	}
	if allocs > 24 {
		t.Errorf("%d records on %d nodes allocate %v times, budget 24", 2*n, n, allocs)
	}
}
