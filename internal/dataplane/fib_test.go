package dataplane

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

func mustRecord(t *testing.T, h *History, at des.Time, node, nh topology.Node) {
	t.Helper()
	if err := h.Record(at, node, nh); err != nil {
		t.Fatalf("Record(%v, %d, %d): %v", at, node, nh, err)
	}
}

func TestHistoryLookup(t *testing.T) {
	h := NewHistory(3)
	mustRecord(t, h, 10*time.Second, 1, 2)
	mustRecord(t, h, 20*time.Second, 1, 0)
	tests := []struct {
		at   des.Time
		want topology.Node
	}{
		{0, topology.None},
		{9 * time.Second, topology.None},
		{10 * time.Second, 2},
		{15 * time.Second, 2},
		{20 * time.Second, 0},
		{time.Hour, 0},
	}
	for _, tt := range tests {
		if got := h.NextHop(1, tt.at); got != tt.want {
			t.Errorf("NextHop(1, %v) = %d, want %d", tt.at, got, tt.want)
		}
	}
	if got := h.NextHop(0, time.Hour); got != topology.None {
		t.Errorf("unrecorded node next hop = %d, want None", got)
	}
}

func TestHistoryCoalescesUnchanged(t *testing.T) {
	h := NewHistory(2)
	mustRecord(t, h, time.Second, 0, 1)
	mustRecord(t, h, 2*time.Second, 0, 1) // same hop: no new record
	if got := h.Changes(0); got != 1 {
		t.Errorf("Changes = %d, want 1", got)
	}
}

func TestHistorySameInstantOverwrites(t *testing.T) {
	h := NewHistory(2)
	mustRecord(t, h, time.Second, 0, 1)
	mustRecord(t, h, 5*time.Second, 0, topology.None)
	mustRecord(t, h, 5*time.Second, 0, 1) // back to 1 within the instant
	// The None blip at t=5s is unobservable; the record must coalesce
	// back to a single entry.
	if got := h.Changes(0); got != 1 {
		t.Errorf("Changes = %d, want 1 after same-instant overwrite", got)
	}
	if got := h.NextHop(0, 5*time.Second); got != 1 {
		t.Errorf("NextHop at overwritten instant = %d, want 1", got)
	}
}

func TestHistoryLeadingNoneIgnored(t *testing.T) {
	h := NewHistory(2)
	mustRecord(t, h, time.Second, 0, topology.None)
	if got := h.Changes(0); got != 0 {
		t.Errorf("Changes = %d, want 0 (None is the implicit initial state)", got)
	}
}

func TestHistoryRejectsOutOfOrder(t *testing.T) {
	h := NewHistory(2)
	mustRecord(t, h, 10*time.Second, 0, 1)
	if err := h.Record(5*time.Second, 0, topology.None); err == nil {
		t.Error("out-of-order record accepted")
	}
	if err := h.Record(time.Second, 5, 0); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// A next hop outside the history must be refused at the door: Replay and
// the loop scan index by next hop unchecked.
func TestHistoryRejectsOutOfRangeNextHop(t *testing.T) {
	tests := []struct {
		nexthop topology.Node
		wantErr bool
	}{
		{topology.None, false},
		{0, false},
		{1, false}, // itself: a self-loop FIB is representable
		{2, false},
		{3, true},
		{100, true},
		{-2, true},
	}
	for _, tt := range tests {
		h := NewHistory(3)
		mustRecord(t, h, time.Second, 1, 0)
		for _, at := range []des.Time{time.Second, 2 * time.Second} { // overwrite, append
			if err := h.Record(at, 1, tt.nexthop); (err != nil) != tt.wantErr {
				t.Errorf("Record(%v, 1, %d) error = %v, want error %v", at, tt.nexthop, err, tt.wantErr)
			}
		}
		if tt.wantErr && h.NextHop(1, time.Hour) != 0 {
			t.Errorf("refused next hop %d left a mark: NextHop = %d", tt.nexthop, h.NextHop(1, time.Hour))
		}
	}
}

func TestChangeTimes(t *testing.T) {
	h := NewHistory(3)
	mustRecord(t, h, 2*time.Second, 0, 1)
	mustRecord(t, h, time.Second, 1, 2)
	mustRecord(t, h, 2*time.Second, 1, 0)
	got := h.ChangeTimes()
	want := []des.Time{time.Second, 2 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("ChangeTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangeTimes = %v, want %v", got, want)
		}
	}
	if h.TotalChanges() != 3 {
		t.Errorf("TotalChanges = %d, want 3", h.TotalChanges())
	}
}

func TestSnapshot(t *testing.T) {
	h := NewHistory(3)
	mustRecord(t, h, time.Second, 0, 1)
	mustRecord(t, h, time.Second, 1, 2)
	snap := h.Snapshot(time.Second, nil)
	if snap[0] != 1 || snap[1] != 2 || snap[2] != topology.None {
		t.Errorf("Snapshot = %v", snap)
	}
	// Reuse path.
	buf := make([]topology.Node, 3)
	snap2 := h.Snapshot(0, buf)
	for _, nh := range snap2 {
		if nh != topology.None {
			t.Errorf("Snapshot(0) = %v, want all None", snap2)
		}
	}
}

// TestPropertyLookupMatchesLinearScan cross-checks the binary-search lookup
// against a naive linear reconstruction on random change logs.
func TestPropertyLookupMatchesLinearScan(t *testing.T) {
	f := func(deltasMs []uint8, hops []uint8, queryMs uint16) bool {
		if len(deltasMs) > len(hops) {
			deltasMs = deltasMs[:len(hops)]
		} else {
			hops = hops[:len(deltasMs)]
		}
		h := NewHistory(2)
		type rec struct {
			at des.Time
			nh topology.Node
		}
		var log []rec
		at := des.Time(0)
		for i := range deltasMs {
			at += time.Duration(deltasMs[i]) * time.Millisecond
			nh := topology.Node(int(hops[i])%3) - 1 // -1 (None), 0, 1
			if err := h.Record(at, 0, nh); err != nil {
				return false
			}
			log = append(log, rec{at: at, nh: nh})
		}
		q := time.Duration(queryMs) * time.Millisecond
		want := topology.None
		for _, r := range log {
			if r.at <= q {
				want = r.nh
			}
		}
		return h.NextHop(0, q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The iterators of one History share one merged log, which Record extends
// or replaces but never edits, so an iterator never sees a record made
// after it was created.
func TestEpochsShareMergedLog(t *testing.T) {
	h := NewHistory(3)
	mustRecord(t, h, 0, 1, 0)
	mustRecord(t, h, 5, 2, 1)
	a, b := h.Epochs(), h.Epochs()
	if &a.log[0] != &b.log[0] {
		t.Error("a second iterator merged the log again")
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Epochs() }); allocs > 2 {
		t.Errorf("Epochs allocates %v times on a merged history, want the iterator and its Hops", allocs)
	}
	mustRecord(t, h, 7, 2, 1) // coalesced: no change
	if c := h.Epochs(); &c.log[0] != &a.log[0] {
		t.Error("a coalesced record merged the log again")
	}
	mustRecord(t, h, 9, 1, 2)
	starts := func(e *Epochs) []des.Time {
		var out []des.Time
		for e.Next() {
			out = append(out, e.Start)
		}
		return out
	}
	if got, want := starts(h.Epochs()), []des.Time{minTime, 0, 5, 9}; !slices.Equal(got, want) {
		t.Errorf("epochs after a new record start at %v, want %v", got, want)
	}
	if got, want := starts(a), []des.Time{minTime, 0, 5}; !slices.Equal(got, want) {
		t.Errorf("an earlier iterator's epochs start at %v, want %v", got, want)
	}
	// Neither a record that sorts before the last one nor a same-instant
	// overwrite may write into a log an iterator holds.
	d := h.Epochs()
	mustRecord(t, h, 9, 0, 1)
	mustRecord(t, h, 9, 1, 0)
	for d.Next() {
	}
	if want := []topology.Node{topology.None, 2, 1}; !slices.Equal(d.Hops, want) {
		t.Errorf("an earlier iterator ends on %v, want %v", d.Hops, want)
	}
	if got, want := starts(h.Epochs()), []des.Time{minTime, 0, 5, 9}; !slices.Equal(got, want) {
		t.Errorf("epochs after an overwrite start at %v, want %v", got, want)
	}
	if e := h.Epochs(); !slices.Equal(e.log, h.mergeLog()) {
		t.Errorf("the kept log is %v, a fresh merge %v", e.log, h.mergeLog())
	}
}

// Readers of one History may call Epochs concurrently: only Record writes
// the shared log. Run under -race.
func TestEpochsConcurrentReaders(t *testing.T) {
	h := NewHistory(4)
	mustRecord(t, h, 0, 2, 1)
	mustRecord(t, h, 0, 3, 1)
	for k := 0; k < 50; k++ {
		mustRecord(t, h, time.Duration(k)*150*time.Millisecond, 1, topology.Node(2+k%2))
	}
	cfg := ReplayConfig{Dest: 0, Sources: []topology.Node{1, 2, 3}, End: 5 * time.Second}
	const readers = 4
	results := make([]ReplayResult, readers)
	epochs := make([]int, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := h.Epochs(); e.Next(); {
				epochs[i]++
			}
			res, err := Replay(h, cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if results[i] != results[0] || epochs[i] != epochs[0] {
			t.Errorf("reader %d saw %d epochs and %+v, reader 0 %d and %+v", i, epochs[i], results[i], epochs[0], results[0])
		}
	}
}
