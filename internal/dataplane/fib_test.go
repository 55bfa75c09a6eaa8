package dataplane

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

func mustRecord(t *testing.T, h recorder, at des.Time, node, nh topology.Node) {
	t.Helper()
	if err := h.Record(at, node, nh); err != nil {
		t.Fatalf("Record(%v, %d, %d): %v", at, node, nh, err)
	}
}

func TestHistoryLookup(t *testing.T) {
	d := newDual(3)
	mustRecord(t, d, 10*time.Second, 1, 2)
	mustRecord(t, d, 20*time.Second, 1, 0)
	h := d.ref
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
	if got, got0 := d.NextHop(1), d.NextHop(0); got != 0 || got0 != topology.None {
		t.Errorf("latest next hops = %d, %d, want 0, None", got, got0)
	}
}

func TestHistoryCoalescesUnchanged(t *testing.T) {
	d := newDual(2)
	mustRecord(t, d, time.Second, 0, 1)
	mustRecord(t, d, 2*time.Second, 0, 1) // same hop: no new record
	if got, ref := d.TotalChanges(), d.ref.Changes(0); got != 1 || ref != 1 {
		t.Errorf("TotalChanges = %d, reference Changes = %d, want 1", got, ref)
	}
}

func TestHistorySameInstantOverwrites(t *testing.T) {
	d := newDual(2)
	mustRecord(t, d, time.Second, 0, 1)
	mustRecord(t, d, 5*time.Second, 0, topology.None)
	mustRecord(t, d, 5*time.Second, 0, 1) // back to 1 within the instant
	// The None blip at t=5s is unobservable; the record must coalesce
	// back to a single entry.
	if got, ref := d.TotalChanges(), d.ref.Changes(0); got != 1 || ref != 1 {
		t.Errorf("TotalChanges = %d, reference Changes = %d, want 1 after same-instant overwrite", got, ref)
	}
	if got, ref := d.NextHop(0), d.ref.NextHop(0, 5*time.Second); got != 1 || ref != 1 {
		t.Errorf("NextHop = %d, reference at the overwritten instant %d, want 1", got, ref)
	}
	if at, ok := d.LastChange(); !ok || at != time.Second {
		t.Errorf("LastChange = %v, %v, want 1s", at, ok)
	}
}

func TestHistoryLeadingNoneIgnored(t *testing.T) {
	d := newDual(2)
	mustRecord(t, d, time.Second, 0, topology.None)
	if got, ref := d.TotalChanges(), d.ref.Changes(0); got != 0 || ref != 0 {
		t.Errorf("TotalChanges = %d, reference Changes = %d, want 0 (None is the implicit initial state)", got, ref)
	}
	if _, ok := d.LastChange(); ok {
		t.Error("LastChange reports a change")
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
		if tt.wantErr && (h.NextHop(1) != 0 || h.TotalChanges() != 1) {
			t.Errorf("refused next hop %d left a mark: NextHop = %d, %d changes", tt.nexthop, h.NextHop(1), h.TotalChanges())
		}
	}
}

func TestChangeTimes(t *testing.T) {
	d := newDual(3)
	mustRecord(t, d, 2*time.Second, 0, 1)
	mustRecord(t, d, time.Second, 1, 2)
	mustRecord(t, d, 2*time.Second, 1, 0)
	got := d.ref.ChangeTimes()
	want := []des.Time{time.Second, 2 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("ChangeTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangeTimes = %v, want %v", got, want)
		}
	}
	if d.TotalChanges() != 3 || d.ref.TotalChanges() != 3 {
		t.Errorf("TotalChanges = %d, reference %d, want 3", d.TotalChanges(), d.ref.TotalChanges())
	}
	if at, ok := d.LastChange(); !ok || at != 2*time.Second {
		t.Errorf("LastChange = %v, %v, want 2s", at, ok)
	}
}

func TestSnapshot(t *testing.T) {
	h := newRefHistory(3)
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

// The iterators of one History share its log, which Record extends or
// replaces but never edits, so an iterator never sees a record made after
// it was created.
func TestEpochsShareMergedLog(t *testing.T) {
	h := newDual(3)
	mustRecord(t, h, 0, 1, 0)
	mustRecord(t, h, 5, 2, 1)
	a, b := h.Epochs(), h.Epochs()
	if &a.log[0] != &b.log[0] {
		t.Error("a second iterator copied the log")
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Epochs() }); allocs > 2 {
		t.Errorf("Epochs allocates %v times, want the iterator and its Hops", allocs)
	}
	mustRecord(t, h, 7, 2, 1) // coalesced: no change
	if c := h.Epochs(); &c.log[0] != &a.log[0] {
		t.Error("a coalesced record replaced the log")
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
	if e := h.Epochs(); !slices.Equal(e.log, h.ref.mergeLog()) {
		t.Errorf("the kept log is %v, the reference's merged %v", e.log, h.ref.mergeLog())
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

// After a same-instant revert the node's entry at that instant is gone, but
// History still refuses a later record before the instant, where the
// per-node reference, having forgotten the instant, accepted it. This is
// the one record on which the two differ; the DES never makes it, since no
// record goes back in time.
func TestHistoryRefusesRecordBeforeRevertedInstant(t *testing.T) {
	d := newDual(2)
	mustRecord(t, d, 5, 0, 1)
	mustRecord(t, d, 10, 0, topology.None)
	mustRecord(t, d, 10, 0, 1) // back to 1 within the instant
	if err := d.History.Record(7, 0, topology.None); err == nil {
		t.Error("a record before the reverted instant accepted")
	}
	if err := d.ref.Record(7, 0, topology.None); err != nil {
		t.Errorf("the reference refuses it: %v", err)
	}
	if d.NextHop(0) != 1 || d.TotalChanges() != 1 {
		t.Errorf("the refused record left a mark: NextHop = %d, %d changes", d.NextHop(0), d.TotalChanges())
	}
}

// decodeRecords turns bytes into a node count and a record stream for
// historyDiff. The first byte picks 1-6 nodes; every following byte pair is
// one record. The low three bits of the first move the clock by -1 to +6
// half-millisecond ticks from time 0: 0 keeps the instant, so records
// overwrite their node's entry or revert it to the hop before the instant,
// and a step back makes a record sort before the log's end, or come out of
// order for its node. The rest pick the node, and one value in eight a node
// out of range. The second byte picks the next hop, None included, and one
// value in sixteen one out of range, -2 or the node count.
func decodeRecords(data []byte) (int, []change) {
	const tick = 500 * time.Microsecond
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0])%6
	var recs []change
	var at des.Time
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		a, b := int(data[0]), int(data[1])
		at += des.Time(a&7-1) * tick
		c := change{at: at, node: topology.Node((a >> 3) % n), hop: topology.Node(b%(n+1) - 1)}
		if a>>3 >= 28 {
			c.node = topology.Node(n)
		}
		if b >= 240 {
			c.hop = topology.Node(b%2*(n+2) - 2)
		}
		recs = append(recs, c)
	}
	return n, recs
}

// epoch is one step of an Epochs iterator, copied out.
type epoch struct {
	start, end    des.Time
	hops, changed []topology.Node
}

// collectEpochs runs e to its end.
func collectEpochs(e *Epochs) []epoch {
	var out []epoch
	for e.Next() {
		out = append(out, epoch{e.Start, e.End, slices.Clone(e.Hops), slices.Clone(e.Changed)})
	}
	return out
}

// refEpochs derives the epoch sequence a History of the same records must
// yield from the reference's point queries alone: an epoch from minTime and
// one from every change instant, each with the snapshot at its start and
// the nodes that have a change at that very instant.
func refEpochs(r *refHistory) []epoch {
	starts := append([]des.Time{minTime}, r.ChangeTimes()...)
	out := make([]epoch, len(starts))
	for i, t := range starts {
		ep := epoch{start: t, end: maxTime, hops: r.Snapshot(t, nil)}
		if i+1 < len(starts) {
			ep.end = starts[i+1]
		}
		for v, ts := range r.times {
			if slices.Contains(ts, t) {
				ep.changed = append(ep.changed, topology.Node(v))
			}
		}
		out[i] = ep
	}
	return out
}

// epochsDiff describes the first difference of two epoch sequences ("" if
// none).
func epochsDiff(got, want []epoch) string {
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.start != w.start || g.end != w.end || !slices.Equal(g.hops, w.hops) || !slices.Equal(g.changed, w.changed) {
			return fmt.Sprintf("epoch %d: %+v, reference %+v", i, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d epochs, reference %d", len(got), len(want))
	}
	return ""
}

// historyCounts says what of Record's paths a stream reached.
type historyCounts struct {
	refused, reverts, beforeEnd, diverged int
}

// historyDiff records the stream into a History and the reference and
// describes the first disagreement ("" if none). After every record the two
// must agree on whether it was refused, TotalChanges, every node's latest
// next hop, LastChange and the whole epoch sequence, and an iterator taken
// before the record must still yield the sequence from before it. One
// record may differ: a record before the instant of a node's reverted
// change, which History refuses and the reference accepts
// (TestHistoryRefusesRecordBeforeRevertedInstant). The comparison ends
// there.
func historyDiff(n int, recs []change) (historyCounts, string) {
	var cnt historyCounts
	h, ref := NewHistory(n), newRefHistory(n)
	// latest[v] is the instant of v's latest record that changed its next
	// hop, reverted or not.
	latest := make([]des.Time, n)
	for v := range latest {
		latest[v] = minTime
	}
	want := refEpochs(ref)
	for k, c := range recs {
		held := h.Epochs()
		end, total := ref.ChangeTimes(), ref.TotalChanges()
		before := ref.NextHop(c.node, maxTime)
		err, refErr := h.Record(c.at, c.node, c.hop), ref.Record(c.at, c.node, c.hop)
		switch {
		case err != nil && refErr == nil && c.at < latest[c.node]:
			cnt.diverged++
			return cnt, ""
		case (err == nil) != (refErr == nil):
			return cnt, fmt.Sprintf("record %d %+v: error %v, reference error %v", k, c, err, refErr)
		case err != nil:
			cnt.refused++
		case c.hop != before:
			latest[c.node] = c.at
			if len(end) > 0 && c.at < end[len(end)-1] {
				cnt.beforeEnd++
			}
		}
		if ref.TotalChanges() < total {
			cnt.reverts++
		}
		if got, w := h.TotalChanges(), ref.TotalChanges(); got != w {
			return cnt, fmt.Sprintf("record %d %+v: TotalChanges = %d, reference %d", k, c, got, w)
		}
		for v := range n {
			if got, w := h.NextHop(topology.Node(v)), ref.NextHop(topology.Node(v), maxTime); got != w {
				return cnt, fmt.Sprintf("record %d %+v: NextHop(%d) = %d, reference %d", k, c, v, got, w)
			}
		}
		at, ok := h.LastChange()
		if times := ref.ChangeTimes(); ok != (len(times) > 0) || ok && at != times[len(times)-1] {
			return cnt, fmt.Sprintf("record %d %+v: LastChange = %v, %v, reference change times %v", k, c, at, ok, times)
		}
		if diff := epochsDiff(collectEpochs(held), want); diff != "" {
			return cnt, fmt.Sprintf("record %d %+v: an iterator taken before it: %s", k, c, diff)
		}
		want = refEpochs(ref)
		if diff := epochsDiff(collectEpochs(h.Epochs()), want); diff != "" {
			return cnt, fmt.Sprintf("record %d %+v: %s", k, c, diff)
		}
	}
	return cnt, ""
}

// TestHistoryMatchesReference checks History against the per-node
// reference it replaced (reference_test.go) on seeded random record streams
// of decodeRecords.
func TestHistoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20044))
	var sum historyCounts
	var records int
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+2*rng.Intn(48))
		rng.Read(data)
		n, recs := decodeRecords(data)
		cnt, diff := historyDiff(n, recs)
		if diff != "" {
			t.Fatalf("case %d (%d nodes):\n%s", i, n, diff)
		}
		records += len(recs)
		sum.refused += cnt.refused
		sum.reverts += cnt.reverts
		sum.beforeEnd += cnt.beforeEnd
		sum.diverged += cnt.diverged
	}
	// A generator that drifts into producing none of these would leave the
	// comparison above vacuous.
	t.Logf("%d records: %d refused, %d reverts within an instant, %d sorting before the log's end, %d refused before a reverted instant",
		records, sum.refused, sum.reverts, sum.beforeEnd, sum.diverged)
	if sum.refused == 0 || sum.reverts == 0 || sum.beforeEnd == 0 || sum.diverged == 0 {
		t.Errorf("a kind of record went missing from the generated streams: %+v", sum)
	}
}

// FuzzHistoryMatchesReference is the same comparison driven by the fuzzer:
// the input decodes (decodeRecords) to a node count and a record stream.
func FuzzHistoryMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 129 {
			data = data[:129] // keep streams short; long inputs add no new shape
		}
		if _, diff := historyDiff(decodeRecords(data)); diff != "" {
			t.Fatal(diff)
		}
	})
}
