package dist

import (
	"sort"
	"time"
)

// trialOutcome is what a waiting Execute call receives: the trial's
// encoded result bytes, or the error a worker reported for it.
type trialOutcome struct {
	data []byte
	err  error
}

// trialSlot is one wanted trial of a distributed sweep. Slots are
// created by Execute (the sweep.Remote seam demanding the trial) and
// live until the sweep finishes; done slots stay in the table so a late
// hedged twin's report is classified as a duplicate instead of unknown.
type trialSlot struct {
	index int
	key   string
	ch    chan trialOutcome
	// cover counts the active leases currently holding the trial (0 =
	// pending, 1 = leased, 2+ = hedged). attempts counts grants.
	cover    int
	attempts int
	done     bool
	// abandoned marks a slot whose Execute waiter gave up (context
	// canceled); a later result for it is dropped as a duplicate.
	abandoned bool
}

// lease is one granted chunk with its deadline.
type lease struct {
	id       string
	worker   string
	trials   []int
	hedged   bool // this lease is a duplicate grant of outstanding trials
	hedges   int  // duplicate grants issued on top of this lease
	deadline time.Time
}

// maxHedges caps the duplicate grants issued on top of one lease.
const maxHedges = 1

// sweepState is the coordinator-side state of one distributed sweep.
// All fields are guarded by the Coordinator mutex.
type sweepState struct {
	id   string
	spec []byte

	slots   map[int]*trialSlot
	pending []int // slot indices with cover==0 && !done, ascending
	leases  map[string]*lease
	order   []string // lease IDs in grant order (for hedging and expiry scans)
	done    bool
}

func newSweepState(id string, spec []byte) *sweepState {
	return &sweepState{
		id:     id,
		spec:   spec,
		slots:  map[int]*trialSlot{},
		leases: map[string]*lease{},
	}
}

// addPending inserts a trial index into the ascending pending list.
func (sw *sweepState) addPending(i int) {
	at := sort.SearchInts(sw.pending, i)
	if at < len(sw.pending) && sw.pending[at] == i {
		return
	}
	sw.pending = append(sw.pending, 0)
	copy(sw.pending[at+1:], sw.pending[at:])
	sw.pending[at] = i
}

// removePending drops a trial index from the pending list if present.
func (sw *sweepState) removePending(i int) {
	at := sort.SearchInts(sw.pending, i)
	if at < len(sw.pending) && sw.pending[at] == i {
		sw.pending = append(sw.pending[:at], sw.pending[at+1:]...)
	}
}

// takePending pops up to n lowest pending indices — ascending dispatch,
// the same discipline as the local executor's feeder.
func (sw *sweepState) takePending(n int) []int {
	if n > len(sw.pending) {
		n = len(sw.pending)
	}
	take := make([]int, n)
	copy(take, sw.pending[:n])
	sw.pending = append(sw.pending[:0], sw.pending[n:]...)
	return take
}

// outstanding counts active leases still owed a first result.
func (sw *sweepState) outstanding() int {
	n := 0
	for _, id := range sw.order {
		if l, ok := sw.leases[id]; ok && !l.hedged {
			n++
		}
	}
	return n
}

// hedgeCandidate picks the lease an idle worker should duplicate: the
// oldest outstanding primary (non-hedged) chunk that has not exhausted
// its hedge budget and is not already held by the asking worker. The
// tail condition — hedge only when nothing is pending and at most
// hedgeLast primaries remain outstanding — is the caller's job.
func (sw *sweepState) hedgeCandidate(worker string) *lease {
	for _, id := range sw.order {
		l, ok := sw.leases[id]
		if !ok || l.hedged {
			continue
		}
		if l.worker == worker || l.hedges >= maxHedges {
			continue
		}
		return l
	}
	return nil
}

// dropLease removes a lease from the table (completed, expired, or
// superseded). Remaining cover bookkeeping is the caller's job.
func (sw *sweepState) dropLease(id string) {
	if _, ok := sw.leases[id]; !ok {
		return
	}
	delete(sw.leases, id)
	for i, lid := range sw.order {
		if lid == id {
			sw.order = append(sw.order[:i], sw.order[i+1:]...)
			break
		}
	}
}
