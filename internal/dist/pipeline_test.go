package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgploop/internal/experiment"
)

// stubCoordinator is a scripted /v1/work server for the pipeline tests.
// It leases the e2e spec's trials in order, chunk at a time, records the
// worker's requests in arrival order, and lets a test hold or refuse a
// lease poll or a result report. None of the tests below depends on
// timing: each waits for an event it caused, and the stub's waits only
// bound a test that would otherwise hang.
type stubCoordinator struct {
	spec   []byte
	keys   []string
	chunk  int
	trials int

	// onLease and onResult, when set, run on arrival, before the
	// request is served; false refuses it with 409 worker_unknown. They
	// may block.
	onLease  func(worker string) bool
	onResult func(rep *ResultReport) bool

	mu        sync.Mutex
	log       []string // "register", "lease", "result <lease id>", "deregister"
	next      int      // next trial to lease
	leases    int
	registers int
	results   map[string][]TrialResult
	reported  chan struct{} // closed once every trial is reported
}

func newStub(t *testing.T, trials, chunk int) (*stubCoordinator, *httptest.Server) {
	t.Helper()
	spec := testScenarioSpec(t)
	enc, err := EncodeSweepSpec(spec, trials)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	gen := experiment.Repeat(sc)
	keys := make([]string, trials)
	for i := range keys {
		s, err := gen(i)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = s.CacheKey()
	}
	s := &stubCoordinator{
		spec: enc, keys: keys, chunk: chunk, trials: trials,
		results: map[string][]TrialResult{}, reported: make(chan struct{}),
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func (s *stubCoordinator) record(entry string) {
	s.mu.Lock()
	s.log = append(s.log, entry)
	s.mu.Unlock()
}

func (s *stubCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/work/register":
		s.mu.Lock()
		s.registers++
		id := fmt.Sprintf("w-%d", s.registers)
		s.log = append(s.log, "register")
		s.mu.Unlock()
		writeWorkJSON(w, RegisterResponse{Worker: id})
	case "/v1/work/lease":
		var req LeaseRequest
		if !decodeWork(w, r, &req) {
			return
		}
		s.record("lease")
		if s.onLease != nil && !s.onLease(req.Worker) {
			writeWorkError(w, http.StatusConflict, "worker_unknown", "stub refused")
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.next >= s.trials {
			writeWorkJSON(w, LeaseResponse{Idle: true})
			return
		}
		s.leases++
		l := &Lease{ID: fmt.Sprintf("lease-%d", s.leases), Sweep: "stub", Spec: s.spec, Attempt: 1}
		for ; s.next < s.trials && len(l.Trials) < s.chunk; s.next++ {
			l.Trials = append(l.Trials, s.next)
			l.Keys = append(l.Keys, s.keys[s.next])
		}
		writeWorkJSON(w, LeaseResponse{Lease: l})
	case "/v1/work/result":
		var rep ResultReport
		if !decodeWork(w, r, &rep) {
			return
		}
		if s.onResult != nil && !s.onResult(&rep) {
			writeWorkError(w, http.StatusConflict, "worker_unknown", "stub refused")
			return
		}
		s.mu.Lock()
		s.log = append(s.log, "result "+rep.Lease)
		s.results[rep.Lease] = rep.Results
		n := 0
		for _, rs := range s.results {
			n += len(rs)
		}
		if n == s.trials {
			close(s.reported)
		}
		s.mu.Unlock()
		writeWorkJSON(w, ReportResponse{Accepted: len(rep.Results)})
	case "/v1/work/deregister":
		s.record("deregister")
		w.WriteHeader(http.StatusNoContent)
	default:
		http.NotFound(w, r)
	}
}

// snapshot copies the request log.
func (s *stubCoordinator) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// count returns how many log entries start with prefix.
func (s *stubCoordinator) count(prefix string) int {
	n := 0
	for _, e := range s.snapshot() {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

// waitFor reports whether ch closed within a generous bound, and
// flags the test if it did not. It is safe off the test goroutine.
func waitFor(t *testing.T, ch <-chan struct{}, what string) bool {
	t.Helper()
	select {
	case <-ch:
		return true
	case <-time.After(20 * time.Second):
		t.Errorf("timed out waiting for %s", what)
		return false
	}
}

// startWorker runs a worker at parallelism p against ts; wait returns
// Run's error.
func startWorker(t *testing.T, ts *httptest.Server, p int, fake func(ctx context.Context, gen experiment.Generator, tr *TrialResult)) (w *Worker, wait func() error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator:  ts.URL,
		Client:       ts.Client(),
		Parallelism:  p,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Sleep:        testSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fake != nil {
		w.trial = fake
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(cancel)
	return w, func() error {
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Second):
			t.Fatal("worker Run did not return")
			return nil
		}
	}
}

// gate is a fake trial executor: each trial announces its start on
// started and blocks until the test releases one slot (or closes
// release). It tracks how many trials run at once.
type gate struct {
	started chan int
	release chan struct{}

	mu      sync.Mutex
	running int
	peak    int
}

func newGate() *gate {
	return &gate{started: make(chan int, 64), release: make(chan struct{}, 64)}
}

func (g *gate) trial(ctx context.Context, _ experiment.Generator, tr *TrialResult) {
	g.mu.Lock()
	g.running++
	if g.running > g.peak {
		g.peak = g.running
	}
	g.mu.Unlock()
	g.started <- tr.Trial
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	g.mu.Lock()
	g.running--
	g.mu.Unlock()
	tr.Data = json.RawMessage(fmt.Sprintf(`{"trial":%d}`, tr.Trial))
}

func (g *gate) load() (running, peak int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running, g.peak
}

// next waits for the next trial to start.
func (g *gate) next(t *testing.T) int {
	t.Helper()
	select {
	case trial := <-g.started:
		return trial
	case <-time.After(20 * time.Second):
		t.Fatal("no trial started")
		return -1
	}
}

// TestWorkerPipelineReportsWhilePolling pins the asynchronous report: the
// stub holds the worker's first result report open until the worker has
// sent a second lease poll. A worker that polls again only once its
// report is answered (the poll → run → report loop) never sends that
// poll and fails here.
func TestWorkerPipelineReportsWhilePolling(t *testing.T) {
	_, oracleRes := localOracle(t)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			const trials = 4
			stub, ts := newStub(t, trials, 1)
			var (
				polls  atomic.Int32
				second = make(chan struct{})
				first  sync.Once
			)
			stub.onLease = func(string) bool {
				if polls.Add(1) == 2 {
					close(second)
				}
				return true
			}
			stub.onResult = func(*ResultReport) bool {
				first.Do(func() { waitFor(t, second, "a second lease poll while the first report is open") })
				return true
			}
			w, wait := startWorker(t, ts, p, nil)
			if !waitFor(t, stub.reported, "every trial reported") {
				t.FailNow()
			}
			w.Drain()
			if err := wait(); err != nil {
				t.Fatalf("drained Run returned %v", err)
			}
			// The reports carry the bytes a local run encodes.
			for _, rs := range stub.results {
				for _, tr := range rs {
					res, err := experiment.DecodeResult(tr.Data)
					if err != nil {
						t.Fatalf("trial %d: %v (error %q)", tr.Trial, err, tr.Error)
					}
					d, err := experiment.DigestResult(res)
					if err != nil {
						t.Fatal(err)
					}
					if d != oracleRes[tr.Trial] {
						t.Errorf("trial %d digest %s != local oracle %s", tr.Trial, d, oracleRes[tr.Trial])
					}
				}
			}
			if st := w.Stats(); st.Leases != trials || st.Trials != trials || st.Errors != 0 {
				t.Errorf("stats = %+v, want %d leases and trials, no errors", st, trials)
			}
		})
	}
}

// TestWorkerPipelineSlotBound pins the slot pool: never more than
// Parallelism trials at once, every slot used, and a lease poll only
// while a slot is idle.
func TestWorkerPipelineSlotBound(t *testing.T) {
	const p, trials = 2, 6
	stub, ts := newStub(t, trials, 1)
	g := newGate()
	var busyPolls atomic.Int32
	stub.onLease = func(string) bool {
		if running, _ := g.load(); running >= p {
			busyPolls.Add(1)
		}
		return true
	}
	w, wait := startWorker(t, ts, p, g.trial)
	for i := 0; i < trials; i++ {
		g.next(t)
		if i+1 >= p && i+1 < trials {
			// Every slot is busy: one trial must end before the next
			// starts.
			if running, _ := g.load(); running != p {
				t.Fatalf("after %d starts %d trials run, want %d", i+1, running, p)
			}
			g.release <- struct{}{}
		}
	}
	close(g.release)
	if !waitFor(t, stub.reported, "every trial reported") {
		t.FailNow()
	}
	w.Drain()
	if err := wait(); err != nil {
		t.Fatalf("drained Run returned %v", err)
	}
	if _, peak := g.load(); peak != p {
		t.Errorf("peak concurrency %d, want %d", peak, p)
	}
	if n := busyPolls.Load(); n != 0 {
		t.Errorf("%d lease polls while every slot was busy", n)
	}
}

// TestWorkerPipelineWideLease pins a lease with more trials than slots
// (bgpworker's default -dist-chunk 4 at -j 2): its trials fill both
// slots, a freed slot takes the lease's next trial, and the worker asks
// for no second lease while one of them still waits to start.
func TestWorkerPipelineWideLease(t *testing.T) {
	const p, trials = 2, 4
	stub, ts := newStub(t, trials, trials)
	g := newGate()
	w, wait := startWorker(t, ts, p, g.trial)
	for i := 0; i < trials; i++ {
		g.next(t)
		if i+1 < p {
			continue
		}
		if running, _ := g.load(); running != p {
			t.Fatalf("after %d starts %d trials run, want both slots busy", i+1, running)
		}
		if n := stub.count("lease"); n != 1 {
			t.Fatalf("%d lease polls while the 4-trial lease had trials queued, want 1", n)
		}
		if i+1 < trials {
			g.release <- struct{}{}
		}
	}
	close(g.release)
	if !waitFor(t, stub.reported, "the lease reported") {
		t.FailNow()
	}
	w.Drain()
	if err := wait(); err != nil {
		t.Fatalf("drained Run returned %v", err)
	}
	if rs := stub.results["lease-1"]; len(rs) != trials {
		t.Errorf("lease-1 reported %d trials, want %d", len(rs), trials)
	}
}

// TestWorkerPipelineDrainReportsEveryLease pins Drain with two leases in
// hand, one trial of each running and two of the newer one queued: every
// trial runs, both leases are reported, and only then does the worker
// deregister.
func TestWorkerPipelineDrainReportsEveryLease(t *testing.T) {
	const p, chunk, trials = 2, 3, 6
	stub, ts := newStub(t, trials, chunk)
	g := newGate()
	w, wait := startWorker(t, ts, p, g.trial)
	g.next(t) // 0 and 1 start; 2 waits
	g.next(t)
	g.release <- struct{}{}
	g.next(t) // 2 starts: lease-1's trials are all running or ended
	g.release <- struct{}{}
	g.next(t) // 3 starts: lease-1 still runs a trial; 4 and 5 wait
	if n := stub.count("lease"); n != 2 {
		t.Fatalf("%d lease polls, want 2", n)
	}
	w.Drain()
	close(g.release)
	if err := wait(); err != nil {
		t.Fatalf("drained Run returned %v", err)
	}
	// The two reports may arrive in either order; the goodbye comes last.
	log := stub.snapshot()
	var got []string
	for _, e := range log {
		if e != "register" && e != "lease" {
			got = append(got, e)
		}
	}
	if len(got) != 3 || got[2] != "deregister" || got[0] == got[1] ||
		!strings.HasPrefix(got[0], "result ") || !strings.HasPrefix(got[1], "result ") {
		t.Errorf("reports and goodbye = %q, want both leases' results, then deregister (full log %q)", got, log)
	}
	if n := stub.count("lease"); n != 2 {
		t.Errorf("%d lease polls, want 2: a draining worker takes no new lease", n)
	}
	for _, id := range []string{"lease-1", "lease-2"} {
		for _, tr := range stub.results[id] {
			if len(tr.Data) == 0 || tr.Error != "" {
				t.Errorf("%s trial %d reported %q / %q, want data", id, tr.Trial, tr.Data, tr.Error)
			}
		}
	}
}

// TestWorkerPipelineRejoinOnce pins re-registration after a coordinator
// restart: the poller and the reporter both meet the refusal, and the
// worker registers again exactly once.
func TestWorkerPipelineRejoinOnce(t *testing.T) {
	stub, ts := newStub(t, 1, 1)
	var (
		mu      sync.Mutex
		forgot  bool
		refused = make(chan struct{})
		rejoin  = make(chan struct{})
		once    sync.Once
	)
	stub.onLease = func(worker string) bool {
		mu.Lock()
		defer mu.Unlock()
		if worker == "w-2" {
			once.Do(func() { close(rejoin) })
		}
		if forgot && worker == "w-1" {
			select {
			case <-refused:
			default:
				close(refused)
			}
			return false
		}
		return true
	}
	stub.onResult = func(*ResultReport) bool {
		mu.Lock()
		forgot = true
		mu.Unlock()
		waitFor(t, refused, "the poller's refused poll")
		return false
	}
	w, wait := startWorker(t, ts, 1, nil)
	if !waitFor(t, rejoin, "a poll under the new id") {
		t.FailNow()
	}
	w.Drain()
	if err := wait(); err != nil {
		t.Fatalf("drained Run returned %v", err)
	}
	if n := stub.count("register"); n != 2 {
		t.Errorf("%d registrations, want 2 (one rejoin for two refusals)", n)
	}
}
