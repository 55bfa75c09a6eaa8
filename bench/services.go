package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"bgploop/internal/dist"
	"bgploop/internal/experiment"
	"bgploop/internal/serve"
	"bgploop/internal/sweep"
)

// bgpd is an in-process daemon behind a loopback listener, with the one
// client the closed loop uses.
type bgpd struct {
	srv    *serve.Server
	fs     *memFS
	ts     *httptest.Server
	client *http.Client
}

// startBgpd starts a daemon with default limits whose cache, journals and
// job WAL live in a fresh in-memory filesystem (see memFS for why not on
// disk): one job worker, sequential trials, so the service layers, not the
// simulator's parallelism, are what the workload looks at.
func startBgpd() (*bgpd, error) {
	fsys := newMemFS()
	srv, err := serve.New(serve.Config{
		FS:           fsys,
		CacheDir:     "cache",
		StoreDir:     "store",
		Workers:      1,
		TrialWorkers: 1,
		Now:          time.Now,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &bgpd{srv: srv, fs: fsys, ts: ts, client: ts.Client()}, nil
}

func (b *bgpd) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Drain(ctx)
	b.client.CloseIdleConnections()
	b.ts.Close()
	return err
}

// jobTiming is the client-side view of one job.
type jobTiming struct {
	submit, await, view time.Duration
}

func (t jobTiming) total() time.Duration { return t.submit + t.await + t.view }

// runJob posts body, follows the job's event stream to its terminal
// event, and fetches the final view, with one span per client-side
// boundary under a span named name.
func (b *bgpd) runJob(body []byte, tr *tracer, op int, name string) (serve.JobView, jobTiming, error) {
	var tm jobTiming
	job := tr.begin(name, op, -1)
	defer tr.end(job)

	// submit: POST -> 202.
	sp := tr.begin("serve.submit", op, job)
	start := time.Now()
	resp, err := b.client.Post(b.ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, tm, err
	}
	var accepted serve.JobView
	err = decodeJSON(resp, http.StatusAccepted, &accepted)
	tm.submit = time.Since(start)
	tr.end(sp)
	if err != nil {
		return serve.JobView{}, tm, fmt.Errorf("submit: %w", err)
	}

	// await: 202 -> terminal event on the NDJSON stream.
	sp = tr.begin("serve.await", op, job)
	start = time.Now()
	terminal, err := b.follow(accepted.ID)
	tm.await = time.Since(start)
	tr.end(sp)
	if err != nil {
		return serve.JobView{}, tm, fmt.Errorf("await %s: %w", accepted.ID, err)
	}
	if terminal.Type != "done" {
		return serve.JobView{}, tm, fmt.Errorf("job %s ended %s: %s", accepted.ID, terminal.Type, terminal.Message)
	}

	// view: GET the finished job.
	sp = tr.begin("serve.view", op, job)
	start = time.Now()
	resp, err = b.client.Get(b.ts.URL + "/v1/runs/" + accepted.ID)
	if err != nil {
		return serve.JobView{}, tm, err
	}
	var view serve.JobView
	err = decodeJSON(resp, http.StatusOK, &view)
	tm.view = time.Since(start)
	tr.end(sp)
	if err != nil {
		return serve.JobView{}, tm, fmt.Errorf("view %s: %w", accepted.ID, err)
	}
	if view.State != serve.StateDone {
		return serve.JobView{}, tm, fmt.Errorf("job %s state %s: %s", view.ID, view.State, view.Error)
	}
	return view, tm, nil
}

// follow reads the job's event stream until its terminal event.
func (b *bgpd) follow(id string) (serve.Event, error) {
	resp, err := b.client.Get(b.ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		return serve.Event{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return serve.Event{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return serve.Event{}, err
		}
		switch e.Type {
		case "done", "failed", "canceled":
			return e, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, err
	}
	return serve.Event{}, errors.New("event stream ended without a terminal event")
}

// counters scrapes /metrics and returns its integer-valued families.
func (b *bgpd) counters() (map[string]int64, error) {
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func decodeJSON(resp *http.Response, want int, v any) error {
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleet is a coordinator mounted on a loopback listener with one
// in-process worker polling it.
type fleet struct {
	coord  *dist.Coordinator
	ts     *httptest.Server
	client *http.Client
	cancel context.CancelFunc
	done   chan struct{}
}

// distChunk is the lease size: four leases per 8-trial sweep, so the
// lease round-trip is paid often enough to be seen.
const distChunk = 2

func startFleet() (*fleet, error) {
	coord, err := dist.New(dist.Config{ChunkSize: distChunk, Now: time.Now})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	client := ts.Client()
	worker, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator:  ts.URL,
		Name:         "bench",
		Client:       client,
		Parallelism:  sweepWorkers,
		PollInterval: time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		},
	})
	if err != nil {
		ts.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{coord: coord, ts: ts, client: client, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = worker.Run(ctx)
	}()
	return f, nil
}

// sweep runs trials trials of sc through the fleet: every trial is handed
// to the coordinator's remote seam at once, as the service layer does.
func (f *fleet) sweep(id string, spec experiment.ScenarioSpec, sc experiment.Scenario, trials int, cacheDir string) (experiment.Aggregate, []*experiment.Result, sweep.Stats, error) {
	encoded, err := dist.EncodeSweepSpec(spec, trials)
	if err != nil {
		return experiment.Aggregate{}, nil, sweep.Stats{}, err
	}
	sw, err := f.coord.StartSweep(id, encoded, trials)
	if err != nil {
		return experiment.Aggregate{}, nil, sweep.Stats{}, err
	}
	defer sw.Finish()
	return experiment.RunSweep(experiment.Repeat(sc), trials, experiment.SweepOptions{
		Workers:  trials,
		Remote:   sw.Execute,
		CacheDir: cacheDir,
	})
}

// close stops the worker and waits for it, then the listener.
func (f *fleet) close() error {
	f.cancel()
	<-f.done // the worker's error is the cancellation just delivered
	f.client.CloseIdleConnections()
	f.ts.Close()
	return f.coord.Close()
}
