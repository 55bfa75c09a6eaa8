// Command bgpd serves the simulator as a service: scenario specs are
// POSTed as JSON jobs, executed on a bounded worker pool through the
// same sweep engine behind bgpsim, and the results — digests included —
// are byte-identical to a local run. See the "Service layer" section of
// DESIGN.md.
//
//	bgpd -listen :8439 -store-dir /var/lib/bgploop
//
// With -store-dir the server is crash-safe: accepted jobs are written to
// a fsynced WAL before the submit response, and a restarted bgpd replays
// the log — incomplete jobs re-enqueue and take their completed trials
// from the result cache, finished jobs keep answering GET /v1/runs/{id}.
//
//	curl -s localhost:8439/v1/runs -d '{"spec": {"topology": {"family":
//	  "clique", "size": 10}, "event": "tdown"}, "trials": 4}'
//	curl -s localhost:8439/v1/runs/job-000001
//	curl -sN localhost:8439/v1/runs/job-000001/events
//	curl -s localhost:8439/metrics
//
// Endpoints:
//
//	POST /v1/runs             submit a job ({"spec": <ScenarioSpec>, "trials": N})
//	GET  /v1/runs             list jobs
//	GET  /v1/runs/{id}        job state, stats, aggregate, digests
//	GET  /v1/runs/{id}/events progress stream (NDJSON; SSE with
//	                          Accept: text/event-stream)
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             text exposition: queue depth, admission
//	                          rejects, cache hit ratio, latency histograms
//
// Admission control: jobs beyond the queue depth are refused with 429 +
// Retry-After; statically-UNSAFE scenarios are refused with 422 under
// -preflight strict (the default) or admitted with a warning under
// -preflight warn. Identical concurrent submissions collapse onto one
// job; identical trials across different jobs share one execution; and a
// repeat submission after completion is served from the result cache
// (stats show Executed=0).
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, queued and
// running jobs finish (bounded by -drain-timeout, then canceled), and
// the HTTP listener shuts down.
//
// With -dist the server also acts as a distributed-sweep coordinator:
// worker processes (the `bgpworker` binary) register over /v1/work, pull
// leased chunks of trial indices, execute them through the same sweep
// engine, and report per-trial results. Crashed or stalled workers have
// their leases reassigned after -dist-lease-ttl, the tail of each sweep
// is hedged to idle workers, and the merged output stays byte-identical
// to a local run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgploop/internal/buildinfo"
	"bgploop/internal/dist"
	"bgploop/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bgpd", flag.ContinueOnError)
	var (
		versionF = fs.Bool("version", false, "print the build-info stamp (module version, VCS revision) and exit")

		listen    = fs.String("listen", "localhost:8439", "address to serve on")
		cache     = fs.String("cache-dir", "", "content-addressed result cache; repeat submissions are served from disk")
		store     = fs.String("store-dir", "", "durable state root: job WAL under <dir>/wal plus a default cache under <dir>/cache; accepted jobs survive a crash and resume on restart")
		workers   = fs.Int("workers", 2, "job worker pool width (in-flight job cap)")
		queue     = fs.Int("queue", 16, "admission queue depth; beyond it submissions get 429")
		j         = fs.Int("j", 1, "trial parallelism inside each job (results are byte-identical at any width)")
		preflight = fs.String("preflight", "strict", "static safety gate for submissions: strict refuses UNSAFE scenarios with 422, warn runs them with a warning")
		timeout   = fs.Duration("job-timeout", 0, "per-job execution deadline (0 = none)")
		drainT    = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM before in-flight jobs are canceled")
		maxNodes  = fs.Int("max-nodes", serve.DefaultMaxNodes, "largest accepted topology")
		maxTrials = fs.Int("max-trials", serve.DefaultMaxTrials, "largest accepted per-job trial count")

		distOn    = fs.Bool("dist", false, "act as a distributed-sweep coordinator: mount /v1/work and fan cacheable jobs out to registered workers")
		distChunk = fs.Int("dist-chunk", 4, "trials per lease")
		distTTL   = fs.Duration("dist-lease-ttl", 60*time.Second, "lease deadline; expired leases are reassigned")
		distHedge = fs.Int("dist-hedge", 2, "hedge the sweep tail when at most this many chunks remain outstanding (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionF {
		fmt.Println("bgpd", buildinfo.Read())
		return nil
	}

	var policy serve.PreflightPolicy
	switch *preflight {
	case "strict":
		policy = serve.PreflightStrict
	case "warn":
		policy = serve.PreflightWarn
	default:
		return fmt.Errorf("-preflight %q: want strict or warn", *preflight)
	}

	var coord *dist.Coordinator
	if *distOn {
		var err error
		coord, err = dist.New(dist.Config{
			ChunkSize: *distChunk,
			LeaseTTL:  *distTTL,
			HedgeLast: *distHedge,
			Now:       time.Now,
		})
		if err != nil {
			return err
		}
		defer func() { _ = coord.Close() }()
	}

	srv, err := serve.New(serve.Config{
		CacheDir:     *cache,
		StoreDir:     *store,
		Workers:      *workers,
		QueueDepth:   *queue,
		TrialWorkers: *j,
		JobTimeout:   *timeout,
		Preflight:    policy,
		Limits: serve.Limits{
			MaxNodes:  *maxNodes,
			MaxTrials: *maxTrials,
		},
		Now:  time.Now,
		Dist: coord,
	})
	if err != nil {
		return err
	}
	if *store != "" {
		rec := srv.Recovery()
		fmt.Fprintf(os.Stderr, "bgpd: WAL recovery: %d jobs re-enqueued, %d terminal jobs restored, %d corrupt records dropped, log %d bytes\n",
			rec.Replayed, rec.Restored, rec.DroppedRecords, rec.WALBytes)
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Fprintf(os.Stderr, "bgpd: serving on %s (workers=%d queue=%d preflight=%s cache=%q store=%q)\n",
		*listen, *workers, *queue, policy, *cache, *store)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain first so queued jobs finish and their event streams close,
	// then shut the listener down (which waits for in-flight handlers).
	fmt.Fprintln(os.Stderr, "bgpd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "bgpd: drain incomplete, in-flight jobs canceled: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "bgpd: drained, bye")
	return <-errc
}
