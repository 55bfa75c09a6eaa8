// Command bgpworker is the fleet-worker binary: it registers with
// a bgpd coordinator (started with -dist), pulls leased chunks of sweep
// trials over /v1/work, executes them through the same experiment sweep
// engine behind bgpsim, and reports per-trial results keyed by content
// address.
//
//	bgpworker -coordinator http://host:8439 -j 2
//
// SIGINT/SIGTERM drains gracefully: every lease in hand is finished and
// reported, no new lease is taken, and the worker deregisters so the
// coordinator's live-worker gauge drops immediately. A second signal
// abandons the leases — the coordinator reassigns them to other workers
// after the lease TTL, and the merged sweep output is byte-identical
// either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgploop/internal/buildinfo"
	"bgploop/internal/dist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bgpworker", flag.ContinueOnError)
	var (
		versionF = fs.Bool("version", false, "print the build-info stamp and exit")

		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8439 (required)")
		name        = fs.String("name", "", "advisory worker label sent at registration")
		j           = fs.Int("j", 1, "trials run at once, across leases: a free slot takes the next leased trial")
		cache       = fs.String("cache-dir", "", "worker-local result cache; re-leased chunks are served from disk")
		poll        = fs.Duration("poll-interval", 250*time.Millisecond, "idle wait between lease polls")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionF {
		fmt.Println("bgpworker", buildinfo.Read())
		return nil
	}
	if *coordinator == "" {
		return errors.New("-coordinator is required")
	}

	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator:  *coordinator,
		Name:         *name,
		Parallelism:  *j,
		CacheDir:     *cache,
		PollInterval: *poll,
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
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "bgpworker: draining (finishing the leases in hand)...")
		w.Drain()
		<-sigc
		fmt.Fprintln(os.Stderr, "bgpworker: abandoning leases")
		cancel()
	}()

	fmt.Fprintf(os.Stderr, "bgpworker: joining %s (j=%d cache=%q)\n", *coordinator, *j, *cache)
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "bgpworker: done: %d leases (%d hedged), %d trials, %d trial errors, %d transport retries\n",
		st.Leases, st.Hedged, st.Trials, st.Errors, st.Retries)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
