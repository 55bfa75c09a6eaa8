// Command bgpfig regenerates the paper's evaluation figures (4a-9d) as
// text tables or CSV.
//
// Examples:
//
//	bgpfig -fig 4a                 # one figure at paper scale
//	bgpfig -fig all                # every figure
//	bgpfig -fig 8a,8b -quick       # reduced grid, seconds per figure
//	bgpfig -fig 5a -csv -out fig5a.csv
//	bgpfig -fig all -j 8 -cache-dir ~/.cache/bgploop
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bgploop/internal/buildinfo"
	"bgploop/internal/experiment"
	"bgploop/internal/figures"
	"bgploop/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bgpfig", flag.ContinueOnError)
	var (
		versionF = fs.Bool("version", false, "print the build-info stamp (module version, VCS revision) and exit")

		fig   = fs.String("fig", "", "figure ID (4a..9d), comma-separated list, or 'all'")
		quick = fs.Bool("quick", false, "use the reduced smoke-test grid instead of paper scale")
		csv   = fs.Bool("csv", false, "emit CSV")
		out   = fs.String("out", "", "write to file instead of stdout")
		seed  = fs.Int64("seed", 0, "override the base seed (0 keeps the default)")
		j     = fs.Int("j", 0, "trial parallelism per sweep: 0 = GOMAXPROCS, 1 = sequential (figures are byte-identical at any width)")
		cache = fs.String("cache-dir", "", "content-addressed result cache; unchanged trials are served from disk across runs, so re-running an interrupted invocation simulates only what it had not finished")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionF {
		fmt.Println("bgpfig", buildinfo.Read())
		return nil
	}
	if *fig == "" {
		return fmt.Errorf("missing -fig; known: %s, extensions: %s, or 'all'/'ext'",
			strings.Join(figures.IDs(), ", "), strings.Join(figures.ExtensionIDs(), ", "))
	}

	var ids []string
	switch *fig {
	case "all":
		ids = figures.IDs()
	case "ext":
		ids = figures.ExtensionIDs()
	default:
		for _, id := range strings.Split(*fig, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	sc := figures.FullScale()
	if *quick {
		sc = figures.QuickScale()
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	// Ctrl-C cancels in-flight trials cooperatively; with -cache-dir the
	// next invocation picks up where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var stats sweep.Stats
	sc.Sweep = experiment.SweepOptions{
		Workers:  *j,
		CacheDir: *cache,
		Context:  ctx,
		Stats:    &stats,
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bgpfig: close:", cerr)
			}
		}()
		w = f
	}

	// One suite per invocation: figures over the same cells share sweeps.
	suite := figures.NewSuite(sc)
	for i, id := range ids {
		start := time.Now()
		tbl, err := suite.Run(id)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if *csv {
			if _, err := fmt.Fprintf(w, "# Figure %s: %s\n", id, figures.Caption(id)); err != nil {
				return err
			}
			if err := tbl.WriteCSV(w); err != nil {
				return err
			}
		} else if err := tbl.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bgpfig: figure %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "bgpfig: %d trials total: %d simulated, %d cache hits\n",
		stats.Trials, stats.Executed, stats.CacheHits)
	return nil
}
