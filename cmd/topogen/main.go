// Command topogen generates and inspects the study's AS topologies.
//
// Examples:
//
//	topogen -topo internet -size 110 -seed 1            # stats only
//	topogen -topo internet -size 29 -edges              # edge list
//	topogen -topo bclique -size 15 -edges -out b15.topo
//	topogen -topo clique -size 10 -hist                 # degree histogram
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bgploop/internal/buildinfo"
	"bgploop/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		versionF = fs.Bool("version", false, "print the build-info stamp (module version, VCS revision) and exit")

		topo  = fs.String("topo", "internet", "family: "+strings.Join(topology.Families(), ", "))
		size  = fs.Int("size", 29, "size parameter")
		seed  = fs.Int64("seed", 1, "generator seed (internet, ba, waxman)")
		edges = fs.Bool("edges", false, "print the edge list")
		dot   = fs.Bool("dot", false, "emit Graphviz DOT (with relationships for internet topologies)")
		hist  = fs.Bool("hist", false, "print the degree histogram")
		out   = fs.String("out", "", "write edge list to a file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionF {
		fmt.Println("topogen", buildinfo.Read())
		return nil
	}

	g, err := topology.Generate(*topo, *size, *seed)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("generated graph failed validation: %w", err)
	}

	s := topology.Summarize(g)
	fmt.Printf("%s: nodes=%d edges=%d degree[min=%d avg=%.2f max=%d] diameter=%d connected=%v bridges=%d\n",
		g.Name(), s.Nodes, s.Edges, s.MinDegree, s.AvgDegree, s.MaxDegree, s.Diameter, s.Connected, s.Bridges)
	lows := topology.LowestDegreeNodes(g)
	if len(lows) > 12 {
		fmt.Printf("lowest-degree nodes (%d total): %v ...\n", len(lows), lows[:12])
	} else {
		fmt.Printf("lowest-degree nodes: %v\n", lows)
	}

	if *hist {
		h := topology.DegreeHistogram(g)
		degrees := make([]int, 0, len(h))
		for d := range h {
			degrees = append(degrees, d)
		}
		sort.Ints(degrees)
		for _, d := range degrees {
			fmt.Printf("degree %3d: %d nodes\n", d, h[d])
		}
	}

	if *dot {
		var rels *topology.Relationships
		if *topo == "internet" {
			rels = topology.InternetRelations(g)
		}
		return topology.WriteDOT(os.Stdout, g, rels)
	}

	if *edges || *out != "" {
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := f.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "topogen: close:", cerr)
				}
			}()
			w = f
		}
		if err := topology.WriteEdgeList(w, g); err != nil {
			return err
		}
	}
	return nil
}
