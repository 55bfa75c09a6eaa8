package topology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList serialises g in a simple line-oriented format:
//
//	# name <label>
//	nodes <n>
//	<a> <b>
//	...
//
// Lines beginning with '#' are comments.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n", g.Name()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDOT serialises g in Graphviz DOT format for visualisation. When
// rels is non-nil, provider->customer edges are drawn directed (provider
// on top) and peerings as undirected dashed edges.
func WriteDOT(w io.Writer, g *Graph, rels *Relationships) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "digraph %q {\n", g.Name()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "  node [shape=circle fontsize=10];"); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		var line string
		if rels == nil {
			line = fmt.Sprintf("  %d -> %d [dir=none];", e.A, e.B)
		} else {
			switch rels.Kind(e.A, e.B) {
			case RelCustomer: // B is A's customer: A provides transit
				line = fmt.Sprintf("  %d -> %d;", e.A, e.B)
			case RelProvider: // B is A's provider
				line = fmt.Sprintf("  %d -> %d;", e.B, e.A)
			case RelPeer:
				line = fmt.Sprintf("  %d -> %d [dir=none style=dashed];", e.A, e.B)
			default:
				line = fmt.Sprintf("  %d -> %d [dir=none style=dotted];", e.A, e.B)
			}
		}
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var (
		g    *Graph
		name string
		line int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# name "); ok {
				name = strings.TrimSpace(rest)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(text, "nodes "); ok {
			var n int
			if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
				return nil, fmt.Errorf("topology: line %d: bad node count %q: %w", line, rest, err)
			}
			if n < 0 || n-1 > MaxNode {
				return nil, fmt.Errorf("topology: line %d: node count %d outside [0, %d]", line, n, int64(MaxNode)+1)
			}
			g = New(n)
			if name != "" {
				g.SetName(name)
			}
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("topology: line %d: edge before 'nodes' header", line)
		}
		var a, b int
		if _, err := fmt.Sscanf(text, "%d %d", &a, &b); err != nil {
			return nil, fmt.Errorf("topology: line %d: bad edge %q: %w", line, text, err)
		}
		e, err := EdgeOf(a, b)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", line, err)
		}
		if err := g.AddEdge(e.A, e.B); err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("topology: missing 'nodes' header")
	}
	return g, nil
}
