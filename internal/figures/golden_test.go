package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSection is one "## Figure <id>" block of a committed figure
// dump: the caption line, the column header, and the data rows.
type goldenSection struct {
	id      string
	caption string
	header  string
	rows    int
}

// parseGolden splits a committed figure dump into its sections. The
// format is exactly what `bgpfig -fig all` (or `-fig ext`) writes: for
// each figure a "## Figure <id>" title, the caption, a column header
// row, a dashed separator, data rows, then a blank line.
func parseGolden(t *testing.T, path string) []goldenSection {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden figures: %v", err)
	}
	var sections []goldenSection
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		title, ok := strings.CutPrefix(lines[i], "## Figure ")
		if !ok {
			continue
		}
		if i+3 >= len(lines) {
			t.Fatalf("%s: truncated section %q", path, title)
		}
		sec := goldenSection{id: title, caption: lines[i+1], header: lines[i+2]}
		sep := lines[i+3]
		if strings.Trim(sep, "- ") != "" {
			t.Fatalf("%s: figure %s: line %d is not a column separator: %q", path, title, i+4, sep)
		}
		for j := i + 4; j < len(lines) && strings.TrimSpace(lines[j]) != ""; j++ {
			sec.rows++
		}
		sections = append(sections, sec)
	}
	return sections
}

// checkGolden asserts a committed dump carries exactly the registered
// figure set, with captions verbatim from the registry and at least one
// data row per figure. The numbers themselves are not pinned here but
// by the CI step that runs `bgpfig -fig all` / `-fig ext` and `cmp`s the
// output against these files (.github/workflows/ci.yml, build-test); this
// test catches a figure added, removed, or re-captioned in the registry
// without regenerating the dump before that step runs.
func checkGolden(t *testing.T, path string, wantIDs []string) {
	sections := parseGolden(t, path)
	var gotIDs []string
	for _, sec := range sections {
		gotIDs = append(gotIDs, sec.id)
		if want := Caption(sec.id); sec.caption != want {
			t.Errorf("%s: figure %s caption drifted:\n  file:     %q\n  registry: %q", path, sec.id, sec.caption, want)
		}
		if sec.rows == 0 {
			t.Errorf("%s: figure %s has no data rows", path, sec.id)
		}
		if len(strings.Fields(sec.header)) < 2 {
			t.Errorf("%s: figure %s header %q has fewer than two columns", path, sec.id, sec.header)
		}
	}
	if strings.Join(gotIDs, ",") != strings.Join(wantIDs, ",") {
		t.Errorf("%s: figure set drifted from the registry:\n  file:     %v\n  registry: %v", path, gotIDs, wantIDs)
	}
}

func TestGoldenFiguresFull(t *testing.T) {
	checkGolden(t, filepath.Join("..", "..", "figures_full.txt"), IDs())
}

func TestGoldenFiguresExt(t *testing.T) {
	checkGolden(t, filepath.Join("..", "..", "figures_ext.txt"), ExtensionIDs())
}
