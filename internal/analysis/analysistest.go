package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// RunFixture runs one analyzer over a golden-fixture directory and
// checks its findings against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `map iteration order`
//
// Each expectation is a regexp in back-quotes or double quotes; several
// may follow one want. A diagnostic must land on the exact line of a
// matching expectation, every expectation must be matched exactly once,
// and directive suppression is applied first, so fixtures exercise
// //detlint:allow as well. The analyzer's Match scope is bypassed:
// fixtures live under testdata/<analyzer>/ regardless of package path.
func RunFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	RunFixtureAs(t, a, dir, "fixture")
}

// RunFixtureAs is RunFixture with the fixture presented to the analyzer
// under a module-relative package path, for rules that read Pass.RelPath.
func RunFixtureAs(t *testing.T, a *Analyzer, dir, relPath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	loader := &Loader{
		ModulePath: "detlint.fixture.invalid",
		Fset:       fset,
		cache:      map[string]*Package{},
		fakes:      map[string]*types.Package{},
	}
	var files []*ast.File
	var filenames []string
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		filenames = append(filenames, path)
	}
	tpkg, info := loader.check("fixture", files)
	pkg := &Package{
		RelPath: relPath, Dir: dir,
		Fset: fset, Files: files, Filenames: filenames,
		Types: tpkg, TypesInfo: info,
	}

	var diags []Diagnostic
	known := map[string]bool{a.Name: true}
	byFile := map[string]map[int][]directive{}
	for i, f := range files {
		byFile[filenames[i]] = collectDirectives(fset, f, known, &diags)
	}
	if err := runAnalyzer(a, pkg, &diags); err != nil {
		t.Fatalf("analyzer failed: %v", err)
	}
	diags = applyDirectives(diags, byFile)
	sortDiagnostics(diags)

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re.String())
		}
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantArgRe extracts the quoted expectations after "want".
var wantArgRe = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var out []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				args := text[idx+len("// want "):]
				matches := wantArgRe.FindAllString(args, -1)
				if len(matches) == 0 {
					t.Fatalf("%s: malformed want comment %q", fset.Position(c.Pos()), text)
				}
				pos := fset.Position(c.Pos())
				for _, m := range matches {
					re, err := regexp.Compile(m[1 : len(m)-1])
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pos, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

func claimWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
