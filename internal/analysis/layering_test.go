package analysis

import (
	"go/build"
	"testing"
)

// The analyzers are linked into the detlint binary, so the package's
// non-test files may not import testing: the fixture harness (RunFixture)
// lives in fixture_test.go, beside the only tests that call it.
func TestNonTestFilesImportNoTesting(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.GoFiles) == 0 {
		t.Fatal("no Go files found: the test reads the wrong directory")
	}
	for _, path := range pkg.Imports {
		if path == "testing" {
			t.Errorf("a non-test file of package analysis imports testing; it would be linked into detlint")
		}
	}
}
