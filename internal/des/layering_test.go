package des

import (
	"go/build"
	"strings"
	"testing"
)

// The kernel sits below every other package of the module: the protocol,
// network and guard layers build on it, never the other way round. Its
// non-test files may import only the standard library.
func TestKernelImportsNoModulePackage(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.GoFiles) == 0 {
		t.Fatal("no Go files found: the test reads the wrong directory")
	}
	for _, path := range pkg.Imports {
		if path == "bgploop" || strings.HasPrefix(path, "bgploop/") {
			t.Errorf("package des imports %s; the kernel must not depend on the module's other packages", path)
		}
	}
}
