package analysis

import "testing"

func TestNoGlobalRand(t *testing.T) {
	RunFixture(t, NoGlobalRandAnalyzer(), "testdata/noglobalrand")
}

// TestNoGlobalRandStreamsOnly runs the simulation-package rule: beside a
// speaker, a generator is a des.RNG stream or it is an error.
func TestNoGlobalRandStreamsOnly(t *testing.T) {
	RunFixtureAs(t, NoGlobalRandAnalyzer(), "testdata/noglobalrand/sim", "internal/bgp")
}

func TestNoGlobalRandScopeIsRepoWide(t *testing.T) {
	if NoGlobalRandAnalyzer().Match != nil {
		t.Error("noglobalrand must apply to every package")
	}
}
