//go:build race

package experiment

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
const raceEnabled = true
