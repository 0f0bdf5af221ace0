//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under -race because instrumentation allocates.
const raceEnabled = true
