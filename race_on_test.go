//go:build race

package repro

// raceEnabled reports that the race detector is active: its instrumentation
// allocates, so allocation budgets do not hold under it.
const raceEnabled = true
