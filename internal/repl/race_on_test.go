//go:build race

package repl

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so exact allocation counts do not hold.
const raceEnabled = true
