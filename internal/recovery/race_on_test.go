//go:build race

package recovery

// raceEnabled reports that the race detector is active: the differential
// test runs fewer seeds, since instrumentation slows each one about tenfold.
const raceEnabled = true
