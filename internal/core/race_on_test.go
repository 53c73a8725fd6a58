//go:build race

package core

// raceEnabled reports that the race detector is active: sync.Pool drops
// items at random under it, so recycling budgets do not hold, and the
// action record carries its recycle guard.
const raceEnabled = true
