//go:build !race

package core

// recycleGuard is empty outside race builds (see guard_race.go).
type recycleGuard struct{}

func (recycleGuard) take()           {}
func (recycleGuard) lives() uint32   { return 0 }
func (recycleGuard) recycled(uint32) {}
func (recycleGuard) check()          {}
