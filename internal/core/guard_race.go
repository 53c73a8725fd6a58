//go:build race

package core

import "sync/atomic"

// recycleGuard counts a record's lives in race builds: odd while a
// transaction owns the record, even (and not zero) once it is recycled. A
// use of a recycled record panics. A root record is never taken, so its
// count stays zero.
type recycleGuard struct{ gen atomic.Uint32 }

func (g *recycleGuard) take() { g.gen.Add(1) }

func (g *recycleGuard) lives() uint32 { return g.gen.Load() }

// recycled stamps a zeroed record that had lived gen.
func (g *recycleGuard) recycled(gen uint32) { g.gen.Store(gen + 1) }

func (g *recycleGuard) check() {
	if n := g.gen.Load(); n != 0 && n%2 == 0 {
		panic("core: action record used after its transaction ended")
	}
}
