package cc

import (
	"slices"
	"strings"
)

// Queries of the lock table and the detector that only tests make.

// HoldsAny reports whether owner holds any lock: whether the rendered
// table names it.
func (lm *LockManager) HoldsAny(owner string) bool {
	for _, line := range strings.Split(lm.String(), "\n") {
		_, grants, _ := strings.Cut(line, ":")
		for _, g := range strings.Fields(grants) {
			if o, _, _ := strings.Cut(g, "/"); o == owner {
				return true
			}
		}
	}
	return false
}

// Holders returns the owners currently granted on res, sorted.
func (lm *LockManager) Holders(res Resource) []string {
	sh := lm.shardFor(res)
	sh.mu.Lock()
	st := sh.locks[res]
	if st == nil {
		sh.mu.Unlock()
		return nil
	}
	set := map[string]bool{}
	for _, g := range st.granted {
		set[g.owner.String()] = true
	}
	sh.mu.Unlock()
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// waiterCount returns the number of queued FIFO tokens on res (fairness
// mode only).
func (lm *LockManager) waiterCount(res Resource) int {
	sh := lm.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.locks[res]; ok {
		return len(st.waiting)
	}
	return 0
}

// youngest is youngestLocked behind the lock.
func (d *detector) youngest(roots []string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.youngestLocked(roots)
}

// forceDoom marks a root as victim directly.
func (d *detector) forceDoom(root string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.doomed[root] = true
	d.ndoomed.Store(int32(len(d.doomed)))
}

// blockedOn reports whether an acquire of res sleeps on its state.
func (lm *LockManager) blockedOn(res Resource) bool {
	sh := lm.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.locks[res]
	return ok && st.sleepers > 0
}
