package cc

import (
	"sync"
	"sync/atomic"
)

// detector is the cross-shard deadlock detector. The lock table is sharded
// (see table.go), so no single shard sees the whole waits-for relation; the
// detector centralizes it behind its own mutex, decoupled from every shard
// lock. Blocked acquires charge edges (root → blocking root, counted per
// blocked call) before they sleep and discharge them when they stop
// waiting; the cycle search runs under the detector's lock only, never
// under a shard lock.
//
// Lock ordering: a goroutine may take the detector lock while holding a
// shard lock (Acquire's doomed check, while some root is doomed), but the
// detector NEVER takes a shard lock itself — waking a doomed victim happens
// through registered wake callbacks invoked after the detector lock is
// released.
type detector struct {
	mu sync.Mutex
	// waitsFor counts, per waiting root, how many of its blocked acquires
	// wait for each blocking root.
	waitsFor map[string]map[string]int
	// doomed roots must abort; their acquires fail fast. ndoomed mirrors
	// len(doomed), stored under mu wherever doomed changes, so the doomed
	// check costs one atomic load while nobody is doomed.
	doomed  map[string]bool
	ndoomed atomic.Int32
	// victims dedupes victim counting per victimization episode: a root with
	// several parallel blocked acquires is one victim, not one per acquire.
	// Cleared with the doomed mark (clearDoomed/forget), so a restarted
	// transaction caught in a NEW deadlock counts again.
	victims map[string]bool
	// ages overrides the age derived from the transaction id. A restarted
	// transaction keeps its original age (SetAge), so the youngest-victim
	// policy cannot starve it forever.
	ages map[string]int64
	// wakers holds, per root, the wake callbacks of its blocked acquires so
	// dooming a victim can wake exactly its own waits.
	wakers map[string]map[*wakeHandle]struct{}
	// cause records, per victim, the waits-for cycle that doomed it — the
	// provenance an aborting victim's trace reports. Cleared with the victim
	// mark (clearDoomed/forget).
	cause map[string][]string
}

// wakeHandle identifies one blocked acquire's wake callback. The callback
// re-broadcasts the condition variable the acquire sleeps on (taking the
// owning shard's lock to do so safely).
type wakeHandle struct {
	fn func()
}

func newDetector() *detector {
	return &detector{
		waitsFor: make(map[string]map[string]int),
		doomed:   make(map[string]bool),
		victims:  make(map[string]bool),
		ages:     make(map[string]int64),
		wakers:   make(map[string]map[*wakeHandle]struct{}),
		cause:    make(map[string][]string),
	}
}

// isDoomed reports whether root was chosen as a deadlock victim. The
// lock-free read of ndoomed cannot miss a doom a blocked victim must see:
// detect stores ndoomed before it runs the victim's wake callbacks, which
// take the victim's shard mutex, and the victim re-checks under that mutex.
func (d *detector) isDoomed(root string) bool {
	if d.ndoomed.Load() == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doomed[root]
}

// register adds a wake callback for a blocked acquire of root.
func (d *detector) register(root string, fn func()) *wakeHandle {
	h := &wakeHandle{fn: fn}
	d.mu.Lock()
	defer d.mu.Unlock()
	set := d.wakers[root]
	if set == nil {
		set = make(map[*wakeHandle]struct{})
		d.wakers[root] = set
	}
	set[h] = struct{}{}
	return h
}

// unregister removes a wake callback installed by register.
func (d *detector) unregister(root string, h *wakeHandle) {
	d.mu.Lock()
	defer d.mu.Unlock()
	set := d.wakers[root]
	delete(set, h)
	if len(set) == 0 {
		delete(d.wakers, root)
	}
}

// recharge replaces the edges one blocked acquire charges: it discharges
// old and charges next (both multisets root → count).
func (d *detector) recharge(root string, old, next map[string]int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dischargeLocked(root, old)
	if len(next) == 0 {
		return
	}
	wf := d.waitsFor[root]
	if wf == nil {
		wf = make(map[string]int)
		d.waitsFor[root] = wf
	}
	for to, n := range next {
		wf[to] += n
	}
}

// discharge removes the edges a no-longer-blocked acquire had charged.
func (d *detector) discharge(root string, old map[string]int) {
	if len(old) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dischargeLocked(root, old)
}

func (d *detector) dischargeLocked(root string, old map[string]int) {
	wf := d.waitsFor[root]
	if wf == nil {
		return
	}
	for to, n := range old {
		wf[to] -= n
		if wf[to] <= 0 {
			delete(wf, to)
		}
	}
	if len(wf) == 0 {
		delete(d.waitsFor, root)
	}
}

// detect searches for a waits-for cycle through start. If one exists it
// picks the youngest transaction on the cycle as the victim and returns it;
// a victim other than start is marked doomed and its blocked acquires are
// woken (after the detector lock is dropped). Returns "" when start is on
// no cycle.
//
// fresh reports whether THIS call victimized the root: true exactly once
// per victimization episode, so the caller can count victims (one per
// doomed transaction) rather than victim acquires (one per blocked call
// that observes the doom — several, when a victim has sibling
// subtransactions blocked in parallel).
func (d *detector) detect(start string) (victim string, fresh bool) {
	d.mu.Lock()
	cycle := d.findCycleLocked(start)
	if cycle == nil {
		d.mu.Unlock()
		return "", false
	}
	victim = d.youngestLocked(cycle)
	fresh = !d.victims[victim]
	d.victims[victim] = true
	if fresh {
		// Remember the cycle that doomed the victim: its aborting acquires
		// read it back (causeOf) to attach a victim-of provenance edge.
		d.cause[victim] = cycle
	}
	var wakes []func()
	if victim != start && !d.doomed[victim] {
		d.doomed[victim] = true
		d.ndoomed.Store(int32(len(d.doomed)))
		for h := range d.wakers[victim] {
			wakes = append(wakes, h.fn)
		}
	}
	d.mu.Unlock()
	for _, fn := range wakes {
		fn()
	}
	return victim, fresh
}

// findCycleLocked returns the roots of a waits-for cycle through start, or
// nil. Doomed roots are not traversed: a doomed victim is already aborting
// (it will wake, discharge its edges and release its locks), so any cycle
// through its residual edges is already broken — counting them would doom
// a second, unnecessary victim. Caller holds d.mu.
func (d *detector) findCycleLocked(start string) []string {
	var path []string
	onPath := map[string]bool{}
	visited := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		path = append(path, n)
		onPath[n] = true
		visited[n] = true
		for m := range d.waitsFor[n] {
			if d.doomed[m] {
				continue
			}
			if m == start && len(path) > 0 {
				return append([]string{}, path...)
			}
			if onPath[m] || visited[m] {
				continue
			}
			if c := dfs(m); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		onPath[n] = false
		return nil
	}
	return dfs(start)
}

// setAge overrides the age of a transaction (see LockManager.SetAge).
func (d *detector) setAge(root string, age int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ages[root] = age
}

// ageLocked returns the effective age of a root. Caller holds d.mu.
func (d *detector) ageLocked(root string) int64 {
	if a, ok := d.ages[root]; ok {
		return a
	}
	return int64(txnSeq(root))
}

// youngestLocked picks the deadlock victim: the transaction with the
// highest effective age (most recently started), falling back to
// lexicographic order. Caller holds d.mu.
func (d *detector) youngestLocked(roots []string) string {
	best := roots[0]
	bestSeq := d.ageLocked(best)
	for _, r := range roots[1:] {
		if s := d.ageLocked(r); s > bestSeq || (s == bestSeq && r > best) {
			best, bestSeq = r, s
		}
	}
	return best
}

// clearDoomed removes a root's victim mark and gives it top priority. The
// victimization episode ends with the mark: if the restarted transaction is
// caught in another deadlock later, that is a new victim event.
func (d *detector) clearDoomed(root string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.doomed, root)
	d.ndoomed.Store(int32(len(d.doomed)))
	delete(d.victims, root)
	delete(d.cause, root)
	d.ages[root] = 0
}

// forget drops all detector state of a finished root (top-level commit or
// completed abort cleanup).
func (d *detector) forget(root string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.doomed, root)
	d.ndoomed.Store(int32(len(d.doomed)))
	delete(d.victims, root)
	delete(d.cause, root)
	delete(d.ages, root)
}

// causeOf returns a copy of the waits-for cycle that doomed root, or nil
// when root is not a (current-episode) victim.
func (d *detector) causeOf(root string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.cause[root]...)
}
