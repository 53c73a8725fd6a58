package cc

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/commut"
)

// TestUncontendedAcquireAllocs: an uncontended Acquire+Release finds the
// resource's idle lock state still in the table (its grant array and
// embedded cond), and an RW or *Semantic mode boxes into a Mode without
// allocating.
func TestUncontendedAcquireAllocs(t *testing.T) {
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	sem := &Semantic{Inv: commut.Invocation{Method: "insert", Params: []string{"k"}}, Spec: spec}
	for _, m := range []Mode{X, sem} {
		lm := NewLockManager()
		r := res("P")
		allocs := testing.AllocsPerRun(200, func() {
			if err := lm.Acquire("T1", r, m); err != nil {
				t.Fatal(err)
			}
			lm.Release("T1", r)
		})
		if allocs > 0 {
			t.Errorf("%v: Acquire+Release = %.1f allocs, want 0", m, allocs)
		}
	}
}

// stateOf returns res's current lock state on a one-shard manager.
func stateOf(lm *LockManager, r Resource) *lockState {
	sh := lm.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.locks[r]
}

// setIdleBound sets every shard's bound on idle states, before any
// acquire runs.
func setIdleBound(lm *LockManager, n int) {
	for _, sh := range lm.shards {
		sh.maxIdle = n
	}
}

// idleList returns sh's idle list, least recently idle first, checking its
// links and its count. Caller holds sh.mu, or no acquire runs.
func idleList(sh *lockShard) []*lockState {
	var out []*lockState
	var prev *lockState
	for st := sh.oldest; st != nil; st = st.next {
		if st.prev != prev || !st.idle {
			panic("idle list links broken")
		}
		out = append(out, st)
		prev = st
	}
	if prev != sh.newest || len(out) != sh.nidle {
		panic("idle list ends or count broken")
	}
	return out
}

// TestRecycledStateStartsEmpty: a state that held grants — and, in fairness
// mode, queued waiters — goes on the idle list with both arrays zeroed,
// and serves the next resource that misses with only that resource's
// grant.
func TestRecycledStateStartsEmpty(t *testing.T) {
	for _, fair := range []bool{false, true} {
		opts := []Option{WithShards(1)}
		if fair {
			opts = append(opts, WithFairness())
		}
		lm := NewLockManager(opts...)
		a, b := res("A"), res("B")
		if err := lm.Acquire("T1", a, S); err != nil {
			t.Fatal(err)
		}
		if err := lm.Acquire("T2", a, S); err != nil {
			t.Fatal(err)
		}
		waiter := make(chan error, 1)
		go func() { waiter <- lm.Acquire("T3", a, X) }()
		waitFor(t, "T3 blocked", func() bool { return lm.Snapshot().Blocked == 1 })
		if fair && lm.waiterCount(a) != 1 {
			t.Fatal("fairness mode must queue T3")
		}
		stA := stateOf(lm, a)
		lm.Release("T1", a)
		lm.Release("T2", a)
		if err := <-waiter; err != nil {
			t.Fatal(err)
		}
		lm.Release("T3", a)
		if stateOf(lm, a) != stA {
			t.Fatalf("fair=%v: idle state left the table", fair)
		}
		sh := lm.shards[0]
		sh.mu.Lock()
		pooled := slices.Equal(idleList(sh), []*lockState{stA})
		for _, g := range stA.granted[:cap(stA.granted)] {
			if g != (grant{}) {
				t.Errorf("fair=%v: idle state retains grant %+v", fair, g)
			}
		}
		for _, w := range stA.waiting[:cap(stA.waiting)] {
			if w != nil {
				t.Errorf("fair=%v: idle state retains waiter %+v", fair, *w)
			}
		}
		sh.mu.Unlock()
		if !pooled {
			t.Fatalf("fair=%v: A's state was not put on the idle list", fair)
		}

		if err := lm.Acquire("T4", b, X); err != nil {
			t.Fatal(err)
		}
		stB := stateOf(lm, b)
		if stB != stA {
			t.Fatalf("fair=%v: B did not reuse A's state", fair)
		}
		if len(stB.granted) != 1 || stB.granted[0].owner.String() != "T4" || len(stB.waiting) != 0 || stB.sleepers != 0 {
			t.Fatalf("fair=%v: reused state has grants %+v, waiters %d, sleepers %d; want only T4's grant",
				fair, stB.granted, len(stB.waiting), stB.sleepers)
		}
		lm.Release("T4", b)
	}
}

// TestWaiterRefetchesRecycledState: while a blocked acquire is in its
// unlocked detector window, its resource's holder releases — the idle state
// goes on the idle list — and another resource on the same shard takes
// that state and is granted. The waiter must re-fetch the state of its
// own resource instead of reading the reused one, whose grant (T3 on B)
// would otherwise block it on a resource it never asked for.
func TestWaiterRefetchesRecycledState(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	a, b := res("A"), res("B")
	if err := lm.Acquire("T1", a, X); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	recycled := make(chan bool, 1)
	lm.testUnlockedWindow = func() {
		once.Do(func() {
			stA := stateOf(lm, a)
			lm.Release("T1", a)
			if err := lm.Acquire("T3", b, X); err != nil {
				t.Error(err)
			}
			recycled <- stateOf(lm, b) == stA
		})
	}
	t2 := make(chan error, 1)
	go func() { t2 <- lm.Acquire("T2", a, X) }()
	if !<-recycled {
		t.Fatal("B did not take A's idle state; the window was not exercised")
	}
	select {
	case err := <-t2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T2 waits on the reused state's grant for B")
	}
	if h := lm.Holders(a); len(h) != 1 || h[0] != "T2" {
		t.Fatalf("holders of A = %v, want [T2]", h)
	}
	if h := lm.Holders(b); len(h) != 1 || h[0] != "T3" {
		t.Fatalf("holders of B = %v, want [T3]", h)
	}
	lm.Release("T2", a)
	lm.Release("T3", b)
}

// wideTxn is one owner's transaction over many resources: it acquires each
// by handle and releases its list, as the engine does for a readSeq.
type wideTxn struct {
	lm    *LockManager
	req   *act
	owner Owner
	rs    []Resource
	held  []*Held
}

func newWideTxn(lm *LockManager, n int) *wideTxn {
	w := &wideTxn{lm: lm, req: begin(lm, "T1"), held: make([]*Held, 0, n)}
	w.owner = w.req.owner()
	for i := 0; i < n; i++ {
		w.rs = append(w.rs, res(fmt.Sprintf("item%03d", i)))
	}
	return w
}

func (w *wideTxn) run() error {
	w.held = w.held[:0]
	for _, r := range w.rs {
		h, err := w.lm.AcquireOwner(nil, w.req, w.owner, r, S)
		if err != nil {
			return err
		}
		w.held = append(w.held, h)
	}
	for _, h := range w.held {
		w.lm.ReleaseHeldOwner(h, w.owner)
	}
	return nil
}

// TestWideTxnReusesStates: a transaction holding 256 locks at once — a
// readSeq's items — finds its resources' idle states still in the table
// the next time round, so it allocates nothing.
func TestWideTxnReusesStates(t *testing.T) {
	w := newWideTxn(NewLockManager(WithShards(2)), 256)
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("256 acquires and their release = %.1f allocs, want 0", allocs)
	}
}

// TestIdleStatesBounded: one transaction holds three times the bound of
// distinct resources on one shard and releases them. The idle list then
// holds exactly the table's idle entries, no more than the bound, and the
// states released first left the table. A hit takes its state off the
// list, a release makes it the most recently idle, and a miss re-keys the
// least recently idle state.
func TestIdleStatesBounded(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	sh := lm.shards[0]
	bound := sh.maxIdle
	if bound != idleBound(1) {
		t.Fatalf("one shard's idle bound = %d, want %d", bound, idleBound(1))
	}
	check := func(when string) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		list := idleList(sh)
		idle := 0
		for r, st := range sh.locks {
			if st.res != r {
				t.Fatalf("%s: state keyed %v serves %v", when, r, st.res)
			}
			if len(st.granted) == 0 {
				idle++
			}
		}
		if idle != len(list) || len(list) > bound {
			t.Fatalf("%s: %d idle entries in the table, %d on the list, bound %d", when, idle, len(list), bound)
		}
	}
	w := newWideTxn(lm, 3*bound)
	if err := w.run(); err != nil {
		t.Fatal(err)
	}
	check("after 3x the bound")
	if sh.nidle != bound {
		t.Fatalf("%d idle states, want the bound %d", sh.nidle, bound)
	}
	for i, h := range w.held {
		st := (*lockState)(h)
		if i >= 2*bound && (stateOf(lm, w.rs[i]) != st || !st.idle) {
			t.Fatalf("resource %d of %d: released last, but its state is not kept idle", i, len(w.held))
		}
		if i < 2*bound && (stateOf(lm, w.rs[i]) != nil || st.idle || st.res != (Resource{})) {
			t.Fatalf("resource %d of %d: released first, but its state was not evicted", i, len(w.held))
		}
	}
	// The least recently idle state is the first of the last bound
	// resources released.
	first, second, third := w.rs[2*bound], w.rs[2*bound+1], w.rs[2*bound+2]
	stFirst, stSecond, stThird := stateOf(lm, first), stateOf(lm, second), stateOf(lm, third)
	if sh.oldest != stFirst {
		t.Fatal("the oldest idle state is not the least recently idle one")
	}
	if err := lm.Acquire("T2", first, X); err != nil {
		t.Fatal(err)
	}
	if stFirst.idle || sh.oldest != stSecond || sh.nidle != bound-1 {
		t.Fatal("a hit did not take its state off the list")
	}
	lm.Release("T2", first)
	if sh.newest != stFirst || sh.nidle != bound {
		t.Fatal("a released state must be the most recently idle")
	}
	fresh, other := res("fresh"), res("other")
	for _, r := range []Resource{fresh, other} {
		if err := lm.Acquire("T2", r, X); err != nil {
			t.Fatal(err)
		}
	}
	if stateOf(lm, fresh) != stSecond || stateOf(lm, other) != stThird || stateOf(lm, second) != nil || stateOf(lm, third) != nil {
		t.Fatal("a miss did not re-key the least recently idle state")
	}
	lm.Release("T2", fresh)
	lm.Release("T2", other)
	if sh.newest != stThird || sh.newest.prev != stSecond || sh.nidle != bound {
		t.Fatal("released states must be the most recently idle, in release order")
	}
	check("after the reuse")
}
