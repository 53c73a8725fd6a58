package cc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/commut"
)

// TestUncontendedAcquireAllocs: an uncontended Acquire+Release reuses the
// shard's recycled lock state (its grant array and embedded cond), and an
// RW or *Semantic mode boxes into a Mode without allocating.
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
		if allocs > 1 {
			t.Errorf("%v: Acquire+Release = %.1f allocs, want <= 1", m, allocs)
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

// TestRecycledStateStartsEmpty: a state that held grants — and, in fairness
// mode, queued waiters — goes back to the free list with both arrays
// zeroed, and serves the next resource with only that resource's grant.
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
		if stateOf(lm, a) != nil {
			t.Fatalf("fair=%v: idle state not collected", fair)
		}
		sh := lm.shards[0]
		sh.mu.Lock()
		pooled := len(sh.free) == 1 && sh.free[0] == stA
		for _, g := range stA.granted[:cap(stA.granted)] {
			if g != (grant{}) {
				t.Errorf("fair=%v: pooled state retains grant %+v", fair, g)
			}
		}
		for _, w := range stA.waiting[:cap(stA.waiting)] {
			if w != nil {
				t.Errorf("fair=%v: pooled state retains waiter %+v", fair, *w)
			}
		}
		sh.mu.Unlock()
		if !pooled {
			t.Fatalf("fair=%v: A's state was not put on the free list", fair)
		}

		if err := lm.Acquire("T4", b, X); err != nil {
			t.Fatal(err)
		}
		stB := stateOf(lm, b)
		if stB != stA {
			t.Fatalf("fair=%v: B did not reuse A's state", fair)
		}
		if len(stB.granted) != 1 || stB.granted[0].owner.String() != "T4" || len(stB.waiting) != 0 || stB.sleepers != 0 {
			t.Fatalf("fair=%v: recycled state has grants %+v, waiters %d, sleepers %d; want only T4's grant",
				fair, stB.granted, len(stB.waiting), stB.sleepers)
		}
		lm.Release("T4", b)
	}
}

// TestWaiterRefetchesRecycledState: while a blocked acquire is in its
// unlocked detector window, its resource's holder releases — the idle state
// is collected onto the free list — and another resource on the same shard
// takes that state and is granted. The waiter must re-fetch the state of
// its own resource instead of reading the recycled one, whose grant (T3 on
// B) would otherwise block it on a resource it never asked for.
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
		t.Fatal("B did not take A's collected state; the window was not exercised")
	}
	select {
	case err := <-t2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T2 waits on the recycled state's grant for B")
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
