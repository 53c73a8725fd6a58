package cc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/span"
)

// TestReleaseHeldMatchesRelease: a handle releases exactly what Release by
// key releases — the owner's grant on that resource, re-entrant count and
// all, and no other owner's — and collects the idle state.
func TestReleaseHeldMatchesRelease(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	a := res("A")
	h1, err := lm.AcquireTraced(nil, ActionID("T1.1"), "T1", a, S)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := lm.AcquireTraced(nil, ActionID("T2.1"), "T2", a, S)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || (*lockState)(h1) != stateOf(lm, a) {
		t.Fatal("two grants on one resource must hand out its one state")
	}
	if err := lm.Acquire("T1", a, S); err != nil { // re-entrant: count 2
		t.Fatal(err)
	}
	lm.ReleaseHeld(h1, "T1")
	if h := lm.Holders(a); len(h) != 1 || h[0] != "T2" {
		t.Fatalf("holders after T1's release = %v, want [T2]", h)
	}
	lm.ReleaseHeld(h2, "T2")
	if stateOf(lm, a) != nil {
		t.Fatal("idle state not collected")
	}
}

// TestRecycledHandleReleaseIsNoop: owner T1 releases its handle twice;
// between the two releases the state is recycled for another resource and
// granted to T2. The second release must find no grant of T1 there and
// leave T2's grant alone.
func TestRecycledHandleReleaseIsNoop(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	a, b := res("A"), res("B")
	h, err := lm.AcquireTraced(nil, ActionID("T1.1"), "T1", a, X)
	if err != nil {
		t.Fatal(err)
	}
	lm.ReleaseHeld(h, "T1")
	hb, err := lm.AcquireTraced(nil, ActionID("T2.1"), "T2", b, X)
	if err != nil {
		t.Fatal(err)
	}
	if hb != h {
		t.Fatal("B did not take A's recycled state; the case is not exercised")
	}
	if st := (*lockState)(h); st.res != b {
		t.Fatalf("recycled state serves %v, want %v", st.res, b)
	}
	lm.ReleaseHeld(h, "T1")
	if got := lm.Holders(b); len(got) != 1 || got[0] != "T2" {
		t.Fatalf("holders of B after T1's stale release = %v, want [T2]", got)
	}
	// The recycled state still excludes: T3 must block on B until T2 goes.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire("T3", b, X) }()
	waitFor(t, "T3 blocked on B", func() bool { return lm.Snapshot().Blocked == 1 })
	lm.ReleaseHeld(hb, "T2")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T3 not woken by T2's release")
	}
	lm.ReleaseTree("T3")
	if lm.HoldsAny("T1") || lm.HoldsAny("T2") || lm.HoldsAny("T3") {
		t.Fatalf("locks left behind:\n%s", lm.String())
	}
}

// TestPooledStatePinsNoName: a recycled state forgets its resource, so the
// free list keeps no name strings reachable.
func TestPooledStatePinsNoName(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	h, err := lm.AcquireTraced(nil, ActionID("T1"), "T1", res("A"), X)
	if err != nil {
		t.Fatal(err)
	}
	lm.ReleaseHeld(h, "T1")
	sh := lm.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.free) != 1 || sh.free[0] != (*lockState)(h) {
		t.Fatal("released state not pooled")
	}
	if st := sh.free[0]; st.res != (Resource{}) || st.sh != sh {
		t.Fatalf("pooled state res=%v sh ok=%v, want zero res and its shard", st.res, st.sh == sh)
	}
}

// TestDoomedCounter: ndoomed mirrors the doomed set through every site that
// changes it, a doomed root still fails its next acquire, and a victim
// blocked on another shard is still woken when the count turns nonzero.
func TestDoomedCounter(t *testing.T) {
	lm := NewLockManager(WithShards(4))
	d := lm.det
	d.forceDoom("T1")
	if n := d.ndoomed.Load(); n != 1 {
		t.Fatalf("ndoomed after forceDoom = %d, want 1", n)
	}
	if err := lm.Acquire("T1.1", res("A"), S); !errors.Is(err, ErrDoomed) {
		t.Fatalf("doomed root's acquire = %v, want ErrDoomed", err)
	}
	d.clearDoomed("T1")
	if n := d.ndoomed.Load(); n != 0 {
		t.Fatalf("ndoomed after clearDoomed = %d, want 0", n)
	}
	d.forceDoom("T1")
	d.forceDoom("T2")
	lm.ReleaseTree("T1") // forget
	if n := d.ndoomed.Load(); n != 1 || lm.Doomed("T1") || !lm.Doomed("T2") {
		t.Fatalf("after forgetting T1: ndoomed = %d, want 1 (T2 only)", n)
	}
	lm.ReleaseTree("T2")
	if n := d.ndoomed.Load(); n != 0 {
		t.Fatalf("ndoomed after forget = %d, want 0", n)
	}

	// Two resources on different shards; T5 (younger) blocks first, then
	// T4 closes the cycle and dooms T5, which sleeps on the other shard.
	a := res("A")
	var b Resource
	for i := 0; ; i++ {
		if b = res(fmt.Sprint("B", i)); lm.shardFor(b) != lm.shardFor(a) {
			break
		}
	}
	if err := lm.Acquire("T4", a, X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire("T5", b, X); err != nil {
		t.Fatal(err)
	}
	victim := make(chan error, 1)
	go func() { victim <- lm.Acquire("T5", a, X) }()
	waitFor(t, "T5 blocked", func() bool { return lm.Snapshot().Blocked == 1 })
	survivor := make(chan error, 1)
	go func() { survivor <- lm.Acquire("T4", b, X) }()
	select {
	case err := <-victim:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("victim's acquire = %v, want ErrDeadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked victim never woken")
	}
	lm.ReleaseTree("T5")
	if err := <-survivor; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseTree("T4")
	if n := d.ndoomed.Load(); n != 0 {
		t.Fatalf("ndoomed after the victim's cleanup = %d, want 0", n)
	}
}

// TestAcquireTracedReleaseHeldAllocs: an uncontended traced acquire and its
// release by handle allocate nothing.
func TestAcquireTracedReleaseHeldAllocs(t *testing.T) {
	lm := NewLockManager()
	tt := span.New().BeginTxn("T1", time.Now())
	r := res("P")
	allocs := testing.AllocsPerRun(200, func() {
		h, err := lm.AcquireTraced(tt, ActionID("T1.1"), "T1", r, X)
		if err != nil {
			t.Fatal(err)
		}
		lm.ReleaseHeld(h, "T1")
	})
	if allocs != 0 {
		t.Fatalf("AcquireTraced+ReleaseHeld = %.1f allocs, want 0", allocs)
	}
}

// BenchmarkAcquireRelease prices one uncontended acquire-release pair,
// released by key (Release hashes the resource and looks it up) and by
// handle (ReleaseHeld goes straight to the granted state).
func BenchmarkAcquireRelease(b *testing.B) {
	r := res("P")
	b.Run("key", func(b *testing.B) {
		lm := NewLockManager()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lm.Acquire("T1", r, X); err != nil {
				b.Fatal(err)
			}
			lm.Release("T1", r)
		}
	})
	b.Run("handle", func(b *testing.B) {
		lm := NewLockManager()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := lm.AcquireTraced(nil, ActionID("T1"), "T1", r, X)
			if err != nil {
				b.Fatal(err)
			}
			lm.ReleaseHeld(h, "T1")
		}
	})
}
