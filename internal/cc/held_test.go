package cc

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/span"
)

// TestReleaseHeldMatchesRelease: a handle releases exactly what Release by
// key releases — the owner's grant on that resource, re-entrant count and
// all, and no other owner's — and parks the idle state, which the next
// resource that misses reuses.
func TestReleaseHeldMatchesRelease(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	a := res("A")
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	h1, err := t1.acquireTraced(nil, t1.child(1), a, S)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := t2.acquireTraced(nil, t2.child(1), a, S)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || (*lockState)(h1) != stateOf(lm, a) {
		t.Fatal("two grants on one resource must hand out its one state")
	}
	if err := t1.acquire(a, S); err != nil { // re-entrant: count 2
		t.Fatal(err)
	}
	lm.ReleaseHeldOwner(h1, t1.owner())
	if h := lm.Holders(a); len(h) != 1 || h[0] != "T2" {
		t.Fatalf("holders after T1's release = %v, want [T2]", h)
	}
	lm.ReleaseHeldOwner(h2, t2.owner())
	if st := (*lockState)(h1); stateOf(lm, a) != st || !slices.Equal(idleList(lm.shards[0]), []*lockState{st}) {
		t.Fatal("idle state not parked under its resource")
	}
	if err := lm.Acquire("T3", res("B"), X); err != nil {
		t.Fatal(err)
	}
	if stateOf(lm, a) != nil || stateOf(lm, res("B")) != (*lockState)(h1) {
		t.Fatal("idle state not reused by a miss")
	}
	lm.Release("T3", res("B"))
}

// TestRecycledHandleReleaseIsNoop: owner T1 releases its handle twice;
// between the two releases the state is reused for another resource and
// granted to T2. The second release must find no grant of T1 there and
// leave T2's grant alone.
func TestRecycledHandleReleaseIsNoop(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	a, b := res("A"), res("B")
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	h, err := t1.acquireTraced(nil, t1.child(1), a, X)
	if err != nil {
		t.Fatal(err)
	}
	lm.ReleaseHeldOwner(h, t1.owner())
	hb, err := t2.acquireTraced(nil, t2.child(1), b, X)
	if err != nil {
		t.Fatal(err)
	}
	if hb != h {
		t.Fatal("B did not take A's idle state; the case is not exercised")
	}
	if st := (*lockState)(h); st.res != b {
		t.Fatalf("reused state serves %v, want %v", st.res, b)
	}
	lm.ReleaseHeldOwner(h, t1.owner())
	if got := lm.Holders(b); len(got) != 1 || got[0] != "T2" {
		t.Fatalf("holders of B after T1's stale release = %v, want [T2]", got)
	}
	// The reused state still excludes: T3 must block on B until T2 goes.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire("T3", b, X) }()
	waitFor(t, "T3 blocked on B", func() bool { return lm.Snapshot().Blocked == 1 })
	lm.ReleaseHeldOwner(hb, t2.owner())
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T3 not woken by T2's release")
	}
	lm.Release("T3", b)
	if lm.HoldsAny("T1") || lm.HoldsAny("T2") || lm.HoldsAny("T3") {
		t.Fatalf("locks left behind:\n%s", lm.String())
	}
}

// TestPooledStatePinsNoName: an idle state pins only its own resource. One
// re-keyed for another resource no longer keys the table by the old name,
// and one evicted at the idle bound leaves the table and forgets its
// resource, so a stale handle keeps no name string reachable.
func TestPooledStatePinsNoName(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	setIdleBound(lm, 1)
	sh := lm.shards[0]
	t1 := begin(lm, "T1")
	a, b, c := res("A"), res("B"), res("C")
	h, err := t1.acquireTraced(nil, t1, a, X)
	if err != nil {
		t.Fatal(err)
	}
	lm.ReleaseHeldOwner(h, t1.owner())
	hb, err := t1.acquireTraced(nil, t1, b, X) // re-keys A's idle state
	if err != nil {
		t.Fatal(err)
	}
	hc, err := t1.acquireTraced(nil, t1, c, X) // a new state: no idle one left
	if err != nil {
		t.Fatal(err)
	}
	if hb != h || hc == h {
		t.Fatal("B must reuse A's state and C get a new one")
	}
	lm.ReleaseHeldOwner(hb, t1.owner())
	lm.ReleaseHeldOwner(hc, t1.owner()) // at the bound: B's state is evicted
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.locks[a]; ok {
		t.Fatal("the table still keys a re-keyed state by its old resource")
	}
	if _, ok := sh.locks[b]; ok || !slices.Equal(idleList(sh), []*lockState{(*lockState)(hc)}) {
		t.Fatal("B's state was not evicted for C's")
	}
	if st := (*lockState)(h); st.res != (Resource{}) || st.sh != sh || st.idle {
		t.Fatalf("evicted state res=%v sh ok=%v idle=%v, want zero res, its shard, not idle", st.res, st.sh == sh, st.idle)
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
	if err := begin(lm, "T1").child(1).acquire(res("A"), S); !errors.Is(err, ErrDoomed) {
		t.Fatalf("doomed root's acquire = %v, want ErrDoomed", err)
	}
	d.clearDoomed("T1")
	if n := d.ndoomed.Load(); n != 0 {
		t.Fatalf("ndoomed after clearDoomed = %d, want 0", n)
	}
	d.forceDoom("T1")
	d.forceDoom("T2")
	lm.Forget("T1")
	if n := d.ndoomed.Load(); n != 1 || lm.Doomed("T1") || !lm.Doomed("T2") {
		t.Fatalf("after forgetting T1: ndoomed = %d, want 1 (T2 only)", n)
	}
	lm.Forget("T2")
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
	t4, t5 := begin(lm, "T4"), begin(lm, "T5")
	if err := t4.acquire(a, X); err != nil {
		t.Fatal(err)
	}
	if err := t5.acquire(b, X); err != nil {
		t.Fatal(err)
	}
	victim := make(chan error, 1)
	go func() { victim <- t5.acquire(a, X) }()
	waitFor(t, "T5 blocked", func() bool { return lm.Snapshot().Blocked == 1 })
	survivor := make(chan error, 1)
	go func() { survivor <- t4.acquire(b, X) }()
	select {
	case err := <-victim:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("victim's acquire = %v, want ErrDeadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked victim never woken")
	}
	t5.end()
	if err := <-survivor; err != nil {
		t.Fatal(err)
	}
	t4.end()
	if n := d.ndoomed.Load(); n != 0 {
		t.Fatalf("ndoomed after the victim's cleanup = %d, want 0", n)
	}
}

// TestAcquireTracedReleaseHeldAllocs: an uncontended traced acquire by a
// node owner and its release by handle allocate nothing.
func TestAcquireTracedReleaseHeldAllocs(t *testing.T) {
	lm := NewLockManager()
	tt := span.New().BeginTxn("T1", time.Now())
	r := res("P")
	t1 := begin(lm, "T1")
	req, owner := t1.child(1), t1.owner()
	allocs := testing.AllocsPerRun(200, func() {
		h, err := lm.AcquireOwner(tt, req, owner, r, X)
		if err != nil {
			t.Fatal(err)
		}
		lm.ReleaseHeldOwner(h, owner)
	})
	if allocs != 0 {
		t.Fatalf("AcquireOwner+ReleaseHeldOwner = %.1f allocs, want 0", allocs)
	}
}

// BenchmarkAcquireRelease prices one uncontended acquire-release pair,
// released by key (Release hashes the resource and looks it up) and by
// handle (ReleaseHeldOwner goes straight to the granted state).
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
		t1 := begin(lm, "T1")
		owner := t1.owner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := lm.AcquireOwner(nil, t1, owner, r, X)
			if err != nil {
				b.Fatal(err)
			}
			lm.ReleaseHeldOwner(h, owner)
		}
	})
}

// BenchmarkCommitRelease prices the end of a transaction holding 4 locks
// while 0, 1,000 or 10,000 grants of other transactions sit in the table:
// its four acquires, then the release of the root's list. Nothing scans
// the table, so the cost does not grow with the foreign grants.
func BenchmarkCommitRelease(b *testing.B) {
	for _, foreign := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("foreign=%d", foreign), func(b *testing.B) {
			lm := NewLockManager()
			for i := 0; i < foreign; i++ {
				if err := lm.Acquire(fmt.Sprintf("F%d", i), res(fmt.Sprintf("F%d", i)), X); err != nil {
					b.Fatal(err)
				}
			}
			mine := []Resource{res("A"), res("B"), res("C"), res("D")}
			var root Node
			owner := NodeOwner("T1", &root)
			req := begin(lm, "T1")
			held := make([]*Held, 0, len(mine))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				held = held[:0]
				for _, r := range mine {
					h, err := lm.AcquireOwner(nil, req, owner, r, X)
					if err != nil {
						b.Fatal(err)
					}
					held = append(held, h)
				}
				for _, h := range held {
					lm.ReleaseHeldOwner(h, owner)
				}
				lm.Forget("T1")
			}
		})
	}
}

// BenchmarkWideTxn prices a transaction holding 256 locks at once, a
// readSeq's items: its 256 acquires, then the release of its list. The
// resources' idle states stay in the table between rounds, so a round
// allocates nothing.
func BenchmarkWideTxn(b *testing.B) {
	w := newWideTxn(NewLockManager(), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.run(); err != nil {
			b.Fatal(err)
		}
	}
}
