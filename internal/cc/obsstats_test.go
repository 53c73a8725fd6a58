package cc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlockVictimCountedOncePerVictim: a victim whose SIBLING
// subtransactions are blocked in parallel is still one deadlock. The old
// accounting charged the counter at every acquire that observed the doom
// mark, reporting 2 victims here.
func TestDeadlockVictimCountedOncePerVictim(t *testing.T) {
	lm := NewLockManager()
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	for _, r := range []string{"A", "B"} {
		if err := t1.acquire(res(r), X); err != nil {
			t.Fatal(err)
		}
	}
	if err := t2.acquire(res("C"), X); err != nil {
		t.Fatal(err)
	}

	// Two sibling subtransactions of T2 block on T1's locks in parallel:
	// both charge waits-for edges under root T2.
	sib := make(chan error, 2)
	go func() { sib <- t2.child(1).acquire(res("A"), X) }()
	go func() { sib <- t2.child(2).acquire(res("B"), X) }()
	waitFor(t, "both siblings blocked", func() bool { return lm.Snapshot().Blocked == 2 })

	// T1 -> C closes the cycle T1 -> T2 -> T1; the youngest (T2) is doomed
	// and BOTH its blocked siblings wake with ErrDeadlock.
	survivor := make(chan error, 1)
	go func() { survivor <- t1.acquire(res("C"), X) }()
	for i := 0; i < 2; i++ {
		if err := <-sib; !errors.Is(err, ErrDeadlock) {
			t.Fatalf("sibling %d: err = %v, want ErrDeadlock", i, err)
		}
	}
	t2.end() // victim aborts
	if err := <-survivor; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	t1.end()

	st := lm.Snapshot()
	if st.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d, want 1 (one victim, not one per blocked acquire)", st.Deadlocks)
	}
	if st.WaitTime <= 0 {
		t.Fatalf("WaitTime = %v, want > 0 (victims' waits must accrue)", st.WaitTime)
	}
}

// TestSelfVictimCountedOnce: the acquire that detects the cycle and IS the
// victim counts itself exactly once, and — with obs attached — leaves one
// lock.deadlock event on the flight recorder.
func TestSelfVictimCountedOnce(t *testing.T) {
	reg := obs.New()
	lm := NewLockManager(WithObs(reg))
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := t2.acquire(res("B"), X); err != nil {
		t.Fatal(err)
	}
	older := make(chan error, 1)
	go func() { older <- t1.acquire(res("B"), X) }()
	waitFor(t, "T1 blocked", func() bool { return lm.Snapshot().Blocked == 1 })

	// T2 -> A closes the cycle; T2 is the youngest, so it victimizes itself
	// synchronously inside this call.
	if err := t2.acquire(res("A"), X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	t2.end()
	if err := <-older; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	t1.end()

	if st := lm.Snapshot(); st.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d, want 1", st.Deadlocks)
	}
	victims := 0
	for _, e := range reg.Recorder().Tail(0) {
		if e.Kind == obs.EvLockDeadlock {
			victims++
			if e.Actor != "T2" {
				t.Fatalf("deadlock event actor = %q, want T2", e.Actor)
			}
		}
	}
	if victims != 1 {
		t.Fatalf("lock.deadlock events = %d, want 1", victims)
	}
}

// TestWaitTimeAccruedOnTimeout: an acquire that exits through the timeout
// path must still accrue its wait in Stats.WaitTime and observe it in the
// wait histogram.
func TestWaitTimeAccruedOnTimeout(t *testing.T) {
	reg := obs.New()
	lm := NewLockManager(WithWaitTimeout(50*time.Millisecond), WithObs(reg))
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire("T2", res("P"), X); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	st := lm.Snapshot()
	if st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	if st.WaitTime < 40*time.Millisecond {
		t.Fatalf("WaitTime = %v, want >= ~50ms (timeout exits must accrue wait)", st.WaitTime)
	}
	if n := reg.Histogram("lock.wait_ns", obs.LatencyBounds()).Count(); n != 1 {
		t.Fatalf("wait histogram count = %d, want 1", n)
	}
	found := false
	for _, e := range reg.Recorder().Tail(0) {
		if e.Kind == obs.EvLockTimeout && e.Actor == "T2" && e.Dur >= 40*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatal("no lock.timeout event with the wait duration on the recorder")
	}
	lm.Release("T1", res("P"))
}

// TestObsBlockGrantLifecycle: a blocked-then-granted acquire leaves a
// block/grant event pair, moves the waiting gauge up and back down, and the
// registry snapshot publishes the manager's Stats under "lock".
func TestObsBlockGrantLifecycle(t *testing.T) {
	reg := obs.New()
	lm := NewLockManager(WithObs(reg))
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire("T2", res("P"), X) }()
	waitFor(t, "T2 blocked", func() bool { return lm.Snapshot().Blocked == 1 })
	if g := reg.Gauge("lock.waiting").Load(); g != 1 {
		t.Fatalf("lock.waiting = %d, want 1 while blocked", g)
	}
	lm.Release("T1", res("P"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g := reg.Gauge("lock.waiting").Load(); g != 0 {
		t.Fatalf("lock.waiting = %d, want 0 after grant", g)
	}
	var block, grant bool
	for _, e := range reg.Recorder().Tail(0) {
		switch e.Kind {
		case obs.EvLockBlock:
			block = e.Actor == "T2" && e.Object == "P"
		case obs.EvLockGrant:
			grant = e.Actor == "T2" && e.Dur > 0
		}
	}
	if !block || !grant {
		t.Fatalf("block=%v grant=%v, want both events recorded", block, grant)
	}
	snap := reg.Snapshot()
	lockStats, ok := snap["lock"].(Stats)
	if !ok {
		t.Fatalf("snapshot[lock] = %T, want cc.Stats", snap["lock"])
	}
	if lockStats.Acquires < 2 || lockStats.Blocked != 1 {
		t.Fatalf("published stats = %+v", lockStats)
	}
	lm.Release("T2", res("P"))
}
