package cc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/commut"
	"repro/internal/txn"
)

func res(name string) Resource { return txn.OID{Type: "page", Name: name} }

func TestRWCompatibility(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{S, S, true},
		{S, X, false},
		{X, S, false},
		{X, X, false},
	}
	for _, c := range cases {
		if got := c.a.CompatibleWith(c.b); got != c.want {
			t.Errorf("%v/%v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if S.String() != "S" || X.String() != "X" {
		t.Fatal("mode strings wrong")
	}
}

func TestSemanticCompatibility(t *testing.T) {
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	ins1 := &Semantic{Inv: commut.Invocation{Method: "insert", Params: []string{"k1"}}, Spec: spec}
	ins2 := &Semantic{Inv: commut.Invocation{Method: "insert", Params: []string{"k2"}}, Spec: spec}
	ins1b := &Semantic{Inv: commut.Invocation{Method: "insert", Params: []string{"k1"}}, Spec: spec}

	if !ins1.CompatibleWith(ins2) {
		t.Fatal("distinct-key inserts must be compatible")
	}
	if ins1.CompatibleWith(ins1b) {
		t.Fatal("same-key inserts must conflict")
	}
	if ins1.CompatibleWith(X) || X.CompatibleWith(ins1) {
		t.Fatal("mode families must not mix")
	}
	if ins1.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSameMode(t *testing.T) {
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	sem := func(method string, params ...string) *Semantic {
		return &Semantic{Inv: commut.Invocation{Method: method, Params: params}, Spec: spec}
	}
	cases := []struct {
		a, b Mode
		want bool
	}{
		{S, S, true},
		{S, X, false},
		{sem("insert", "k1", "r"), sem("insert", "k1", "r"), true},
		{sem("insert", "k1"), sem("insert", "k2"), false},
		{sem("insert", "k1"), sem("search", "k1"), false},
		{sem("insert", "a,b"), sem("insert", "a", "b"), false},
		{sem("insert"), X, false},
		{X, sem("insert"), false},
	}
	for _, c := range cases {
		if got := sameMode(c.a, c.b); got != c.want {
			t.Errorf("sameMode(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAcquireReleaseBasic(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	if !lm.HoldsAny("T1") {
		t.Fatal("T1 must hold a lock")
	}
	// Re-entrant.
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	// Shared readers coexist.
	if err := lm.Acquire("T2", res("Q"), S); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire("T3", res("Q"), S); err != nil {
		t.Fatal(err)
	}
	holders := lm.Holders(res("Q"))
	if len(holders) != 2 {
		t.Fatalf("holders = %v", holders)
	}
	lm.Release("T1", res("P"))
	if lm.HoldsAny("T1") {
		t.Fatal("release failed")
	}
	st := lm.Snapshot()
	if st.Acquires != 4 || st.Blocked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlockingAndWakeup(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.Acquire("T2", res("P"), X)
	}()
	select {
	case err := <-done:
		t.Fatalf("T2 acquired too early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lm.Release("T1", res("P"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T2 never woke up")
	}
	st := lm.Snapshot()
	if st.Blocked != 1 {
		t.Fatalf("Blocked = %d", st.Blocked)
	}
	if st.WaitTime <= 0 {
		t.Fatal("wait time not recorded")
	}
}

func TestSameRootNoSelfBlocking(t *testing.T) {
	lm := NewLockManager()
	t1 := begin(lm, "T1")
	t11, t12 := t1.child(1), t1.child(2)
	if err := t11.acquire(res("P"), X); err != nil {
		t.Fatal(err)
	}
	// A different subtransaction of the same top-level transaction passes.
	if err := t12.acquire(res("P"), X); err != nil {
		t.Fatal(err)
	}
	// A different transaction blocks.
	errCh := make(chan error, 1)
	go func() { errCh <- begin(lm, "T2").child(1).acquire(res("P"), X) }()
	select {
	case <-errCh:
		t.Fatal("T2.1 must block")
	case <-time.After(50 * time.Millisecond):
	}
	t11.handUp()
	t12.handUp()
	t1.end()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestAncestorBypass(t *testing.T) {
	lm := NewLockManager()
	t1 := begin(lm, "T1")
	if err := t1.acquire(res("P"), X); err != nil {
		t.Fatal(err)
	}
	// Child of T1 passes under Moss's rule, which every manager applies:
	// an ancestor is of the requester's own transaction, whose locks never
	// block it.
	if err := t1.child(3).child(1).acquire(res("P"), X); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := t2.acquire(res("B"), X); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t1.acquire(res("B"), X)
		if errs[0] != nil {
			t1.end() // abort: free the waits the other side has on us
		}
	}()
	time.Sleep(30 * time.Millisecond) // let T1 block first
	go func() {
		defer wg.Done()
		errs[1] = t2.acquire(res("A"), X)
		if errs[1] != nil {
			t2.end()
		}
	}()
	wg.Wait()

	// Exactly one is the victim (the youngest: T2), and the survivor's
	// blocked acquire succeeds once the victim's locks are gone.
	if !errors.Is(errs[1], ErrDeadlock) {
		t.Fatalf("youngest (T2) should be the victim: %v", errs)
	}
	if errs[0] != nil {
		t.Fatalf("survivor T1 should acquire after victim abort: %v", errs[0])
	}
	t1.end()
	st := lm.Snapshot()
	if st.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d", st.Deadlocks)
	}
}

func TestDoomedFailsFast(t *testing.T) {
	lm := NewLockManager()
	lm.det.forceDoom("T9")
	t9 := begin(lm, "T9")
	t91 := t9.child(1)
	if err := t91.acquire(res("A"), X); !errors.Is(err, ErrDoomed) {
		t.Fatalf("err = %v, want ErrDoomed", err)
	}
	t9.end()
	if lm.Doomed("T9") {
		t.Fatal("ending the transaction must clear doomed")
	}
	if err := t91.acquire(res("A"), X); err != nil {
		t.Fatalf("after cleanup: %v", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	lm := NewLockManager(WithWaitTimeout(60 * time.Millisecond))
	if err := lm.Acquire("T1", res("P"), X); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lm.Acquire("T2", res("P"), X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("returned before the timeout")
	}
	if lm.Snapshot().Timeouts != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestTransferToParent(t *testing.T) {
	lm := NewLockManager()
	t1 := begin(lm, "T1")
	t11 := t1.child(1)
	if err := t11.acquire(res("P"), X); err != nil {
		t.Fatal(err)
	}
	t11.handUp()
	holders := lm.Holders(res("P"))
	if len(holders) != 1 || holders[0] != "T1" {
		t.Fatalf("holders = %v", holders)
	}
	if lm.HoldsAny("T1.1") {
		t.Fatal("child still holds")
	}
	// The handle moved with the grant: the parent's list releases it.
	t1.end()
	if lm.String() != "" {
		t.Fatalf("the parent's list left a grant:\n%s", lm.String())
	}
}

func TestSemanticLocksConcurrentInserts(t *testing.T) {
	// The paper's leaf: distinct-key inserts hold semantic locks together;
	// a same-key search must wait.
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	leaf := txn.OID{Type: "btreenode", Name: "Leaf11"}
	lm := NewLockManager()

	mode := func(m, k string) *Semantic {
		return &Semantic{Inv: commut.Invocation{Method: m, Params: []string{k}}, Spec: spec}
	}
	t1 := begin(lm, "T1")
	t11 := t1.child(1)
	if err := t11.acquire(leaf, mode("insert", "DBS")); err != nil {
		t.Fatal(err)
	}
	if err := begin(lm, "T2").child(1).acquire(leaf, mode("insert", "DBMS")); err != nil {
		t.Fatal(err) // commuting: granted concurrently
	}
	errCh := make(chan error, 1)
	go func() { errCh <- begin(lm, "T3").child(1).acquire(leaf, mode("search", "DBS")) }()
	select {
	case <-errCh:
		t.Fatal("same-key search must block behind insert(DBS)")
	case <-time.After(50 * time.Millisecond):
	}
	t11.handUp()
	t1.end()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	lm := NewLockManager()
	// Must not panic.
	lm.Release("T1", res("never"))
	begin(lm, "T1").end()
}

func TestRootOfAndSeq(t *testing.T) {
	if rootOf("T12.3.4") != "T12" || rootOf("T7") != "T7" {
		t.Fatal("rootOf wrong")
	}
	if txnSeq("T12") != 12 || txnSeq("Txn") != -1 || txnSeq("T0") != 0 {
		t.Fatal("txnSeq wrong")
	}
	lm := NewLockManager()
	if lm.det.youngest([]string{"T3", "T12", "T7"}) != "T12" {
		t.Fatal("youngest wrong")
	}
	lm.SetAge("T3", 99)
	if lm.det.youngest([]string{"T3", "T12", "T7"}) != "T3" {
		t.Fatal("SetAge must override the id-derived age")
	}
	lm.Forget("T3")
	if lm.det.youngest([]string{"T3", "T12", "T7"}) != "T12" {
		t.Fatal("Forget must clear the age override")
	}
}

func TestStringRendering(t *testing.T) {
	lm := NewLockManager()
	_ = lm.Acquire("T1", res("P"), X)
	if lm.String() == "" {
		t.Fatal("empty lock table rendering")
	}
}

// Property: mutual exclusion — with random X-lock traffic, no two distinct
// roots ever hold the same resource simultaneously.
func TestPropertyMutualExclusion(t *testing.T) {
	f := func(seed int64) bool {
		lm := NewLockManager(WithWaitTimeout(2 * time.Second))
		r := rand.New(rand.NewSource(seed))
		resources := []Resource{res("A"), res("B"), res("C")}
		var mu sync.Mutex
		holding := map[Resource]string{}
		violation := false

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(seed))
				owner := fmt.Sprintf("T%d", id)
				for i := 0; i < 30; i++ {
					re := resources[rr.Intn(len(resources))]
					if err := lm.Acquire(owner, re, X); err != nil {
						lm.Forget(owner) // it holds nothing: each grant is released below
						continue
					}
					mu.Lock()
					if h, ok := holding[re]; ok && h != owner {
						violation = true
					}
					holding[re] = owner
					mu.Unlock()

					mu.Lock()
					delete(holding, re)
					mu.Unlock()
					lm.Release(owner, re)
				}
				lm.Forget(owner)
			}(g, r.Int63())
		}
		wg.Wait()
		return !violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: no lost grants — after all goroutines release everything, the
// lock table is empty.
func TestPropertyCleanRelease(t *testing.T) {
	lm := NewLockManager(WithWaitTimeout(time.Second))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := begin(lm, fmt.Sprintf("T%d", id))
			sub := tx.child(1)
			for i := 0; i < 50; i++ {
				re := res(fmt.Sprintf("R%d", i%5))
				if err := sub.acquire(re, S); err == nil {
					sub.releaseRes(re)
				}
			}
			sub.handUp()
			tx.end()
		}(g)
	}
	wg.Wait()
	for i := 0; i < 5; i++ {
		if h := lm.Holders(res(fmt.Sprintf("R%d", i))); len(h) != 0 {
			t.Fatalf("R%d still held by %v", i, h)
		}
	}
}

// TestThreeWayDeadlock: a cycle across three transactions is broken.
func TestThreeWayDeadlock(t *testing.T) {
	lm := NewLockManager()
	txs := []*act{begin(lm, "T1"), begin(lm, "T2"), begin(lm, "T3")}
	for i, r := range []Resource{res("A"), res("B"), res("C")} {
		if err := txs[i].acquire(r, X); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	next := []Resource{res("B"), res("C"), res("A")}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = txs[i].acquire(next[i], X)
			// Commit or abort: either way the transaction ends and frees
			// its locks, letting the remaining waiters drain.
			txs[i].end()
		}(i)
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	victims := 0
	for _, err := range errs {
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrDoomed) {
			victims++
		}
	}
	if victims == 0 {
		t.Fatalf("no victim chosen: %v", errs)
	}
	if tbl := lm.String(); tbl != "" {
		t.Fatalf("locks left after every transaction ended:\n%s", tbl)
	}
}

func BenchmarkSemanticAcquire(b *testing.B) {
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	lm := NewLockManager()
	leaf := txn.OID{Type: "btreenode", Name: "L"}
	m := &Semantic{Inv: commut.Invocation{Method: "insert", Params: []string{"k"}}, Spec: spec}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := lm.Acquire("T1", leaf, m); err != nil {
			b.Fatal(err)
		}
		lm.Release("T1", leaf)
	}
}

// TestRestartAgeBeatsStarvation: with SetAge, a restarted transaction
// keeps seniority over younger newcomers in victim selection.
func TestRestartAgeBeatsStarvation(t *testing.T) {
	lm := NewLockManager()
	// Simulate: T5 (restart of T2, keeps age 2) deadlocks with fresh T9.
	lm.SetAge("T5", 2)
	t5, t9 := begin(lm, "T5"), begin(lm, "T9")
	if err := t5.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := t9.acquire(res("B"), X); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t5.acquire(res("B"), X)
		t5.end()
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		errs[1] = t9.acquire(res("A"), X)
		t9.end()
	}()
	wg.Wait()
	// T9 (fresh, age 9 > 2) must be the victim despite T5's higher id.
	if errs[0] != nil {
		t.Fatalf("restarted senior T5 must survive: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrDeadlock) {
		t.Fatalf("fresh T9 must be the victim: %v", errs[1])
	}
}

// TestClearDoomedAllowsRollbackAcquires: a doomed transaction that calls
// ClearDoomed can acquire locks again (its rollback needs them) and is not
// re-chosen as victim against a younger transaction.
func TestClearDoomedAllowsRollbackAcquires(t *testing.T) {
	lm := NewLockManager()
	lm.det.forceDoom("T3")
	t3 := begin(lm, "T3")
	t31 := t3.child(1)
	if err := t31.acquire(res("A"), X); !errors.Is(err, ErrDoomed) {
		t.Fatalf("doomed acquire: %v", err)
	}
	lm.ClearDoomed("T3")
	if err := t31.acquire(res("A"), X); err != nil {
		t.Fatalf("post-clear acquire: %v", err)
	}
	// Age 0 means T3 now always wins victim selection.
	if lm.det.youngest([]string{"T3", "T1"}) != "T1" {
		t.Fatal("cleared transaction must have top priority")
	}
	t31.release()
	t3.end()
}

// TestFairnessPreventsReaderBarging: under WithFairness, a continuous
// stream of readers cannot starve a waiting writer — once the writer
// queues, later readers wait behind it.
func TestFairnessPreventsReaderBarging(t *testing.T) {
	lm := NewLockManager(WithFairness())
	if err := lm.Acquire("T1", res("P"), S); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- lm.Acquire("T2", res("P"), X) }()
	// Wait until the writer is queued.
	for i := 0; ; i++ {
		if lm.waiterCount(res("P")) == 1 {
			break
		}
		if i > 200 {
			t.Fatal("writer never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A later reader must NOT barge past the queued writer.
	reader := make(chan error, 1)
	go func() { reader <- lm.Acquire("T3", res("P"), S) }()
	select {
	case err := <-reader:
		t.Fatalf("reader barged past the waiting writer: %v", err)
	case <-time.After(80 * time.Millisecond):
	}
	// Release the original reader: the writer gets the lock first.
	lm.Release("T1", res("P"))
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	// The late reader still waits (writer holds X)...
	select {
	case err := <-reader:
		t.Fatalf("reader acquired against a held X lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lm.Release("T2", res("P"))
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
	lm.Release("T3", res("P"))
}

// TestUnfairAllowsBarging documents the default: without fairness, a
// compatible reader IS granted past a waiting writer.
func TestUnfairAllowsBarging(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire("T1", res("P"), S); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- lm.Acquire("T2", res("P"), X) }()
	time.Sleep(30 * time.Millisecond)
	// The reader barges (S compatible with S; waiters invisible).
	if err := lm.Acquire("T3", res("P"), S); err != nil {
		t.Fatalf("default mode must allow the compatible grant: %v", err)
	}
	lm.Release("T1", res("P"))
	lm.Release("T3", res("P"))
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	lm.Release("T2", res("P"))
}

// TestFairnessDeadlockStillDetected: queue-induced waits participate in
// normal deadlock detection via the lock-holder edges.
func TestFairnessDeadlockStillDetected(t *testing.T) {
	lm := NewLockManager(WithFairness(), WithWaitTimeout(2*time.Second))
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := t2.acquire(res("B"), X); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t1.acquire(res("B"), X)
		t1.end()
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		errs[1] = t2.acquire(res("A"), X)
		t2.end()
	}()
	wg.Wait()
	victims := 0
	for _, err := range errs {
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout) {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("exactly one victim expected: %v", errs)
	}
}
