package cc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/span"
)

func TestAcquireExUncontended(t *testing.T) {
	lm := NewLockManager()
	t1 := begin(lm, "T1")
	info, err := t1.acquireEx(res("A"), X)
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocked || info.Wait != 0 || len(info.Blockers) != 0 {
		t.Fatalf("uncontended grant reported contention: %+v", info)
	}
	t1.end()
}

func TestAcquireExBlockedThenGranted(t *testing.T) {
	lm := NewLockManager()
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var info AcquireInfo
	var err error
	go func() {
		defer close(done)
		info, err = t2.acquireEx(res("A"), X)
	}()
	time.Sleep(30 * time.Millisecond)
	t1.end()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !info.Blocked || info.Wait <= 0 {
		t.Fatalf("blocked grant must report its wait: %+v", info)
	}
	if len(info.Blockers) == 0 || info.Blockers[0].Owner != "T1" {
		t.Fatalf("blockers must name the holder that made us wait: %+v", info.Blockers)
	}
	t2.end()
}

func TestAcquireExTimeoutProvenance(t *testing.T) {
	lm := NewLockManager(WithWaitTimeout(50 * time.Millisecond))
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	info, err := t2.acquireEx(res("A"), X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !info.TimedOut || !info.Blocked {
		t.Fatalf("timeout must be flagged: %+v", info)
	}
	if len(info.Blockers) == 0 || info.Blockers[0].Owner != "T1" || info.Blockers[0].Mode != "X" {
		t.Fatalf("timeout must name who was still holding: %+v", info.Blockers)
	}
	t2.end()
	t1.end()
}

func TestAcquireExDeadlockCycle(t *testing.T) {
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
	var victimInfo AcquireInfo
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t1.acquire(res("B"), X)
		if errs[0] != nil {
			t1.end()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		victimInfo, errs[1] = t2.acquireEx(res("A"), X)
		if errs[1] != nil {
			t2.end()
		}
	}()
	wg.Wait()
	if !errors.Is(errs[1], ErrDeadlock) {
		t.Fatalf("youngest (T2) should be the victim: %v", errs)
	}
	if len(victimInfo.Cycle) < 2 {
		t.Fatalf("victim must receive its waits-for cycle: %+v", victimInfo)
	}
	found := map[string]bool{}
	for _, r := range victimInfo.Cycle {
		found[r] = true
	}
	if !found["T1"] || !found["T2"] {
		t.Fatalf("cycle must contain both roots: %v", victimInfo.Cycle)
	}
	t1.end()
}

// TestAcquireTracedVictimProvenance drives the full tt-recording path for a
// deadlock victim and asserts the trace's shape: a KLock span whose LAST
// edge is the victim-of explanation, stamped onto the aborted root.
func TestAcquireTracedVictimProvenance(t *testing.T) {
	lm := NewLockManager()
	tr := span.New()
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := t2.acquire(res("B"), X); err != nil {
		t.Fatal(err)
	}
	tt := tr.BeginTxn("T2", time.Now())
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t1.acquire(res("B"), X)
		if errs[0] != nil {
			t1.end()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		_, errs[1] = t2.acquireTraced(tt, t2.child(1), res("A"), X)
		if errs[1] != nil {
			t2.end()
		}
	}()
	wg.Wait()
	if !errors.Is(errs[1], ErrDeadlock) {
		t.Fatalf("T2 should be the victim: %v", errs)
	}
	tr.FinishTxn(tt, span.StatusAborted)
	t1.end()

	snap := tr.Lookup("T2").Snapshot()
	var lock *span.Span
	for i := range snap.Spans {
		if snap.Spans[i].Kind == span.KLock {
			lock = &snap.Spans[i]
		}
	}
	if lock == nil {
		t.Fatalf("no lock span recorded: %+v", snap.Spans)
	}
	if lock.Parent != "T2.1" || lock.Class != "X" || lock.Err == "" {
		t.Fatalf("lock span malformed: %+v", lock)
	}
	last := lock.Edges[len(lock.Edges)-1]
	if last.Kind != span.EdgeVictimOf || last.Peer != "T1" {
		t.Fatalf("terminal edge must be victim-of the peer: %+v", lock.Edges)
	}
	// Inherited-from edge: the semantic lock's holder differs from the
	// acquiring action.
	foundInherit := false
	for _, e := range lock.Edges {
		if e.Kind == span.EdgeInheritedFrom && e.Peer == "T2" {
			foundInherit = true
		}
	}
	if !foundInherit {
		t.Fatalf("owner != actionID must record an inherited-from edge: %+v", lock.Edges)
	}
	root := snap.Spans[0]
	if root.Kind != span.KTxn || len(root.Edges) != 1 || root.Edges[0].Kind != span.EdgeVictimOf {
		t.Fatalf("aborted root must carry the victim-of explanation: %+v", root)
	}
}

// TestAcquireTracedUncontendedRecordsNothing: an uncontended grant must
// leave no lock span — that absence is where Def. 11 cut the dependency.
func TestAcquireTracedUncontendedRecordsNothing(t *testing.T) {
	lm := NewLockManager()
	tr := span.New()
	tt := tr.BeginTxn("T1", time.Now())
	t1 := begin(lm, "T1")
	if _, err := t1.acquireTraced(tt, t1.child(1), res("A"), X); err != nil {
		t.Fatal(err)
	}
	tr.FinishTxn(tt, span.StatusCommitted)
	t1.end()
	snap := tr.Lookup("T1").Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("uncontended acquire must record no span: %+v", snap.Spans)
	}
}

// countingMode is an RW mode that counts how often it is rendered.
type countingMode struct {
	rw      RW
	renders *atomic.Int64
}

func (m countingMode) CompatibleWith(other Mode) bool {
	o, ok := other.(countingMode)
	return ok && m.rw.CompatibleWith(o.rw)
}

func (m countingMode) String() string {
	m.renders.Add(1)
	return m.rw.String()
}

func (m countingMode) Class() span.Class { return m.rw.Class() }

// shardCheckMode is an X mode that counts its renderings made while its
// resource's shard mutex is free.
type shardCheckMode struct {
	sh       *lockShard
	unlocked *atomic.Int64
}

func (m shardCheckMode) CompatibleWith(Mode) bool { return false }

func (m shardCheckMode) String() string {
	if m.sh.mu.TryLock() {
		m.sh.mu.Unlock()
		m.unlocked.Add(1)
	}
	return "X"
}

func (m shardCheckMode) Class() span.Class { return X.Class() }

// TestBlockersRenderedUnderShardMutex: a blocked acquire renders the modes
// of the holders that blocked it while it holds the shard mutex. A holder's
// mode may live in its transaction's action records, which are reused once
// that transaction has released its locks and ended; rendered after the
// unlock, the mode could already belong to another transaction.
func TestBlockersRenderedUnderShardMutex(t *testing.T) {
	lm := NewLockManager()
	var unlocked atomic.Int64
	holder := shardCheckMode{sh: lm.shardFor(res("A")), unlocked: &unlocked}
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(res("A"), holder); err != nil {
		t.Fatal(err)
	}
	done := make(chan AcquireInfo)
	go func() {
		info, err := t2.acquireEx(res("A"), X)
		if err != nil {
			t.Error(err)
		}
		done <- info
	}()
	for !lm.blockedOn(res("A")) {
		time.Sleep(time.Millisecond)
	}
	t1.end()
	info := <-done
	t2.end()
	if len(info.Blockers) != 1 || info.Blockers[0] != (BlockerRef{Owner: "T1", Mode: "X"}) {
		t.Fatalf("blockers = %+v, want T1/X", info.Blockers)
	}
	if n := unlocked.Load(); n != 0 {
		t.Fatalf("a blocker's mode was rendered %d times without the shard mutex", n)
	}
}

// TestAcquireTracedRendersModeOnlyWhenRecorded: a sampled acquire renders
// its mode only for the lock span it records — never on an uncontended
// grant — and a contended one still records the mode as the span's class.
func TestAcquireTracedRendersModeOnlyWhenRecorded(t *testing.T) {
	lm := NewLockManager()
	tr := span.New()
	var renders atomic.Int64
	x := countingMode{rw: X, renders: &renders}

	t1 := tr.BeginTxn("T1", time.Now())
	tx1 := begin(lm, "T1")
	if _, err := tx1.acquireTraced(t1, tx1.child(1), res("A"), x); err != nil {
		t.Fatal(err)
	}
	if n := renders.Load(); n != 0 {
		t.Fatalf("uncontended grant rendered its mode %d times, want 0", n)
	}

	t2 := tr.BeginTxn("T2", time.Now())
	tx2 := begin(lm, "T2")
	tx21 := tx2.child(1)
	done := make(chan error)
	go func() {
		_, err := tx21.acquireTraced(t2, tx21, res("A"), x)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	tx1.end()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tx21.handUp()
	tx2.end()
	tr.FinishTxn(t2, span.StatusCommitted)
	if renders.Load() == 0 {
		t.Fatal("contended acquire must render its mode")
	}
	var lock *span.Span
	for _, sp := range tr.Lookup("T2").Snapshot().Spans {
		if sp.Kind == span.KLock {
			lock = &sp
		}
	}
	if lock == nil || lock.Class != "X" || lock.Parent != "T2.1" {
		t.Fatalf("contended acquire must record a lock span of class X: %+v", lock)
	}
}
