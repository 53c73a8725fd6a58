package cc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commut"
	"repro/internal/txn"
)

func TestNormalizeShardCount(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 300: 256}
	for in, want := range cases {
		if got := normalizeShardCount(in); got != want {
			t.Errorf("normalizeShardCount(%d) = %d, want %d", in, got, want)
		}
	}
	if n := NewLockManager(WithShards(5)).ShardCount(); n != 8 {
		t.Fatalf("WithShards(5) → %d shards, want 8", n)
	}
	if n := NewLockManager(WithShards(1)).ShardCount(); n != 1 {
		t.Fatalf("WithShards(1) → %d shards, want 1", n)
	}
}

func TestShardDistribution(t *testing.T) {
	lm := NewLockManager(WithShards(16))
	seen := map[*lockShard]bool{}
	for i := 0; i < 256; i++ {
		seen[lm.shardFor(res(fmt.Sprintf("P%d", i)))] = true
	}
	// The hash must actually spread resources; an all-in-one-shard hash
	// would silently reintroduce the global mutex.
	if len(seen) < 8 {
		t.Fatalf("256 resources landed on only %d of 16 shards", len(seen))
	}
}

// TestReleaseWakesOnlyThatResource: waking is per lockState — releasing A
// grants A's waiter while B's keeps waiting.
func TestReleaseWakesOnlyThatResource(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire("T1", res("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire("T1", res("B"), X); err != nil {
		t.Fatal(err)
	}
	onA := make(chan error, 1)
	onB := make(chan error, 1)
	go func() { onA <- lm.Acquire("T2", res("A"), X) }()
	go func() { onB <- lm.Acquire("T3", res("B"), X) }()
	for i := 0; lm.Snapshot().Blocked != 2; i++ {
		if i > 1000 {
			t.Fatal("waiters never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	lm.Release("T1", res("A"))
	select {
	case err := <-onA:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A's waiter not woken by A's release")
	}
	select {
	case err := <-onB:
		t.Fatalf("B's waiter woke without a release: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lm.Release("T1", res("B"))
	if err := <-onB; err != nil {
		t.Fatal(err)
	}
	lm.Release("T2", res("A"))
	lm.Release("T3", res("B"))
}

// TestFairnessTimeoutRewakesLaterWaiters is the fairness × timeout
// interaction: a FIFO waiter that times out must remove its queue token
// and re-wake later waiters that were queued behind it — otherwise they
// sleep on a phantom conflict until their own timeout.
func TestFairnessTimeoutRewakesLaterWaiters(t *testing.T) {
	// The timeout clock starts when an acquire blocks, and it is
	// per-manager, so the margin T3 has to be granted after T2's timeout is
	// however much LATER T3 blocked. Park T3 a good chunk of the timeout
	// after T2 so slow schedulers (-race on a loaded box) cannot eat it.
	const timeout = time.Second
	lm := NewLockManager(WithFairness(), WithWaitTimeout(timeout))
	if err := lm.Acquire("T1", res("P"), S); err != nil {
		t.Fatal(err)
	}
	// T2 wants X: conflicts with T1's held S, so it queues and will time
	// out (T1 never releases during the test).
	writer := make(chan error, 1)
	go func() { writer <- lm.Acquire("T2", res("P"), X) }()
	for i := 0; lm.waiterCount(res("P")) != 1; i++ {
		if i > 1000 {
			t.Fatal("writer never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(timeout / 3) // T3's margin after T2's timeout
	// T3 wants S: compatible with T1's grant but queued behind T2's
	// earlier incompatible token, so it must wait (no barging)...
	reader := make(chan error, 1)
	go func() { reader <- lm.Acquire("T3", res("P"), S) }()
	for i := 0; lm.Snapshot().Blocked != 2; i++ {
		if i > 1000 {
			t.Fatal("reader never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-reader:
		t.Fatalf("reader barged past the queued writer: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...until T2 times out. Its token removal must wake T3, which is now
	// first in line and compatible — T3 must be GRANTED, not time out.
	if err := <-writer; !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer: err = %v, want ErrTimeout", err)
	}
	select {
	case err := <-reader:
		if err != nil {
			t.Fatalf("reader after writer's timeout: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not re-woken by the timed-out writer's token removal")
	}
	if n := lm.waiterCount(res("P")); n != 0 {
		t.Fatalf("stale queue tokens: %d", n)
	}
	if got := lm.Snapshot().Timeouts; got != 1 {
		t.Fatalf("Timeouts = %d, want 1 (only the writer)", got)
	}
	lm.Release("T1", res("P"))
	lm.Release("T3", res("P"))
}

// TestCrossShardDeadlockDetected: the waits-for cycle spans resources on
// different shards; the detector must still find it and abort the
// youngest.
func TestCrossShardDeadlockDetected(t *testing.T) {
	lm := NewLockManager(WithShards(16))
	// Find two resources living on different shards.
	a := res("A")
	b := res("B")
	for i := 0; lm.shardFor(a) == lm.shardFor(b); i++ {
		if i > 1000 {
			t.Fatal("no cross-shard resource pair found")
		}
		b = res(fmt.Sprintf("B%d", i))
	}
	t1, t2 := begin(lm, "T1"), begin(lm, "T2")
	if err := t1.acquire(a, X); err != nil {
		t.Fatal(err)
	}
	if err := t2.acquire(b, X); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = t1.acquire(b, X)
		if errs[0] != nil {
			t1.end()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		errs[1] = t2.acquire(a, X)
		if errs[1] != nil {
			t2.end()
		}
	}()
	wg.Wait()
	if !errors.Is(errs[1], ErrDeadlock) {
		t.Fatalf("youngest (T2) should be the cross-shard victim: %v", errs)
	}
	if errs[0] != nil {
		t.Fatalf("survivor T1 should acquire after victim abort: %v", errs[0])
	}
	t1.end()
	if lm.Snapshot().Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d", lm.Snapshot().Deadlocks)
	}
}

// diffOp is one step of the differential schedule.
type diffOp struct {
	kind  int // 0 acquire, 1 release by resource, 2 end the transaction, 3 hand up to the parent
	owner string
	res   Resource
	mode  Mode
}

// diffTxns are the differential schedule's owners on one manager: actions
// of transactions T1–T4, made on first use.
type diffTxns struct {
	lm   *LockManager
	acts map[string]*act
}

// get returns the action with the dotted id, making it and its ancestors
// as needed.
func (d *diffTxns) get(id string) *act {
	if a, ok := d.acts[id]; ok {
		return a
	}
	var a *act
	if i := strings.LastIndexByte(id, '.'); i < 0 {
		a = begin(d.lm, id)
	} else {
		n, _ := strconv.Atoi(id[i+1:])
		a = d.get(id[:i]).child(int32(n))
	}
	d.acts[id] = a
	return a
}

// end ends root's transaction: every action of its tree releases its list,
// in id order, and the root's detector state is dropped.
func (d *diffTxns) end(root string) {
	var ids []string
	for id := range d.acts {
		if rootOf(id) == root {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		d.acts[id].release()
	}
	d.lm.Forget(root)
}

// randomSchedule draws a deterministic op sequence. S-heavy so serial
// conflicts (which cost one timeout each) stay rare but present.
func randomSchedule(seed int64, n int) []diffOp {
	rr := rand.New(rand.NewSource(seed))
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	owners := []string{"T1", "T1.1", "T2", "T2.3", "T3", "T4.1.2"}
	resources := make([]Resource, 8)
	for i := range resources {
		resources[i] = res(fmt.Sprintf("R%d", i))
	}
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{
			owner: owners[rr.Intn(len(owners))],
			res:   resources[rr.Intn(len(resources))],
		}
		switch k := rr.Intn(10); {
		case k < 6:
			op.kind = 0
			switch rr.Intn(4) {
			case 0:
				op.mode = X
			case 1, 2:
				op.mode = S
			case 3:
				op.mode = &Semantic{
					Inv:  commut.Invocation{Method: "insert", Params: []string{fmt.Sprintf("k%d", rr.Intn(4))}},
					Spec: spec,
				}
			}
		case k < 8:
			op.kind = 1
		case k < 9:
			op.kind = 2
		default:
			op.kind = 3
		}
		ops[i] = op
	}
	return ops
}

// applyOp runs one op and classifies the outcome (nil error vs timeout).
func applyOp(d *diffTxns, op diffOp) string {
	switch op.kind {
	case 0:
		err := d.get(op.owner).acquire(op.res, op.mode)
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrTimeout):
			return "timeout"
		default:
			return "err:" + err.Error()
		}
	case 1:
		d.get(op.owner).releaseRes(op.res)
	case 2:
		d.end(rootOf(op.owner))
	case 3:
		if a := d.get(op.owner); a.parent != nil {
			a.handUp()
		}
	}
	return "ok"
}

// TestDifferentialShardedVsSingleMutex replays identical randomized serial
// schedules of node owners — acquires listed on their actions, releases
// by resource, hand-ups and transaction ends that walk those lists —
// against a 1-shard manager (the seed's single-mutex behaviour) and a
// 16-shard manager, comparing every outcome and the visible lock table
// after each step. Serial execution makes blocking deterministic: a
// conflicting acquire times out in both or neither. Each schedule also
// runs with an idle bound of 1 per shard, so idle states are re-keyed and
// evicted under random schedules.
func TestDifferentialShardedVsSingleMutex(t *testing.T) {
	for _, fair := range []bool{false, true} {
		for n := 0; n < 8; n++ {
			seed, idle1 := int64(n%4+1), n >= 4
			name := fmt.Sprintf("fair=%v/seed=%d/idle1=%v", fair, seed, idle1)
			ops := randomSchedule(seed, 150)
			mk := func(shards int) *LockManager {
				o := []Option{WithShards(shards), WithWaitTimeout(10 * time.Millisecond)}
				if fair {
					o = append(o, WithFairness())
				}
				lm := NewLockManager(o...)
				if idle1 {
					setIdleBound(lm, 1)
				}
				return lm
			}
			single, sharded := mk(1), mk(16)
			txns1 := &diffTxns{lm: single, acts: map[string]*act{}}
			txnsN := &diffTxns{lm: sharded, acts: map[string]*act{}}
			for i, op := range ops {
				got1 := applyOp(txns1, op)
				gotN := applyOp(txnsN, op)
				if got1 != gotN {
					t.Fatalf("%s op %d (%+v): single=%s sharded=%s", name, i, op, got1, gotN)
				}
				for j := 0; j < 8; j++ {
					r := res(fmt.Sprintf("R%d", j))
					h1 := fmt.Sprint(single.Holders(r))
					hN := fmt.Sprint(sharded.Holders(r))
					if h1 != hN {
						t.Fatalf("%s op %d: holders of R%d diverge: single=%s sharded=%s", name, i, j, h1, hN)
					}
				}
			}
			s1, sN := single.Snapshot(), sharded.Snapshot()
			if s1.Acquires != sN.Acquires || s1.Timeouts != sN.Timeouts {
				t.Fatalf("%s: stats diverge: single=%+v sharded=%+v", name, s1, sN)
			}
		}
	}
}

// TestShardedMutualExclusionManyObjects: concurrent X traffic over many
// more resources than shards never double-grants, and the table drains
// clean. (Run under -race via the check target.)
func TestShardedMutualExclusionManyObjects(t *testing.T) {
	lm := NewLockManager(WithShards(8), WithWaitTimeout(2*time.Second))
	const goroutines, objects, rounds = 8, 64, 60
	var mu sync.Mutex
	holding := map[Resource]string{}
	violations := 0

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(id) * 977))
			owner := fmt.Sprintf("T%d", id+1)
			for i := 0; i < rounds; i++ {
				re := res(fmt.Sprintf("O%d", rr.Intn(objects)))
				if err := lm.Acquire(owner, re, X); err != nil {
					lm.Forget(owner) // it holds nothing: each grant is released below
					continue
				}
				mu.Lock()
				if h, ok := holding[re]; ok && h != owner {
					violations++
				}
				holding[re] = owner
				mu.Unlock()

				mu.Lock()
				delete(holding, re)
				mu.Unlock()
				lm.Release(owner, re)
			}
			lm.Forget(owner)
		}(g)
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	for i := 0; i < objects; i++ {
		if h := lm.Holders(res(fmt.Sprintf("O%d", i))); len(h) != 0 {
			t.Fatalf("O%d still held by %v", i, h)
		}
	}
}

// TestSemanticCommutingScalesWithoutBlocking: commuting semantic locks on
// shared objects never block regardless of shard placement — the workload
// the sharded table is built for.
func TestSemanticCommutingScalesWithoutBlocking(t *testing.T) {
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	lm := NewLockManager()
	leaf := txn.OID{Type: "btreenode", Name: "Leaf"}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := begin(lm, fmt.Sprintf("T%d", id+1))
			for i := 0; i < 50; i++ {
				m := &Semantic{
					Inv:  commut.Invocation{Method: "insert", Params: []string{fmt.Sprintf("g%d-k%d", id, i)}},
					Spec: spec,
				}
				if err := tx.acquire(leaf, m); err != nil {
					errs[id] = err
					return
				}
			}
			tx.end()
		}(g)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if lm.Snapshot().Blocked != 0 {
		t.Fatalf("commuting inserts blocked %d times", lm.Snapshot().Blocked)
	}
}

// TestDeadlockAcrossUnlockedWindow: while a blocked acquire runs the
// detector with its shard lock dropped, the holder it charged an edge
// against can release (the broadcast is lost — the waiter is not yet
// sleeping) and a new holder can barge in. The waiter must notice the
// swapped blocker and recharge before sleeping; otherwise the cycle that
// then forms through the new holder is invisible to the detector — the
// waiter is charged against the departed holder — and with no wait timeout
// both transactions hang forever.
func TestDeadlockAcrossUnlockedWindow(t *testing.T) {
	lm := NewLockManager()
	a, b := res("A"), res("B")
	tx1, tx2, tx3 := begin(lm, "T1"), begin(lm, "T2"), begin(lm, "T3")
	if err := tx1.acquire(a, X); err != nil {
		t.Fatal(err)
	}
	if err := tx2.acquire(b, X); err != nil {
		t.Fatal(err)
	}
	swapped := make(chan struct{})
	var once sync.Once
	lm.testUnlockedWindow = func() {
		once.Do(func() {
			// T2 has charged T2→T1 and found no cycle; before it re-checks
			// its blockers, swap A's holder from T1 to T3.
			tx1.releaseRes(a)
			if err := tx3.acquire(a, X); err != nil {
				t.Error(err)
			}
			close(swapped)
		})
	}
	t2 := make(chan error, 1)
	go func() { t2 <- tx2.acquire(a, X) }()
	<-swapped
	t3 := make(chan error, 1)
	go func() { t3 <- tx3.acquire(b, X) }() // closes the cycle T3→T2→T3
	select {
	case err := <-t3:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("T3: err = %v, want ErrDeadlock", err)
		}
	case err := <-t2:
		t.Fatalf("T2 returned %v before the cycle resolved", err)
	case <-time.After(5 * time.Second):
		t.Fatal("missed deadlock: the stale waits-for edge hid the cycle")
	}
	tx3.end()
	select {
	case err := <-t2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T2 never woke after the victim released")
	}
	tx2.end()
}

// TestDetectSkipsDoomedNodes: a doomed victim's waits-for edges stay
// charged until it wakes and discharges them; a cycle that exists only
// through those residual edges is already broken by the victim's abort and
// must not doom a second victim.
func TestDetectSkipsDoomedNodes(t *testing.T) {
	d := newDetector()
	d.recharge("T1", nil, map[string]int{"T2": 1})
	d.recharge("T2", nil, map[string]int{"T1": 1})
	d.forceDoom("T2")
	if v, _ := d.detect("T1"); v != "" {
		t.Fatalf("detect through a doomed node chose victim %q, want none", v)
	}
	// Once the doomed victim has discharged and recovered, the same shape
	// is a real cycle again.
	d.forget("T2")
	if v, fresh := d.detect("T1"); v != "T2" || !fresh {
		t.Fatalf("victim, fresh = %q, %v, want T2, true", v, fresh)
	}
}

// TestSameEdges pins the multiset comparison the sleep re-check relies on.
func TestSameEdges(t *testing.T) {
	cases := []struct {
		a, b map[string]int
		want bool
	}{
		{nil, nil, true},
		{map[string]int{}, nil, true},
		{map[string]int{"T1": 1}, map[string]int{"T1": 1}, true},
		{map[string]int{"T1": 1}, map[string]int{"T1": 2}, false},
		{map[string]int{"T1": 1}, map[string]int{"T2": 1}, false},
		{map[string]int{"T1": 1, "T2": 1}, map[string]int{"T1": 1}, false},
	}
	for i, c := range cases {
		if got := sameEdges(c.a, c.b); got != c.want {
			t.Errorf("case %d: sameEdges(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := sameEdges(c.b, c.a); got != c.want {
			t.Errorf("case %d (flipped): got %v, want %v", i, got, c.want)
		}
	}
}
