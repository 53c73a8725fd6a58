// Package cc provides the lock-based concurrency-control runtime the
// transaction engine (internal/core) builds its protocols on:
//
//   - lock modes: classical shared/exclusive and semantic modes whose
//     compatibility is an object type's commutativity specification
//     (Definition 9) — two invocations may hold locks on the same object
//     simultaneously iff they commute;
//   - a blocking lock manager with owner hierarchies (an owner names a
//     node of a transaction's action tree, so the same-transaction test
//     compares a root id, and an id string is rendered only for a reader),
//     lock handles that the caller keeps and releases or hands to a parent,
//     waits-for deadlock detection with youngest-victim abort, and an
//     optional wait timeout as a backstop;
//   - counters for the paper's evaluation: acquisitions, blocked acquires
//     (the "rate of conflicting accesses"), deadlocks and wait time.
//
// The lock table is sharded (resources hash to independently-locked
// shards, each lockState has its own condition variable) so the manager's
// own synchronization does not throttle the concurrency that
// commutativity-based modes admit: a release wakes only the released
// resource's waiters, and disjoint resources never contend on one mutex.
// Deadlock detection spans shards through a dedicated detector component
// (detector.go) whose cycle search runs outside every shard lock.
package cc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/commut"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/txn"
)

// fpLockAcquire is the contention-path failpoint (internal/fault): armed
// with a delay it widens every conflict window (chaos runs use it to force
// deadlocks and overload); armed with an error it makes acquisitions fail,
// which the engine turns into subtree aborts.
var fpLockAcquire = fault.Point("lock.acquire")

// Sentinel errors returned by Acquire.
var (
	// ErrDeadlock is returned to the victim of a waits-for cycle.
	ErrDeadlock = errors.New("cc: deadlock victim")
	// ErrTimeout is returned when a lock wait exceeds the configured bound.
	ErrTimeout = errors.New("cc: lock wait timeout")
	// ErrDoomed is returned when the owner's transaction was already chosen
	// as a deadlock victim and must abort before acquiring anything else.
	ErrDoomed = errors.New("cc: transaction doomed by deadlock detection")
)

// Mode is a lock mode. Compatibility must be symmetric. Its Class is what a
// dispatch's trace keeps of it (span.Mode).
type Mode interface {
	CompatibleWith(other Mode) bool
	String() string
	span.Mode
}

// RW is the classical two-mode lattice.
type RW int

// The two classical modes.
const (
	S RW = iota // shared
	X           // exclusive
)

// CompatibleWith implements Mode: only S/S is compatible.
func (m RW) CompatibleWith(other Mode) bool {
	o, ok := other.(RW)
	if !ok {
		return false // mixing mode families is always a conflict
	}
	return m == S && o == S
}

func (m RW) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// Class implements span.Mode: a static renderer, so copying allocates
// nothing.
func (m RW) Class() span.Class {
	if m == S {
		return span.Class{Render: classS}
	}
	return span.Class{Render: classX}
}

func classS(string, []string) string { return S.String() }
func classX(string, []string) string { return X.String() }

// Semantic is a commutativity-based lock mode: holding &Semantic{inv} on an
// object means the owner has an uncommitted invocation inv outstanding;
// another invocation may run concurrently iff the object type's
// specification says the two commute. The mode is always passed by pointer
// (the engine keeps it in the acquiring action, so boxing it into a Mode
// costs nothing); a granted mode must not change while it is held. The
// engine reuses the action once its transaction has released every lock,
// so the manager reads another owner's mode only under the shard mutex,
// while its grant or wait is still in the table.
type Semantic struct {
	Inv  commut.Invocation
	Spec commut.Spec
}

// CompatibleWith implements Mode.
func (m *Semantic) CompatibleWith(other Mode) bool {
	o, ok := other.(*Semantic)
	if !ok {
		return false
	}
	return m.Spec.Commutes(m.Inv, o.Inv)
}

func (m *Semantic) String() string { return "sem:" + m.Inv.String() }

// Class implements span.Mode: the invocation's parameters by value, rendered
// like String with the method of the dispatch the class is recorded for —
// the engine's semantic mode is its dispatch's invocation.
func (m *Semantic) Class() span.Class {
	c := span.Class{Render: semanticClass}
	c.SetParams(m.Inv.Params)
	return c
}

func semanticClass(method string, params []string) string {
	return (&Semantic{Inv: commut.Invocation{Method: method, Params: params}}).String()
}

// Resource identifies a lockable resource: a database object.
type Resource = txn.OID

// Stats are the lock manager's counters; Snapshot reads them without
// touching any lock-table mutex (the counters are atomics).
type Stats struct {
	// Acquires counts Acquire calls that eventually succeeded.
	Acquires int64
	// Blocked counts Acquire calls that had to wait at least once — the
	// runtime measure of "conflicting accesses".
	Blocked int64
	// Deadlocks counts aborted victims.
	Deadlocks int64
	// Timeouts counts waits that exceeded the bound.
	Timeouts int64
	// WaitTime is the total time spent blocked.
	WaitTime time.Duration
}

// statCounters are the live atomic counters behind Stats.
type statCounters struct {
	acquires  atomic.Int64
	blocked   atomic.Int64
	deadlocks atomic.Int64
	timeouts  atomic.Int64
	waitNanos atomic.Int64
}

type grant struct {
	owner Owner
	mode  Mode
	count int // re-entrant acquisitions by the same owner+mode
}

// waiter is one blocked Acquire in FIFO position (fairness mode).
type waiter struct {
	owner Owner
	mode  Mode
	seq   uint64
}

// LockManager is a blocking lock manager. An owner (Owner) names a node of
// a top-level transaction's action tree, or is a top-level transaction's
// id string such as "T3"; the top-level transaction is the
// deadlock-detection granule. The manager keeps no index of what an owner
// holds: the caller lists the handles its acquires return, and every
// release and transfer walks such a list, so nothing scans the table.
type LockManager struct {
	shards    []*lockShard
	shardMask uint64

	det *detector

	// fair, when true, prevents barging: a request also waits behind
	// EARLIER incompatible waiters, so a stream of compatible requests
	// (e.g. readers) cannot starve a conflicting one (a writer).
	fair    bool
	waitSeq atomic.Uint64
	// waitTimeout bounds each blocked acquire; 0 means no bound.
	waitTimeout time.Duration
	nshards     int

	// testUnlockedWindow, when set (tests only, before any Acquire runs),
	// fires inside acquire's unlocked detector window — after edges are
	// charged and the cycle search ran, before the shard mutex is
	// re-acquired. It lets tests deterministically mutate the blocker set in
	// the window a production race would need to hit.
	testUnlockedWindow func()

	stats statCounters

	// Observability handles (WithObs). All nil when no registry is attached;
	// every method on them is nil-receiver safe, so the hot path carries no
	// "metrics enabled?" branches.
	obsWait    *obs.Histogram      // wait duration of each blocked acquire
	obsWaiting *obs.Gauge          // acquires currently blocked
	rec        *obs.FlightRecorder // block/grant/timeout/deadlock events
}

// Option configures a LockManager.
type Option func(*LockManager)

// WithWaitTimeout bounds every lock wait.
func WithWaitTimeout(d time.Duration) Option {
	return func(lm *LockManager) { lm.waitTimeout = d }
}

// WithFairness enables FIFO ordering of conflicting waiters: later
// requests do not barge past earlier incompatible ones, so continuous
// compatible traffic (readers, commuting operations) cannot starve a
// conflicting request.
func WithFairness() Option {
	return func(lm *LockManager) { lm.fair = true }
}

// WithShards fixes the lock-table shard count (rounded up to a power of
// two, clamped to [1, 256]). The default is the next power of two at or
// above GOMAXPROCS; 1 reproduces the single-mutex table.
func WithShards(n int) Option {
	return func(lm *LockManager) { lm.nshards = normalizeShardCount(n) }
}

// WithObs attaches an observability registry: the manager publishes its
// Stats under "lock", observes each blocked acquire's wait time in the
// "lock.wait_ns" histogram, tracks currently blocked acquires in the
// "lock.waiting" gauge, and records block/grant/timeout/deadlock events in
// the registry's flight recorder.
func WithObs(reg *obs.Registry) Option {
	return func(lm *LockManager) {
		lm.obsWait = reg.Histogram("lock.wait_ns", obs.LatencyBounds())
		lm.obsWaiting = reg.Gauge("lock.waiting")
		lm.rec = reg.Recorder()
		reg.PublishFunc("lock", func() any { return lm.Snapshot() })
	}
}

// NewLockManager returns a lock manager with the given options.
func NewLockManager(opts ...Option) *LockManager {
	lm := &LockManager{
		det:     newDetector(),
		nshards: defaultShardCount(),
	}
	for _, o := range opts {
		o(lm)
	}
	lm.shards = make([]*lockShard, lm.nshards)
	for i := range lm.shards {
		lm.shards[i] = &lockShard{locks: make(map[Resource]*lockState), maxIdle: idleBound(lm.nshards)}
	}
	lm.shardMask = uint64(lm.nshards - 1)
	return lm
}

// ShardCount returns the number of lock-table shards.
func (lm *LockManager) ShardCount() int { return len(lm.shards) }

// blockRef names one conflicting holder or (in fairness mode) earlier
// waiter.
type blockRef struct {
	owner Owner
	mode  Mode
}

// skippable reports whether a conflicting entry of other never blocks an
// owner of transaction root: one of the same top-level transaction — the
// owner itself, its ancestors (closed nesting's bypass), and its siblings,
// which are the application's own (intra-transaction) parallelism; the
// paper orders them by precedence (Definition 9: actions of the same
// process are never in conflict), not isolation.
func skippable(root string, other Owner) bool {
	return other.Root() == root
}

// blockers returns the entries incompatible with the request: conflicting
// granted locks, plus — in fairness mode — conflicting waiters queued
// before mySeq (use ^uint64(0) for a request not yet queued: everyone
// already waiting counts as earlier). Caller holds the shard mutex.
func (lm *LockManager) blockers(root string, st *lockState, mode Mode, mySeq uint64) []blockRef {
	var out []blockRef
	for _, g := range st.granted {
		if skippable(root, g.owner) {
			continue
		}
		if !mode.CompatibleWith(g.mode) {
			out = append(out, blockRef{owner: g.owner, mode: g.mode})
		}
	}
	if lm.fair {
		for _, w := range st.waiting {
			if w.seq >= mySeq || skippable(root, w.owner) {
				continue
			}
			if !mode.CompatibleWith(w.mode) {
				out = append(out, blockRef{owner: w.owner, mode: w.mode})
			}
		}
	}
	return out
}

// waitEdges derives the waits-for edge multiset (blocking root → count) a
// blocked acquire of root charges in the detector for a blocker set.
func waitEdges(root string, bl []blockRef) map[string]int {
	edges := make(map[string]int)
	for _, b := range bl {
		if br := b.owner.Root(); br != root {
			edges[br]++
		}
	}
	return edges
}

// sameEdges reports whether two edge multisets are equal.
func sameEdges(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for to, n := range a {
		if b[to] != n {
			return false
		}
	}
	return true
}

// Acquire blocks until the owner — a top-level transaction's id — holds
// res in the given mode, or returns ErrDeadlock / ErrDoomed / ErrTimeout.
// Re-acquisition by the same owner and mode is re-entrant.
func (lm *LockManager) Acquire(owner string, res Resource, mode Mode) error {
	_, _, err := lm.acquire(Owner{id: owner}, res, mode)
	return err
}

// Held is a granted lock: the lock state an acquire granted. The state
// carries the grant until it is released, so it is never on the idle
// list, and cannot be reused for another resource while its holder can
// still release it;
// ReleaseHeldOwner and TransferOwner go straight to it without hashing the
// resource.
type Held lockState

// acquire grants owner res in mode and returns the granted lock (nil on
// error) with its provenance: whether the call blocked, for how long,
// which holders it last observed blocking it, and — on a deadlock abort —
// the waits-for cycle that doomed it. This is what the span layer turns
// into blocked-on / victim-of / timeout edges.
func (lm *LockManager) acquire(owner Owner, res Resource, mode Mode) (h *Held, info AcquireInfo, err error) {
	if err := fpLockAcquire.Inject(); err != nil {
		return nil, AcquireInfo{}, err
	}
	root := owner.Root()
	if lm.det.isDoomed(root) {
		return nil, AcquireInfo{Cycle: lm.det.causeOf(root)}, ErrDoomed
	}
	sh := lm.shardFor(res)
	sh.mu.Lock()
	st := sh.state(res)
	if len(st.granted) == 0 && len(st.waiting) == 0 {
		// Uncontended: nothing to conflict with or queue behind, and the
		// state carries a grant on return, so there is nothing to park.
		grantLocked(st, owner, mode)
		sh.mu.Unlock()
		lm.stats.acquires.Add(1)
		return (*Held)(st), info, nil
	}

	var (
		blocked   bool
		start     time.Time
		tmo       *waitTimeout // armed once blocked, when a wait bound is set
		token     *waiter      // our FIFO position once blocked (fairness mode)
		wake      *wakeHandle
		waitingOn map[string]int // roots this call currently charges in the detector
		// lastBlockers are the blockers observed on the most recent loop
		// pass, rendered while the shard mutex is held: a blocker's mode may
		// live in its transaction's action records, which are reused once
		// that transaction releases its locks and ends.
		lastBlockers []BlockerRef
	)

	defer func() {
		// Every return path below holds sh.mu, and st is res's current state.
		if token != nil {
			st.removeWaiter(token)
			st.cond.Broadcast() // later waiters may now be first in line
		}
		sh.parkState(st)
		sh.mu.Unlock()
		if tmo != nil {
			tmo.timer.Stop()
		}
		if wake != nil {
			lm.det.unregister(root, wake)
		}
		lm.det.discharge(root, waitingOn)
		if blocked {
			wait := time.Since(start)
			lm.stats.waitNanos.Add(int64(wait))
			lm.obsWait.ObserveDuration(wait)
			lm.obsWaiting.Add(-1)
			info.Blocked = true
			info.Wait = wait
		}
		info.Blockers = lastBlockers
		info.TimedOut = errors.Is(err, ErrTimeout)
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrDoomed) {
			info.Cycle = lm.det.causeOf(root)
		}
	}()

	for {
		if lm.det.isDoomed(root) {
			// No deadlock count here: the victim was counted once when it was
			// doomed (detect reports fresh). A victim with several blocked
			// sibling acquires observes its doom once per acquire, but it is
			// still ONE aborted victim.
			return nil, info, ErrDeadlock
		}
		if tmo.expired() {
			lm.stats.timeouts.Add(1)
			lm.rec.Record(obs.Event{Kind: obs.EvLockTimeout, Actor: owner.String(),
				Object: res.Name, Dur: time.Since(start)})
			// Name the blockers from the last observed set, not the
			// re-fetched state: the idle state may have been reused for
			// another resource while the shard lock was dropped, and a
			// fresh grant set would misreport who caused the wait.
			held := make([]string, 0, len(lastBlockers))
			for _, b := range lastBlockers {
				held = append(held, b.Owner+"/"+b.Mode)
			}
			return nil, info, fmt.Errorf("%w: %s wants %s on %s blocked by %s",
				ErrTimeout, owner, mode, res.Name, strings.Join(held, ", "))
		}
		mySeq := ^uint64(0)
		if token != nil {
			mySeq = token.seq
		}
		bl := lm.blockers(root, st, mode, mySeq)
		if len(bl) == 0 {
			grantLocked(st, owner, mode)
			lm.stats.acquires.Add(1)
			if blocked {
				lm.rec.Record(obs.Event{Kind: obs.EvLockGrant, Actor: owner.String(),
					Object: res.Name, Dur: time.Since(start)})
			}
			return (*Held)(st), info, nil
		}
		lastBlockers = blockerRefs(bl)
		if !blocked {
			blocked = true
			start = time.Now()
			lm.stats.blocked.Add(1)
			lm.obsWaiting.Add(1)
			lm.rec.Record(obs.Event{Kind: obs.EvLockBlock, Actor: owner.String(),
				Object: res.Name, N: int64(len(bl)), Note: blockNote(mode, bl)})
			if lm.fair {
				token = &waiter{owner: owner, mode: mode, seq: lm.waitSeq.Add(1)}
				st.waiting = append(st.waiting, token)
			}
			// The detector wakes us (to fail with ErrDeadlock) if we are
			// chosen as victim; broadcast through the current map entry in
			// case the state was re-keyed and replaced meanwhile.
			wake = lm.det.register(root, func() {
				sh.mu.Lock()
				if cur, ok := sh.locks[res]; ok {
					cur.cond.Broadcast()
				}
				sh.mu.Unlock()
			})
			if lm.waitTimeout > 0 {
				t := &waitTimeout{}
				t.timer = time.AfterFunc(lm.waitTimeout, func() {
					sh.mu.Lock()
					t.fired = true
					if cur, ok := sh.locks[res]; ok {
						cur.cond.Broadcast()
					}
					sh.mu.Unlock()
				})
				tmo = t
			}
		}

		// Charge this round's waits-for edges and run the cycle search with
		// the shard lock dropped — the detector has its own lock, and a
		// doomed victim on another shard is woken via its registered wake
		// callback, which needs that shard's mutex.
		sh.mu.Unlock()
		edges := waitEdges(root, bl)
		lm.det.recharge(root, waitingOn, edges)
		waitingOn = edges
		victim, freshVictim := lm.det.detect(root)
		if freshVictim {
			// Count the VICTIM, exactly once per victimization: detect reports
			// fresh only for the call that doomed it. Counting at the acquires
			// that observe the doom instead would tally one deadlock per
			// blocked call of the victim.
			lm.stats.deadlocks.Add(1)
			lm.rec.Record(obs.Event{Kind: obs.EvLockDeadlock, Actor: victim,
				Object: res.Name, Note: "youngest on waits-for cycle through " + root})
		}
		if fn := lm.testUnlockedWindow; fn != nil {
			fn()
		}
		sh.mu.Lock()
		st = sh.state(res) // the idle state may have been re-keyed while unlocked
		if victim == root {
			return nil, info, ErrDeadlock
		}
		if lm.det.isDoomed(root) || tmo.expired() {
			continue
		}
		mySeq = ^uint64(0)
		if token != nil {
			mySeq = token.seq
		}
		bl = lm.blockers(root, st, mode, mySeq)
		if len(bl) == 0 {
			continue // unblocked while the detector ran; grant at loop top
		}
		lastBlockers = blockerRefs(bl)
		if !sameEdges(waitEdges(root, bl), waitingOn) {
			// The blocker set changed during the unlocked window: a charged
			// holder released (its broadcast was lost — we were not yet
			// sleeping) and another transaction barged in. Sleeping now would
			// leave the detector charged with stale waits-for edges, hiding
			// any cycle that forms through the new blockers; go back to the
			// loop top to recharge and re-run detection instead.
			continue
		}
		st.sleepers++
		st.cond.Wait()
		st.sleepers--
	}
}

// waitTimeout is a blocked acquire's wait bound. It lives on the heap only
// once an acquire blocks, so the uncontended path allocates nothing for it.
type waitTimeout struct {
	timer *time.Timer
	fired bool // guarded by the shard mutex
}

// expired reports whether the bound fired; nil (no bound armed) never
// expires. Caller holds the shard mutex.
func (t *waitTimeout) expired() bool { return t != nil && t.fired }

// blockNote renders a flight-recorder note for a freshly blocked acquire:
// the requested mode plus up to three blocking holders.
func blockNote(mode Mode, bl []blockRef) string {
	var b strings.Builder
	b.WriteString(mode.String())
	b.WriteString(" <-")
	for i, r := range bl {
		if i == 3 {
			b.WriteString(" ...")
			break
		}
		b.WriteByte(' ')
		b.WriteString(r.owner.String())
		b.WriteByte('/')
		b.WriteString(r.mode.String())
	}
	return b.String()
}

// grantLocked records the grant. Caller holds the shard mutex.
func grantLocked(st *lockState, owner Owner, mode Mode) {
	for i := range st.granted {
		if st.granted[i].owner == owner && sameMode(st.granted[i].mode, mode) {
			st.granted[i].count++
			return
		}
	}
	st.granted = append(st.granted, grant{owner: owner, mode: mode, count: 1})
}

// sameMode reports whether two modes are the same grant, without
// rendering them: RW by value, Semantic by method and parameters.
func sameMode(a, b Mode) bool {
	switch x := a.(type) {
	case RW:
		y, ok := b.(RW)
		return ok && x == y
	case *Semantic:
		y, ok := b.(*Semantic)
		return ok && x.Inv.Method == y.Inv.Method && slices.Equal(x.Inv.Params, y.Inv.Params)
	}
	return a.String() == b.String()
}

// SetAge overrides the age of a transaction: a restarted transaction that
// keeps its original (older) age stops being the default deadlock victim,
// preventing restart starvation. Cleared by Forget.
func (lm *LockManager) SetAge(root string, age int64) { lm.det.setAge(root, age) }

// txnSeq extracts the trailing integer of a transaction id, or -1.
func txnSeq(root string) int {
	i := len(root)
	for i > 0 && root[i-1] >= '0' && root[i-1] <= '9' {
		i--
	}
	if i == len(root) {
		return -1
	}
	n := 0
	for _, c := range root[i:] {
		n = n*10 + int(c-'0')
	}
	return n
}

// Release drops every mode the owner — a top-level transaction's id —
// holds on res and, if it held any, wakes that resource's waiters. It
// touches one shard; releasing a resource the owner does not hold is a
// no-op.
func (lm *LockManager) Release(owner string, res Resource) {
	sh := lm.shardFor(res)
	sh.mu.Lock()
	if st, ok := sh.locks[res]; ok {
		sh.releaseLocked(st, Owner{id: owner})
	}
	sh.mu.Unlock()
}

// ReleaseHeldOwner is Release for a lock in hand: it drops every mode the
// owner holds on h's state, locking only h's shard and hashing nothing.
// The engine lists each grant's handle on the action that owns it and
// releases a list — a completed action's early, an aborted subtree's, a
// finished transaction's root's — by calling this per handle. Releasing a
// handle again is a no-op, even if its state was reused for another
// resource meanwhile, as long as the owner acquired nothing since (see
// DESIGN §4b.4); an owner of an ended transaction is never equal to a
// later one, even on the same reused node.
func (lm *LockManager) ReleaseHeldOwner(h *Held, owner Owner) {
	st := (*lockState)(h)
	st.sh.mu.Lock()
	st.sh.releaseLocked(st, owner)
	st.sh.mu.Unlock()
}

// removeOwnerLocked drops owner's grants and reports whether any were
// removed. Caller holds the shard mutex.
func removeOwnerLocked(st *lockState, owner Owner) bool {
	kept := st.granted[:0]
	for _, g := range st.granted {
		if g.owner != owner {
			kept = append(kept, g)
		}
	}
	changed := len(kept) != len(st.granted)
	// Zero the dropped tail: a stale grant would keep its mode — and the
	// action a *Semantic points into — reachable.
	clear(st.granted[len(kept):])
	st.granted = kept
	return changed
}

// TransferOwner reassigns child's grants on the held states to parent
// (closed nested commit: the parent inherits the child's locks, and the
// caller appends held to the parent's list). A handle that carries no
// grant of child is left alone.
func (lm *LockManager) TransferOwner(held []*Held, child, parent Owner) {
	for _, h := range held {
		st := (*lockState)(h)
		st.sh.mu.Lock()
		changed := false
		for i := range st.granted {
			if st.granted[i].owner == child {
				st.granted[i].owner = parent
				changed = true
			}
		}
		if changed {
			// An ancestor-bypass waiter may be unblocked by the move.
			st.cond.Broadcast()
		}
		st.sh.mu.Unlock()
	}
}

// Forget drops a finished transaction's detector state: its doomed flag,
// the cycle that doomed it and its age override. The engine calls it once
// the root's list is released.
func (lm *LockManager) Forget(root string) { lm.det.forget(root) }

// ClearDoomed removes a root's deadlock-victim mark and gives it the
// highest priority (age 0). A victim that has started rolling back calls
// this so its compensating operations can acquire locks — an aborting
// transaction must be able to undo itself, and must not be chosen as a
// victim again while doing so.
func (lm *LockManager) ClearDoomed(root string) { lm.det.clearDoomed(root) }

// Doomed reports whether the root was chosen as a deadlock victim.
func (lm *LockManager) Doomed(root string) bool { return lm.det.isDoomed(root) }

// Snapshot returns a copy of the counters. It reads atomics only — no
// lock-table mutex is taken, so monitoring never contends with acquires.
func (lm *LockManager) Snapshot() Stats {
	return Stats{
		Acquires:  lm.stats.acquires.Load(),
		Blocked:   lm.stats.blocked.Load(),
		Deadlocks: lm.stats.deadlocks.Load(),
		Timeouts:  lm.stats.timeouts.Load(),
		WaitTime:  time.Duration(lm.stats.waitNanos.Load()),
	}
}

// String renders the lock table for debugging.
func (lm *LockManager) String() string {
	var b strings.Builder
	for _, sh := range lm.shards {
		sh.mu.Lock()
		for res, st := range sh.locks {
			if len(st.granted) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s:", res.Name)
			for _, g := range st.granted {
				fmt.Fprintf(&b, " %s/%s", g.owner, g.mode)
			}
			b.WriteByte('\n')
		}
		sh.mu.Unlock()
	}
	return b.String()
}
