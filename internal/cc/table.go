package cc

import (
	"runtime"
	"sync"
)

// The lock table is partitioned into power-of-two shards so unrelated
// resources never contend on one mutex. Each resource hashes to one shard;
// every lockState carries its own condition variable (on the shard mutex),
// so releasing a resource wakes only that resource's waiters instead of
// every blocked transaction in the system. An idle state stays in its
// shard's map under its resource, on the shard's LRU list of idle states,
// so acquiring that resource again touches no map; a miss re-keys the
// least recently idle state. A state pointer is therefore only valid for
// its resource while sh.mu is held or while it carries a grant: a waiter
// that drops the mutex must re-fetch it with state(), and a granted lock's
// state (its Held handle) is never on the list, so it stays put until the
// grant is released.
type lockShard struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	// oldest and newest are the ends of the idle list, threaded through
	// lockState.prev/next: every state in locks with no grant, no waiter
	// and no sleeper, least recently idle first. nidle counts them and
	// maxIdle bounds the count.
	oldest, newest *lockState
	nidle, maxIdle int
}

// idleStates bounds the idle states one table keeps, split evenly over its
// shards (at least minIdleStates each). A miss takes an idle state before
// it makes one, so a shard keeps as many idle states as it once had busy
// at the same time, up to its bound. A state (176 B), its one-grant array
// (48 B) and its map entry come to about 270 B, so a full table retains
// about 2.2 MB, plus its keys' strings, which the engine interns and the
// server's sessions clone.
const (
	idleStates    = 8192
	minIdleStates = 64
)

// idleBound is the per-shard bound on idle states for a table of n shards.
func idleBound(n int) int { return max(minIdleStates, idleStates/n) }

type lockState struct {
	// sh is the shard the state belongs to, set once when it is created,
	// so a release can lock it straight from a state in hand. res is the
	// resource it serves, set by state() and zeroed when the state is
	// evicted (a dropped state pins no name strings); guarded by sh.mu.
	sh  *lockShard
	res Resource

	granted []grant
	// waiting holds blocked requests in arrival order; only consulted when
	// fairness is enabled.
	waiting []*waiter
	// cond wakes this resource's blocked acquires; its Locker is the
	// owning shard's mutex. Embedded by value: a reused state keeps it.
	cond sync.Cond
	// sleepers counts goroutines parked on cond. A state with grants,
	// queued waiters or sleepers is busy: it never goes on the idle list.
	sleepers int

	// prev and next link the state into its shard's idle list while idle
	// is set; guarded by sh.mu.
	prev, next *lockState
	idle       bool
}

// state returns the lockState for res, taking it off the idle list, or,
// if res has none, re-keying the least recently idle state; it makes a
// new state only when the shard has no idle one. The returned state is
// not on the idle list. Caller holds sh.mu.
func (sh *lockShard) state(res Resource) *lockState {
	st, ok := sh.locks[res]
	if ok {
		if st.idle {
			sh.unlinkIdle(st)
		}
		return st
	}
	if st = sh.oldest; st != nil {
		sh.unlinkIdle(st)
		delete(sh.locks, st.res)
	} else {
		st = &lockState{sh: sh}
		st.cond.L = &sh.mu
	}
	st.res = res
	sh.locks[res] = st
	return st
}

// parkState puts st on the idle list when it is completely idle, keeping
// it in the table under its resource for the next acquire. At the bound,
// the least recently idle state leaves the table for the garbage collector
// first. st must be the table's current state for st.res and not on the
// list (state() took it off). Caller holds sh.mu.
func (sh *lockShard) parkState(st *lockState) {
	if len(st.granted) != 0 || len(st.waiting) != 0 || st.sleepers != 0 {
		return
	}
	if sh.nidle >= sh.maxIdle {
		old := sh.oldest
		sh.unlinkIdle(old)
		delete(sh.locks, old.res)
		old.res = Resource{}
	}
	// Both arrays are empty and already zeroed past len (the removal paths
	// clear what they drop), so an idle state retains no mode — and no
	// action tree a mode points into.
	st.prev, st.idle = sh.newest, true
	if sh.newest != nil {
		sh.newest.next = st
	} else {
		sh.oldest = st
	}
	sh.newest = st
	sh.nidle++
}

// unlinkIdle takes st off the idle list. Caller holds sh.mu.
func (sh *lockShard) unlinkIdle(st *lockState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		sh.oldest = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		sh.newest = st.prev
	}
	st.prev, st.next, st.idle = nil, nil, false
	sh.nidle--
}

// releaseLocked drops every mode owner holds on st and, if it held any,
// wakes st's waiters and parks st if it went idle. A state that carries no
// grant of owner — because it was released already, or reused for another
// resource since — is left alone. Caller holds sh.mu.
func (sh *lockShard) releaseLocked(st *lockState, owner Owner) {
	if removeOwnerLocked(st, owner) {
		st.cond.Broadcast()
		sh.parkState(st)
	}
}

// defaultShardCount sizes the table to the machine: the next power of two
// at or above GOMAXPROCS, clamped to [1, 256].
func defaultShardCount() int {
	return normalizeShardCount(runtime.GOMAXPROCS(0))
}

// normalizeShardCount rounds n up to a power of two within [1, 256].
func normalizeShardCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardFor hashes a resource to its shard (FNV-1a over type and name, with
// a separator so ("ab","c") and ("a","bc") differ).
func (lm *LockManager) shardFor(res Resource) *lockShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(res.Type); i++ {
		h = (h ^ uint64(res.Type[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(res.Name); i++ {
		h = (h ^ uint64(res.Name[i])) * prime64
	}
	return lm.shards[h&lm.shardMask]
}

// removeWaiter unlinks a queued FIFO token. Caller holds the shard mutex.
func (st *lockState) removeWaiter(w *waiter) {
	kept := st.waiting[:0]
	for _, q := range st.waiting {
		if q != w {
			kept = append(kept, q)
		}
	}
	clear(st.waiting[len(kept):])
	st.waiting = kept
}
