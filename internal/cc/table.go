package cc

import (
	"runtime"
	"sync"
)

// The lock table is partitioned into power-of-two shards so unrelated
// resources never contend on one mutex. Each resource hashes to one shard;
// every lockState carries its own condition variable (on the shard mutex),
// so releasing a resource wakes only that resource's waiters instead of
// every blocked transaction in the system. Idle states are recycled per
// shard, so a state pointer is only valid for its resource while sh.mu is
// held or while it carries a grant: a waiter that drops the mutex must
// re-fetch it with state(), and a granted lock's state (its Held handle)
// stays put until the grant is released.
type lockShard struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	// free holds idle states for reuse (at most maxFreeStates), so an
	// uncontended acquire of a resource nobody holds allocates nothing.
	free []*lockState
}

// maxFreeStates caps each shard's free list: enough to cover the resources
// a shard's concurrent transactions lock and release over and over, small
// enough that a burst of distinct resources does not pin its peak.
const maxFreeStates = 64

type lockState struct {
	// sh is the shard the state belongs to, set once when it is created,
	// so a release can lock it straight from a state in hand. res is the
	// resource it serves, set by state() and zeroed when it is recycled (a
	// pooled state pins no name strings); guarded by sh.mu.
	sh  *lockShard
	res Resource

	granted []grant
	// waiting holds blocked requests in arrival order; only consulted when
	// fairness is enabled.
	waiting []*waiter
	// cond wakes this resource's blocked acquires; its Locker is the
	// owning shard's mutex. Embedded by value: a recycled state keeps it.
	cond sync.Cond
	// sleepers counts goroutines parked on cond. A state with grants,
	// queued waiters or sleepers must not be garbage-collected.
	sleepers int
}

// state returns the lockState for res, taking it from the free list or
// creating it if needed. Caller holds sh.mu.
func (sh *lockShard) state(res Resource) *lockState {
	st, ok := sh.locks[res]
	if !ok {
		if n := len(sh.free); n > 0 {
			st = sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
		} else {
			st = &lockState{sh: sh}
			st.cond.L = &sh.mu
		}
		st.res = res
		sh.locks[res] = st
	}
	return st
}

// gcState drops st from the table when it is completely idle, bounding the
// table's memory under churning resource populations, and recycles it
// through the free list. st must be the table's current state for st.res.
// Caller holds sh.mu.
func (sh *lockShard) gcState(st *lockState) {
	if len(st.granted) != 0 || len(st.waiting) != 0 || st.sleepers != 0 {
		return
	}
	delete(sh.locks, st.res)
	st.res = Resource{}
	if len(sh.free) < maxFreeStates {
		// Both arrays are empty and already zeroed past len (the removal
		// paths clear what they drop), so a pooled state retains no mode —
		// and no action tree a mode points into.
		sh.free = append(sh.free, st)
	}
}

// releaseLocked drops every mode owner holds on st and, if it held any,
// wakes st's waiters and collects st if it went idle. A state that carries
// no grant of owner — because it was released already, or recycled for
// another resource since — is left alone. Caller holds sh.mu.
func (sh *lockShard) releaseLocked(st *lockState, owner Owner) {
	if removeOwnerLocked(st, owner) {
		st.cond.Broadcast()
		sh.gcState(st)
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
