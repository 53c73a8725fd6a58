package core

import (
	"sync"

	"repro/internal/cc"
)

// actionPool holds chains of zeroed action records linked through next. A
// transaction takes one chain at its first dispatch and, when it ends,
// returns every record it used together with the chain's spares, so one
// Get and one Put serve a transaction.
var actionPool sync.Pool

// maxChain bounds the records a transaction returns, and so the length of
// a chain: 4096 records (1.2 MB) let a bulk load's transactions of a few
// thousand dispatches reuse each other's records, while a bigger one's
// are left to the collector.
const maxChain = 4096

// takeAction returns a zeroed record for a new action and links it into
// the transaction's chain. Call with t.mu held.
func (t *Txn) takeAction() *runtimeAction {
	if t.free == nil {
		t.free, _ = actionPool.Get().(*runtimeAction)
	}
	a := t.free
	if a != nil {
		t.free = a.next
	} else {
		a = new(runtimeAction)
	}
	a.guard.take()
	a.next = t.actions
	t.actions = a
	return a
}

// recycle zeroes the transaction's action records and returns them for
// reuse. Call it once the transaction has fully ended: the trace has copied
// its dispatch spans, releaseLocks has dropped every grant whose mode
// points into a record, and rollback has run every compensation. A dispatch still
// running (one that raced the end, which finished refuses to later
// dispatches) may touch any record of the tree, so then the records are
// left to the collector instead.
func (t *Txn) recycle() {
	t.comp.Store(nil)
	t.mu.Lock()
	a, head := t.actions, t.free
	t.actions, t.free = nil, nil
	t.mu.Unlock()
	if a == nil || t.inflight.Load() != 0 {
		return
	}
	for n := 0; a != nil && n < maxChain; n++ {
		next := a.next
		a.reset(head)
		head = a
		a = next
	}
	actionPool.Put(head)
}

// maxKeptHeld bounds the held list whose array a reused record keeps: a
// list that outgrew heldBuf would otherwise be grown again in every
// transaction, while one bulk load's list of thousands of locks is left to
// the collector.
const maxKeptHeld = 256

// reset zeroes the record — its parent, transaction, span, mode, params and
// held locks — and links it before next. A held list that outgrew heldBuf
// keeps its array, cleared.
func (a *runtimeAction) reset(next *runtimeAction) {
	gen := a.guard.lives()
	var held []*cc.Held
	if c := cap(a.held); c > len(a.heldBuf) && c <= maxKeptHeld {
		held = a.held[:c]
		clear(held)
		held = held[:0]
	}
	*a = runtimeAction{next: next, held: held}
	a.guard.recycled(gen)
}
