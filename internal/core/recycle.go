package core

import "sync"

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
// its dispatch spans, ReleaseTree has dropped every grant whose mode points
// into a record, and rollback has run every compensation. A dispatch still
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

// reset zeroes the record — its parent, transaction, span, mode, params and
// held locks — and links it before next.
func (a *runtimeAction) reset(next *runtimeAction) {
	gen := a.guard.lives()
	*a = runtimeAction{next: next}
	a.guard.recycled(gen)
}
