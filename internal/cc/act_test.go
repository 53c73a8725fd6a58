package cc

import (
	"sync"

	"repro/internal/span"
)

// act is an action of a test transaction, driven the way the engine drives
// its actions: each grant is listed on the action that owns it, and every
// release and transfer walks such a list, never the table.
type act struct {
	lm     *LockManager
	id     string // the top-level transaction's id
	node   Node
	parent *act
	mu     *sync.Mutex // the transaction's: guards every list of its tree
	held   []*Held
}

// begin starts test transaction id and returns its root action.
func begin(lm *LockManager, id string) *act {
	return &act{lm: lm, id: id, mu: new(sync.Mutex)}
}

// child returns a new child number n of a.
func (a *act) child(n int32) *act {
	c := &act{lm: a.lm, id: a.id, parent: a, mu: a.mu}
	c.node.SetChild(&a.node, n)
	return c
}

func (a *act) owner() Owner { return NodeOwner(a.id, &a.node) }

// ActionID implements Requester.
func (a *act) ActionID() string { return a.owner().String() }

// acquire takes r in mode m in a's name and lists the grant on a.
func (a *act) acquire(r Resource, m Mode) error {
	_, err := a.acquireTraced(nil, a, r, m)
	return err
}

// acquireEx is acquire reporting the acquire's provenance.
func (a *act) acquireEx(r Resource, m Mode) (AcquireInfo, error) {
	h, info, err := a.lm.acquire(a.owner(), r, m)
	a.list(h, err)
	return info, err
}

// acquireTraced is acquire requested by req, recording a contended or
// failed acquire on tt.
func (a *act) acquireTraced(tt *span.TxnTrace, req Requester, r Resource, m Mode) (*Held, error) {
	h, err := a.lm.AcquireOwner(tt, req, a.owner(), r, m)
	a.list(h, err)
	return h, err
}

func (a *act) list(h *Held, err error) {
	if err == nil {
		a.mu.Lock()
		a.held = append(a.held, h)
		a.mu.Unlock()
	}
}

// take empties a's list and returns what it held.
func (a *act) take() []*Held {
	a.mu.Lock()
	defer a.mu.Unlock()
	held := a.held
	a.held = nil
	return held
}

// release releases every lock on a's list: a completed action's early
// release, or an aborted subtree's.
func (a *act) release() {
	for _, h := range a.take() {
		a.lm.ReleaseHeldOwner(h, a.owner())
	}
}

// releaseRes releases a's grant on r, as Release does for a string owner.
// Every handle on a's list carries a grant of a, so its state still serves
// the resource it was granted for.
func (a *act) releaseRes(r Resource) {
	a.mu.Lock()
	var drop []*Held
	kept := a.held[:0]
	for _, h := range a.held {
		if (*lockState)(h).res == r {
			drop = append(drop, h)
		} else {
			kept = append(kept, h)
		}
	}
	a.held = kept
	a.mu.Unlock()
	for _, h := range drop {
		a.lm.ReleaseHeldOwner(h, a.owner())
	}
}

// handUp passes a's locks to its parent: a closed-nested commit.
func (a *act) handUp() {
	held := a.take()
	a.lm.TransferOwner(held, a.owner(), a.parent.owner())
	a.mu.Lock()
	a.parent.held = append(a.parent.held, held...)
	a.mu.Unlock()
}

// end ends a's transaction: the root's list is released, then its detector
// state is dropped.
func (a *act) end() {
	a.release()
	a.lm.Forget(a.id)
}

// ownerReq names an owner as the requester of its own acquire.
type ownerReq Owner

// ActionID implements Requester.
func (o ownerReq) ActionID() string { return Owner(o).String() }
