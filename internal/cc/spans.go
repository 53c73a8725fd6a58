package cc

import (
	"errors"
	"strings"
	"time"

	"repro/internal/span"
)

// BlockerRef names one conflicting holder (or earlier incompatible waiter,
// in fairness mode) a blocked acquire last observed.
type BlockerRef struct {
	Owner string
	Mode  string
}

// AcquireInfo is the provenance an acquire reports back: enough to
// explain, per transaction, WHY the acquire waited or failed.
type AcquireInfo struct {
	// Blocked reports whether the call waited at least once; Wait is the
	// total blocked time.
	Blocked bool
	Wait    time.Duration
	// TimedOut reports the wait exceeded the configured bound.
	TimedOut bool
	// Blockers are the conflicting entries observed on the last loop pass —
	// on success, who made us wait; on timeout, who was still holding.
	Blockers []BlockerRef
	// Cycle is the waits-for cycle that doomed this transaction (deadlock
	// victims only), starting at its own root.
	Cycle []string
}

func blockerRefs(bl []blockRef) []BlockerRef {
	if len(bl) == 0 {
		return nil
	}
	out := make([]BlockerRef, len(bl))
	for i, b := range bl {
		out[i] = BlockerRef{Owner: b.owner.String(), Mode: b.mode.String()}
	}
	return out
}

// maxBlockerEdges bounds the blocked-on edges recorded per lock span; a
// reader convoy of dozens of commuting holders does not need dozens of
// identical edges to explain one wait.
const maxBlockerEdges = 4

// Requester names the acquiring action. AcquireOwner asks for the id
// only when it records a span, so an uncontended acquire renders nothing.
type Requester interface {
	ActionID() string
}

// AcquireOwner blocks until owner holds res in mode and returns the
// granted lock (nil on error), which the caller lists on the owner's
// action for a later ReleaseHeldOwner or TransferOwner. A CONTENDED or
// failed acquire also becomes a KLock span (backdated to when the wait
// began) on tt, carrying provenance edges; an uncontended grant records
// nothing — that absence is exactly where commutativity (Def. 11) cut the
// dependency.
//
//   - req is the acquiring action (the span's parent is its method span);
//     owner is the lock's legal holder, which differs from req's id under
//     open nesting (the semantic lock is held by the CALLING action —
//     recorded as an inherited-from edge, the paper's Def. 10 inheritance
//     made explicit).
func (lm *LockManager) AcquireOwner(tt *span.TxnTrace, req Requester, owner Owner, res Resource, mode Mode) (*Held, error) {
	h, info, err := lm.acquire(owner, res, mode)
	if tt != nil && (info.Blocked || err != nil) {
		// Render the requester, the owner and the mode only for a span
		// that will be recorded.
		recordLockSpan(tt, req.ActionID(), owner.String(), res.Name, mode.String(), info, err)
	}
	return h, err
}

// recordLockSpan records one contended/failed acquire as a KLock span with
// provenance edges. No-op when tt is nil or the acquire was an uncontended
// success.
func recordLockSpan(tt *span.TxnTrace, actionID, owner, resName, mode string, info AcquireInfo, err error) {
	if tt == nil || (!info.Blocked && err == nil) {
		return
	}
	now := time.Now()
	as := tt.BeginSpanAt(actionID+"/lock("+resName+")", actionID, span.KLock,
		"lock "+resName, now.Add(-info.Wait))
	as.SetClass(mode)
	if owner != actionID {
		as.AddEdge(span.Edge{
			Kind: span.EdgeInheritedFrom, Peer: owner, PeerRoot: rootOf(owner),
			Object: resName,
			Note:   "semantic lock held by calling action (Def. 10)",
		})
	}
	for i, b := range info.Blockers {
		if i == maxBlockerEdges {
			break
		}
		as.AddEdge(span.Edge{
			Kind: span.EdgeBlockedOn, Peer: b.Owner, PeerRoot: rootOf(b.Owner),
			Object: resName, Mode: b.Mode, Wait: info.Wait,
		})
	}
	// The terminal (abort-explaining) edge goes last: an aborted trace's
	// root span is stamped with the LAST edge of the failing span.
	switch {
	case err == nil:
	case errors.Is(err, ErrTimeout):
		e := span.Edge{Kind: span.EdgeTimeout, Object: resName, Wait: info.Wait,
			Note: "wait exceeded bound"}
		if len(info.Blockers) > 0 {
			e.Peer = info.Blockers[0].Owner
			e.PeerRoot = rootOf(info.Blockers[0].Owner)
			e.Mode = info.Blockers[0].Mode
		}
		as.AddEdge(e)
	case errors.Is(err, ErrDeadlock), errors.Is(err, ErrDoomed):
		e := span.Edge{Kind: span.EdgeVictimOf, Object: resName, Wait: info.Wait}
		root := rootOf(actionID)
		for _, r := range info.Cycle {
			if r != root {
				e.Peer = r
				e.PeerRoot = r
				break
			}
		}
		if len(info.Cycle) > 0 {
			e.Note = "cycle " + strings.Join(append(append([]string{}, info.Cycle...), info.Cycle[0]), "→")
		} else {
			e.Note = "doomed by deadlock detection"
			if len(info.Blockers) > 0 {
				e.Peer = info.Blockers[0].Owner
				e.PeerRoot = rootOf(info.Blockers[0].Owner)
				e.Mode = info.Blockers[0].Mode
			}
		}
		as.AddEdge(e)
	}
	as.End(err)
}

// rootOf returns the top-level transaction id of a rendered owner id: its
// prefix up to the first dot.
func rootOf(id string) string {
	root, _, _ := strings.Cut(id, ".")
	return root
}
