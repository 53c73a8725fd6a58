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

// AcquireInfo is the provenance an AcquireEx call reports back: enough to
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

// Requester names the acquiring action. AcquireTraced asks for the id
// only when it records a span, so an uncontended acquire renders nothing.
type Requester interface {
	ActionID() string
}

// ActionID is a Requester whose id is already rendered.
type ActionID string

// ActionID implements Requester.
func (id ActionID) ActionID() string { return string(id) }

// AcquireTraced is AcquireEx plus span recording: a CONTENDED or failed
// acquire becomes a KLock span (backdated to when the wait began) on tt,
// carrying provenance edges; an uncontended grant records nothing — that
// absence is exactly where commutativity (Def. 11) cut the dependency. It
// returns the granted lock (nil on error) for a later ReleaseHeld.
//
//   - req is the acquiring action (the span's parent is its method span);
//     owner is the lock's legal holder, which differs from req's id under
//     open nesting (the semantic lock is held by the CALLING action —
//     recorded as an inherited-from edge, the paper's Def. 10 inheritance
//     made explicit).
func (lm *LockManager) AcquireTraced(tt *span.TxnTrace, req Requester, owner string, res Resource, mode Mode) (*Held, error) {
	return lm.AcquireOwner(tt, req, Owner{id: owner}, res, mode)
}

// AcquireOwner is AcquireTraced for an owner of any form: the engine's are
// nodes of its action trees.
func (lm *LockManager) AcquireOwner(tt *span.TxnTrace, req Requester, owner Owner, res Resource, mode Mode) (*Held, error) {
	h, info, err := lm.acquire(owner, res, mode)
	if tt != nil && (info.Blocked || err != nil) {
		// Render the requester, the owner and the mode only for a span
		// that will be recorded.
		RecordLockSpan(tt, req.ActionID(), owner.String(), res.Name, mode.String(), info, err)
	}
	return h, err
}

// RecordLockSpan records one contended/failed acquire as a KLock span with
// provenance edges. No-op when tt is nil or the acquire was an uncontended
// success.
func RecordLockSpan(tt *span.TxnTrace, actionID, owner, resName, mode string, info AcquireInfo, err error) {
	if tt == nil || (!info.Blocked && err == nil) {
		return
	}
	now := time.Now()
	as := tt.BeginSpanAt(actionID+"/lock("+resName+")", actionID, span.KLock,
		"lock "+resName, now.Add(-info.Wait))
	as.SetClass(mode)
	if owner != actionID {
		as.AddEdge(span.Edge{
			Kind: span.EdgeInheritedFrom, Peer: owner, PeerRoot: RootOf(owner),
			Object: resName,
			Note:   "semantic lock held by calling action (Def. 10)",
		})
	}
	for i, b := range info.Blockers {
		if i == maxBlockerEdges {
			break
		}
		as.AddEdge(span.Edge{
			Kind: span.EdgeBlockedOn, Peer: b.Owner, PeerRoot: RootOf(b.Owner),
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
			e.PeerRoot = RootOf(info.Blockers[0].Owner)
			e.Mode = info.Blockers[0].Mode
		}
		as.AddEdge(e)
	case errors.Is(err, ErrDeadlock), errors.Is(err, ErrDoomed):
		e := span.Edge{Kind: span.EdgeVictimOf, Object: resName, Wait: info.Wait}
		root := RootOf(actionID)
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
				e.PeerRoot = RootOf(info.Blockers[0].Owner)
				e.Mode = info.Blockers[0].Mode
			}
		}
		as.AddEdge(e)
	}
	as.End(err)
}
