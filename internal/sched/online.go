package sched

import (
	"fmt"

	"repro/internal/commut"
	"repro/internal/graph"
	"repro/internal/txn"
)

// StreamEvent is one dispatch in a live stream — the same shape as
// trace.Event, duplicated here so the trace package's tests can depend on
// sched without an import cycle.
type StreamEvent struct {
	ID       string
	Parent   string
	ObjType  string
	ObjName  string
	Method   string
	Params   []string
	Parallel bool
	Aborted  bool
}

// Online is the incremental counterpart of Analyze: it consumes trace
// events one at a time (a certifier tailing a live system) and maintains
// the same dependency relations, reporting the first oo-serializability
// violation as soon as the closing edge arrives instead of after the fact.
//
// Scope: Online expects engine-style traces where the primitive actions
// are the operations on the configured primitive object types (by default
// just "page", the engine's zero layer) and where no action calls into an
// object an ancestor already accessed — the Definition 5 extension cannot
// be applied retroactively to a stream. Add returns an error if it sees
// such a cycle. The batch Analyze remains the reference; Online is
// validated differentially against it.
type Online struct {
	primitive map[string]bool

	actions map[string]*txn.Action
	// aborted records the ids of aborted events AND of events under an
	// aborted ancestor, so a whole rolled-back subtree is skipped silently
	// instead of tripping the unknown-parent check. This relies on the
	// dispatch-order stream contract (see Add); entries live until the
	// caller prunes them with PruneAborted.
	aborted map[string]bool
	onObj   map[txn.OID][]*txn.Action

	// deps closes the relations under Definitions 10/11/15 (propagate.go).
	deps *propagator

	violation []string
}

// NewOnline returns an empty certifier. primitiveTypes lists the object
// types whose actions are primitives (nil means {"page"}).
func NewOnline(reg *commut.Registry, primitiveTypes ...string) *Online {
	if len(primitiveTypes) == 0 {
		primitiveTypes = []string{"page"}
	}
	prim := make(map[string]bool, len(primitiveTypes))
	for _, t := range primitiveTypes {
		prim[t] = true
	}
	o := &Online{
		primitive: prim,
		actions:   make(map[string]*txn.Action),
		aborted:   make(map[string]bool),
		onObj:     make(map[txn.OID][]*txn.Action),
		deps:      newPropagator(reg),
	}
	// Every dependency enters one global graph; an edge from → to closes a
	// cycle exactly when from was already reachable from to.
	o.deps.onEdge = func(from, to string) {
		if o.violation == nil && o.deps.global.Reachable(to, from) {
			o.violation = o.deps.global.FindCycle()
		}
	}
	return o
}

// Violation returns a witness cycle once the stream stopped being
// oo-serializable, or nil.
func (o *Online) Violation() []string { return o.violation }

// OK reports whether the stream so far is oo-serializable.
func (o *Online) OK() bool { return o.violation == nil }

// Add ingests one event. It returns an error for malformed streams
// (unknown parents, duplicate ids, call cycles); a serializability
// violation is NOT an error — check OK/Violation.
//
// Stream contract: events arrive in dispatch order, so an action's event
// precedes every descendant's. Aborts are carried on the dispatch records
// themselves (trace.Recorder's MarkAborted flags the whole recorded
// subtree), which means an aborted parent's record — flag already set —
// precedes its children's; a child whose parent is neither known nor
// aborted is therefore a malformed stream, not a reordering, and Add
// reports it as the unknown-parent error.
func (o *Online) Add(ev StreamEvent) error {
	if ev.Aborted {
		o.aborted[ev.ID] = true
		return nil
	}
	if ev.Parent != "" && o.aborted[ev.Parent] {
		// A child of an aborted action is part of the rolled-back subtree;
		// remember its id so ITS children are skipped too.
		o.aborted[ev.ID] = true
		return nil
	}
	if _, dup := o.actions[ev.ID]; dup {
		return fmt.Errorf("sched: online: duplicate action id %q", ev.ID)
	}
	a := &txn.Action{
		ID: ev.ID,
		Msg: txn.Message{
			Object: txn.OID{Type: ev.ObjType, Name: ev.ObjName},
			Inv:    commut.Invocation{Method: ev.Method, Params: ev.Params},
		},
	}
	if ev.Parent == "" {
		a.Process = ev.ID
	} else {
		p, ok := o.actions[ev.Parent]
		if !ok {
			return fmt.Errorf("sched: online: action %q before its parent %q", ev.ID, ev.Parent)
		}
		a.Parent = p
		if ev.Parallel {
			a.Process = ev.ID
		} else {
			a.Process = p.Process
		}
		p.Children = append(p.Children, a)
		for q := p; q != nil; q = q.Parent {
			if q.Msg.Object == a.Msg.Object && a.Msg.Object != txn.SystemObject {
				return fmt.Errorf("sched: online: call cycle on %s (action %s under %s); use the batch checker with Extend",
					a.Msg.Object.Name, a.ID, q.ID)
			}
		}
	}
	o.actions[ev.ID] = a

	obj := a.Msg.Object
	if !o.primitive[obj.Type] {
		o.onObj[obj] = append(o.onObj[obj], a)
		return nil
	}

	// A primitive arrived: Axiom 1 orders it against every earlier
	// conflicting primitive on the object; each new edge propagates.
	peers := o.onObj[obj]
	o.onObj[obj] = append(peers, a)
	for _, b := range peers {
		if conflict(o.deps.reg, obj, b, a) {
			o.deps.addActDep(obj, b, a)
		}
	}
	return nil
}

// PruneAborted forgets the given aborted ids. The aborted set otherwise
// grows for the lifetime of the stream (there is no end-of-subtree marker
// in the event shape), so a long-lived certifier should prune a subtree's
// ids once it knows no more of its events can arrive — e.g. after the
// transaction's rollback completed. Pruning too early re-exposes late
// descendants to the unknown-parent error.
func (o *Online) PruneAborted(ids ...string) {
	for _, id := range ids {
		delete(o.aborted, id)
	}
}

// TranDeps exposes an object's transaction dependency relation (nil if the
// object has none yet).
func (o *Online) TranDeps(obj txn.OID) *graph.Digraph { return o.deps.tranDep[obj] }

// ActDeps exposes an object's action dependency relation.
func (o *Online) ActDeps(obj txn.OID) *graph.Digraph { return o.deps.actDep[obj] }
