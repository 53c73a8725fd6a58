package sched

import (
	"repro/internal/commut"
	"repro/internal/graph"
	"repro/internal/txn"
)

// propagator holds the dependency relations of one schedule and closes
// them under Definitions 10, 11 and 15 one edge at a time: feeding it an
// Axiom 1 edge with addActDep inserts every dependency that edge implies
// before the call returns. Each rule fires once per new edge, so the
// relations are the least fixpoint of the rules over the edges fed so far,
// whatever the order — the batch Analyze feeds all seeds of a finished
// schedule, Online feeds them as primitives arrive.
type propagator struct {
	reg *commut.Registry

	// Per-object relations; a graph is created when its first edge arrives.
	actDep  map[txn.OID]*graph.Digraph // Definition 11
	tranDep map[txn.OID]*graph.Digraph // Definition 10
	added   map[txn.OID]*graph.Digraph // Definition 15
	// global is the union of the three relations over all objects.
	global *graph.Digraph
	// onEdge, when set, sees each edge once, right after it entered global.
	onEdge func(from, to string)
}

func newPropagator(reg *commut.Registry) *propagator {
	return &propagator{
		reg:     reg,
		actDep:  make(map[txn.OID]*graph.Digraph),
		tranDep: make(map[txn.OID]*graph.Digraph),
		added:   make(map[txn.OID]*graph.Digraph),
		global:  graph.New(),
	}
}

// conflict implements Definition 9 for two actions on object o: actions of
// the same process never conflict; otherwise the object's commutativity
// specification decides. Virtual objects use their original's type, which
// OID already preserves.
func conflict(reg *commut.Registry, o txn.OID, x, y *txn.Action) bool {
	if x == y || x.Process == y.Process {
		return false
	}
	return !reg.Lookup(o.Type).Commutes(x.Msg.Inv, y.Msg.Inv)
}

// insert records x → y in obj's graph of rel and in the global graph. It
// reports whether the edge is new to rel, i.e. whether a rule has to fire.
func (p *propagator) insert(rel map[txn.OID]*graph.Digraph, obj txn.OID, x, y *txn.Action) bool {
	g, ok := rel[obj]
	if !ok {
		g = graph.New()
		rel[obj] = g
	}
	if g.HasEdge(x.ID, y.ID) {
		return false
	}
	g.AddEdge(x.ID, y.ID)
	if !p.global.HasEdge(x.ID, y.ID) {
		p.global.AddEdge(x.ID, y.ID)
		if p.onEdge != nil {
			p.onEdge(x.ID, y.ID)
		}
	}
	return true
}

// addActDep inserts x ⊲ y at obj. Definition 10: if the two actions
// conflict, their callers inherit the dependency as a transaction
// dependency of obj; commuting actions absorb it and inheritance stops.
func (p *propagator) addActDep(obj txn.OID, x, y *txn.Action) {
	if !p.insert(p.actDep, obj, x, y) || !conflict(p.reg, obj, x, y) {
		return
	}
	if t, u := txn.CallerOn(x), txn.CallerOn(y); t != u {
		p.addTranDep(obj, t, u)
	}
}

// addTranDep inserts t → u into obj's transaction dependencies. Definition
// 11: when both transactions are actions on one object the dependency
// becomes an action dependency there; otherwise it crosses objects.
func (p *propagator) addTranDep(obj txn.OID, t, u *txn.Action) {
	if !p.insert(p.tranDep, obj, t, u) {
		return
	}
	if t.Msg.Object == u.Msg.Object {
		p.addActDep(t.Msg.Object, t, u)
		return
	}
	p.addCross(t, u)
}

// addCross records a dependency whose endpoints live on different objects
// in the added relation of both (Definition 15) and lifts it. The lift
// strengthens Definition 15: a cross-object dependency constrains the
// serial order of the callers too, but the two actions share no object
// whose specification could judge them, so the pair moves up the call
// hierarchy until both sides are actions on a common object — in the limit
// the system object. There Definition 11 applies: the callers inherit the
// dependency if they conflict and absorb it if they commute. Without the
// lift, contradictions between distinct actions on distinct objects would
// escape every acyclicity check (see TestAddedRelationViolation).
func (p *propagator) addCross(t, u *txn.Action) {
	if !p.insert(p.added, t.Msg.Object, t, u) {
		return
	}
	p.insert(p.added, u.Msg.Object, t, u)
	tc, uc := txn.CallerOn(t), txn.CallerOn(u)
	common := tc.Msg.Object
	switch {
	case tc == uc:
		// Same caller: intra-transaction, ordered by precedence.
	case common != uc.Msg.Object:
		p.addCross(tc, uc)
	case conflict(p.reg, common, tc, uc):
		p.addActDep(common, tc, uc)
	}
}
