// Package sched implements the paper's serializability theory (Definitions
// 6-16): object schedules, the mutually recursive action- and
// transaction-dependency relations, conformance, seriality, equivalence,
// object-oriented serializability of an object schedule (Definition 13) and
// of a whole system schedule (Definition 16), plus a conventional
// conflict-serializability checker used as the baseline the paper compares
// against.
//
// The analysis is offline: given an (extended) transaction system, the
// commutativity registry, and the execution order of the primitive actions
// (the knowledge Axiom 1 postulates), Analyze computes the least fixpoint
// of the paper's inheritance rules:
//
//   - Axiom 1 seeds the action dependency relation of each object with the
//     execution order of its conflicting primitive actions.
//   - Definition 10 lifts conflicting action dependencies at O to
//     transaction dependencies between the calling actions.
//   - Definition 11 injects a transaction dependency computed at P into the
//     action dependency relation of O when both transactions are actions on
//     O; commuting callers absorb the dependency and inheritance stops —
//     the source of the extra concurrency the paper claims.
//   - Definition 15 records transaction dependencies whose endpoints live
//     on different objects redundantly at both objects (the "added" action
//     dependency relation).
//
// The rules are monotone over finite relations, so the fixpoint exists and
// is unique. One propagator (propagate.go) implements the three
// definitions as a worklist — each new edge fires the rules it enables,
// once — and both checkers feed it: Analyze with every Axiom 1 edge of a
// finished schedule, Online with the edges each arriving primitive adds.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/commut"
	"repro/internal/graph"
	"repro/internal/txn"
)

// Analysis holds the fixpoint of the dependency relations for one executed
// schedule of a transaction system.
type Analysis struct {
	Sys *txn.System
	Reg *commut.Registry

	// PrimPos maps primitive action IDs to their execution position.
	PrimPos map[string]int

	// ActDep maps each object to its action dependency relation ⊲ over
	// ACT_O (Definition 11), nodes are action IDs.
	ActDep map[txn.OID]*graph.Digraph
	// TranDep maps each object to its transaction dependency relation over
	// TRA_O (Definition 10).
	TranDep map[txn.OID]*graph.Digraph
	// Added maps each object to its added action dependency relation
	// (Definition 15): transaction dependencies recorded elsewhere with
	// exactly one endpoint on this object.
	Added map[txn.OID]*graph.Digraph
	// global is the union of the three relations over all objects.
	global *graph.Digraph

	actions map[string]*txn.Action
	// onObj caches ACT_O per object.
	onObj map[txn.OID][]*txn.Action
}

// Analyze runs the fixpoint. primOrder is the execution order of ALL
// primitive actions of the system (Axiom 1's underlying knowledge); it must
// list every primitive action exactly once. The system should already be
// extended (txn.System.Extend) — Analyze calls Extend itself to be safe,
// which is a no-op on extended systems.
func Analyze(sys *txn.System, reg *commut.Registry, primOrder []string) (*Analysis, error) {
	p := newPropagator(reg)
	a, err := index(sys, primOrder, p)
	if err != nil {
		return nil, err
	}
	a.axiom1(p.addActDep)
	return a, nil
}

// index validates the primitive order and builds an Analysis whose
// relations, one graph per object, are p's and still empty.
func index(sys *txn.System, primOrder []string, p *propagator) (*Analysis, error) {
	sys.Extend()

	a := &Analysis{
		Sys:     sys,
		Reg:     p.reg,
		PrimPos: make(map[string]int),
		ActDep:  p.actDep,
		TranDep: p.tranDep,
		Added:   p.added,
		global:  p.global,
		actions: make(map[string]*txn.Action),
		onObj:   make(map[txn.OID][]*txn.Action),
	}
	for _, act := range sys.AllActions() {
		a.actions[act.ID] = act
		a.onObj[act.Msg.Object] = append(a.onObj[act.Msg.Object], act)
	}

	// Validate and index the primitive order. Virtual duplicates introduced
	// by the Definition 5 extension are bookkeeping actions, not executed
	// ones: they must not appear and are not required.
	for i, id := range primOrder {
		act, ok := a.actions[id]
		if !ok {
			return nil, fmt.Errorf("sched: primitive order references unknown action %q", id)
		}
		if !act.Primitive() {
			return nil, fmt.Errorf("sched: action %q in primitive order is not primitive", id)
		}
		if act.IsVirtual {
			return nil, fmt.Errorf("sched: virtual action %q must not appear in execution order", id)
		}
		if _, dup := a.PrimPos[id]; dup {
			return nil, fmt.Errorf("sched: action %q appears twice in primitive order", id)
		}
		a.PrimPos[id] = i
	}
	for _, act := range sys.AllActions() {
		if act.Primitive() && !act.IsVirtual && act.Msg.Object != txn.SystemObject {
			if _, ok := a.PrimPos[act.ID]; !ok {
				return nil, fmt.Errorf("sched: primitive action %q missing from execution order", act.ID)
			}
		}
	}

	for o, acts := range a.onObj {
		a.ActDep[o] = graph.New()
		a.TranDep[o] = graph.New()
		a.Added[o] = graph.New()
		for _, act := range acts {
			a.ActDep[o].AddNode(act.ID)
		}
	}
	return a, nil
}

// axiom1 calls emit(o, x, y) for every action dependency x ⊲ y that the
// execution order itself dictates: conflicting primitive actions are
// ordered by execution. On virtual objects (Definition 5) the conflicting
// pairs involve the moved action and/or virtual duplicates, which are not
// executed primitives; there the order is derived from the execution spans
// of the underlying real primitives (a duplicate stands for its original).
// Overlapping spans of conflicting actions yield dependencies in both
// directions — a contradiction that Definition 13(ii) then rejects, which
// is the conservative reading of "actions have accessed an inconsistent
// state".
func (a *Analysis) axiom1(emit func(o txn.OID, x, y *txn.Action)) {
	for _, o := range a.objects() {
		acts := a.onObj[o]
		virtual := o.Virtual()
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				x, y := acts[i], acts[j]
				if !conflict(a.Reg, o, x, y) {
					continue
				}
				if x.Primitive() && y.Primitive() && !x.IsVirtual && !y.IsVirtual {
					if a.PrimPos[x.ID] < a.PrimPos[y.ID] {
						emit(o, x, y)
					} else {
						emit(o, y, x)
					}
					continue
				}
				if !virtual {
					continue // non-primitive pairs on real objects get their deps by inheritance only
				}
				xLo, xHi, okX := a.span(x)
				yLo, yHi, okY := a.span(y)
				if !okX || !okY {
					continue
				}
				switch {
				case xHi < yLo:
					emit(o, x, y)
				case yHi < xLo:
					emit(o, y, x)
				default:
					emit(o, x, y)
					emit(o, y, x)
				}
			}
		}
	}
}

// objects returns every object with at least one action, system object
// included (its schedule is the top-level serialization), sorted by name.
func (a *Analysis) objects() []txn.OID {
	out := make([]txn.OID, 0, len(a.onObj))
	for o := range a.onObj {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Objects returns the analyzed objects sorted by name.
func (a *Analysis) Objects() []txn.OID { return a.objects() }

// Action returns the action with the given ID, or nil.
func (a *Analysis) Action(id string) *txn.Action { return a.actions[id] }

// span returns the [min,max] execution positions of the real primitive
// descendants of act; a virtual duplicate stands for its original. ok is
// false when there are no executed primitives underneath.
func (a *Analysis) span(act *txn.Action) (lo, hi int, ok bool) {
	src := act
	if act.IsVirtual && act.VirtualOf != nil {
		src = act.VirtualOf
	}
	lo, hi = -1, -1
	for _, d := range src.Subtree() {
		if !d.Primitive() || d.IsVirtual {
			continue
		}
		p, present := a.PrimPos[d.ID]
		if !present {
			continue
		}
		if lo == -1 || p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi, lo != -1
}

// Conflict reports whether the two actions (by ID) conflict on object o.
func (a *Analysis) Conflict(o txn.OID, xID, yID string) bool {
	x, y := a.actions[xID], a.actions[yID]
	if x == nil || y == nil {
		return false
	}
	return conflict(a.Reg, o, x, y)
}

// Verdict is the per-object serializability result.
type Verdict struct {
	Object txn.OID
	// TranDepAcyclic is Definition 13(i): an equivalent serial object
	// schedule exists iff the transaction dependency relation is acyclic.
	TranDepAcyclic bool
	// ActDepAcyclic is Definition 13(ii): no contradicting action
	// dependencies.
	ActDepAcyclic bool
	// AddedAcyclic is Definition 16(ii): the action dependency relation
	// united with the added action dependency relation is acyclic.
	AddedAcyclic bool
	// OOSerializable is Definition 13: TranDepAcyclic && ActDepAcyclic.
	OOSerializable bool
	// Cycle is a witness when one of the graphs is cyclic.
	Cycle []string
	// SerialOrder is a topological order of TRA_O witnessing the
	// equivalent serial schedule, when one exists.
	SerialOrder []string
}

// ObjectVerdict evaluates Definitions 13 and 16(ii) for one object.
func (a *Analysis) ObjectVerdict(o txn.OID) Verdict {
	v := Verdict{Object: o}
	order, terr := a.TranDep[o].TopoSort()
	v.TranDepAcyclic = terr == nil
	if terr == nil {
		// Only transactions (TRA_O) belong in the witness; TopoSort returns
		// exactly the TranDep nodes, which are TRA_O members by construction.
		v.SerialOrder = order
	} else {
		v.Cycle = terr.(*graph.CycleError).Cycle
	}
	aerr := a.ActDep[o].FindCycle()
	v.ActDepAcyclic = aerr == nil
	if v.Cycle == nil && aerr != nil {
		v.Cycle = aerr
	}
	union := graph.New()
	union.Merge(a.ActDep[o])
	union.Merge(a.Added[o])
	uc := union.FindCycle()
	v.AddedAcyclic = uc == nil
	if v.Cycle == nil && uc != nil {
		v.Cycle = uc
	}
	v.OOSerializable = v.TranDepAcyclic && v.ActDepAcyclic
	return v
}

// Report is the outcome of the full system-schedule analysis.
type Report struct {
	PerObject []Verdict
	// SystemOOSerializable is Definition 16: every object schedule is
	// oo-serializable and every added relation is acyclic.
	SystemOOSerializable bool
	// GlobalAcyclic strengthens Definition 16: the union of ALL dependency
	// relations is acyclic. Definition 16's per-object check can miss
	// cycles spanning three or more objects with no common object; the
	// global check cannot. Both are reported; see EXPERIMENTS.md.
	GlobalAcyclic bool
	GlobalCycle   []string
}

// Check evaluates Definition 16 plus the global strengthening.
func (a *Analysis) Check() Report {
	var r Report
	r.SystemOOSerializable = true
	for _, o := range a.objects() {
		v := a.ObjectVerdict(o)
		r.PerObject = append(r.PerObject, v)
		if !v.OOSerializable || !v.AddedAcyclic {
			r.SystemOOSerializable = false
		}
	}
	cyc := a.global.FindCycle()
	r.GlobalAcyclic = cyc == nil
	r.GlobalCycle = cyc
	return r
}

// Equivalent implements Definition 12 for the schedules of one object under
// two analyses (e.g. an interleaved execution vs. a serial re-execution):
// they are equivalent iff their transaction dependency relations coincide.
func Equivalent(a, b *Analysis, o txn.OID) bool {
	ga, gb := a.TranDep[o], b.TranDep[o]
	if ga == nil || gb == nil {
		return ga == gb
	}
	// Compare edge sets only: isolated nodes differ when one execution
	// touches an object the other does not conflict on.
	ea, eb := ga.Edges(), gb.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// IsSerial implements Definition 8 for object o given the full primitive
// execution order: the object schedule is serial iff for every pair of
// distinct transactions on o, all primitive descendants of one precede all
// primitive descendants of the other.
func (a *Analysis) IsSerial(o txn.OID) bool {
	tras := a.Sys.TransactionsOn(o)
	spans := make([][2]int, len(tras))
	for i, t := range tras {
		lo, hi := -1, -1
		for _, d := range t.Subtree() {
			if !d.Primitive() {
				continue
			}
			p, ok := a.PrimPos[d.ID]
			if !ok {
				continue
			}
			if lo == -1 || p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		spans[i] = [2]int{lo, hi}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			si, sj := spans[i], spans[j]
			if si[0] == -1 || sj[0] == -1 {
				continue
			}
			if si[1] < sj[0] || sj[1] < si[0] {
				continue // disjoint spans: serial
			}
			return false
		}
	}
	return true
}

// ConformViolations checks Definition 7 for object o: the object precedence
// relation (inherited intra-transaction precedence) must be contained in
// the action dependency order — a recorded dependency opposing a precedence
// is a violation. It returns the offending pairs as [mustFirst, butDependsOn]
// action-ID pairs.
func (a *Analysis) ConformViolations(o txn.OID) [][2]string {
	var out [][2]string
	acts := a.onObj[o]
	dep := a.ActDep[o]
	for _, x := range acts {
		for _, y := range acts {
			if txn.Precedes(x, y) && dep.Reachable(y.ID, x.ID) {
				out = append(out, [2]string{x.ID, y.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ConventionalReport is the baseline verdict: classical conflict-order
// preserving serializability over top-level transactions, with read/write
// conflicts at the primitive (page) level and no semantic knowledge.
type ConventionalReport struct {
	Serializable bool
	// Graph is the classical serialization graph over top-level
	// transaction IDs.
	Graph *graph.Digraph
	Cycle []string
	// Conflicts counts the conflicting primitive pairs (the paper's "rate
	// of conflicting accesses" under the conventional definition).
	Conflicts int
}

// Conventional runs the baseline check on the same execution. Two primitive
// actions conflict conventionally iff they access the same object, stem
// from different top-level transactions, and at least one is not a read.
func (a *Analysis) Conventional() ConventionalReport {
	g := graph.New()
	conflicts := 0
	for _, t := range a.Sys.Top {
		g.AddNode(t.ID)
	}
	for _, o := range a.objects() {
		acts := a.onObj[o]
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				x, y := acts[i], acts[j]
				if !x.Primitive() || !y.Primitive() {
					continue
				}
				rx, ry := x.Root(), y.Root()
				if rx == ry {
					continue
				}
				if x.Msg.Inv.Method == "read" && y.Msg.Inv.Method == "read" {
					continue
				}
				conflicts++
				if a.PrimPos[x.ID] < a.PrimPos[y.ID] {
					g.AddEdge(rx.ID, ry.ID)
				} else {
					g.AddEdge(ry.ID, rx.ID)
				}
			}
		}
	}
	cyc := g.FindCycle()
	return ConventionalReport{
		Serializable: cyc == nil,
		Graph:        g,
		Cycle:        cyc,
		Conflicts:    conflicts,
	}
}

// SemanticConflicts counts conflicting action pairs under the paper's
// semantic definition, summed over all objects and restricted to pairs
// whose dependency actually had to be recorded (i.e. pairs related by the
// action dependency relation and in conflict). Comparing this to
// ConventionalReport.Conflicts quantifies the abstract's claim of "a lower
// rate of conflicting accesses".
func (a *Analysis) SemanticConflicts() int {
	n := 0
	for _, o := range a.objects() {
		for _, e := range a.ActDep[o].Edges() {
			if a.Conflict(o, e[0], e[1]) {
				n++
			}
		}
	}
	return n
}

// DependencyTable renders the Figure 8 style table: one row per object with
// its transaction dependencies, sorted by object name.
func (a *Analysis) DependencyTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %s\n", "Object", "Schedule dependencies")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 72))
	for _, o := range a.objects() {
		deps := a.TranDep[o].Edges()
		if len(deps) == 0 {
			fmt.Fprintf(&b, "%-12s | (none)\n", o.Name)
			continue
		}
		parts := make([]string, len(deps))
		for i, e := range deps {
			parts[i] = fmt.Sprintf("%s <- %s", a.describe(e[1]), a.describe(e[0]))
		}
		fmt.Fprintf(&b, "%-12s | %s\n", o.Name, strings.Join(parts, "; "))
	}
	return b.String()
}

// describe renders an action as the paper does in Figure 8: top-level
// transactions by their ID, inner actions as Object.method(params).
func (a *Analysis) describe(id string) string {
	act := a.actions[id]
	if act == nil {
		return id
	}
	if act.Parent == nil {
		return act.ID
	}
	return act.Msg.String()
}
