package sched

import (
	"repro/internal/commut"
	"repro/internal/graph"
	"repro/internal/txn"
)

// ReferenceAnalyze exposes referenceAnalyze to the external differential
// test, which needs the engine's specifications (they import this package).
var ReferenceAnalyze = referenceAnalyze

// referenceAnalyze is the algorithm Analyze used before the propagator:
// after the same indexing and Axiom 1 seeding, iterate Definitions 10, 11
// and 15 over every edge of every object until nothing changes. It is kept
// only as the oracle of the differential test; its ActDep, TranDep and
// Added must equal Analyze's edge for edge.
func referenceAnalyze(sys *txn.System, reg *commut.Registry, primOrder []string) (*Analysis, error) {
	a, err := index(sys, primOrder, newPropagator(reg))
	if err != nil {
		return nil, err
	}
	a.axiom1(func(o txn.OID, x, y *txn.Action) { a.ActDep[o].AddEdge(x.ID, y.ID) })

	objs := a.objects()
	cross := graph.New()
	changed := true
	add := func(g *graph.Digraph, from, to *txn.Action) {
		if !g.HasEdge(from.ID, to.ID) {
			g.AddEdge(from.ID, to.ID)
			changed = true
		}
	}
	for changed {
		changed = false
		// Definition 10: lift conflicting action dependencies to the callers.
		for _, o := range objs {
			for _, e := range a.ActDep[o].Edges() {
				x, y := a.actions[e[0]], a.actions[e[1]]
				if !conflict(reg, o, x, y) {
					continue // commuting callers absorb the dependency
				}
				if t, u := txn.CallerOn(x), txn.CallerOn(y); t != u {
					add(a.TranDep[o], t, u)
				}
			}
		}
		// Definitions 11 and 15: inject transaction dependencies into the
		// action (or added) dependency relations of the callers' objects.
		for _, p := range objs {
			for _, e := range a.TranDep[p].Edges() {
				t, u := a.actions[e[0]], a.actions[e[1]]
				to, uo := t.Msg.Object, u.Msg.Object
				if to == uo {
					add(a.ActDep[to], t, u)
					continue
				}
				add(a.Added[to], t, u)
				add(a.Added[uo], t, u)
				add(cross, t, u)
			}
		}
		// The lift of cross-object pairs along the call hierarchy.
		for _, e := range cross.Edges() {
			t, u := a.actions[e[0]], a.actions[e[1]]
			tc, uc := txn.CallerOn(t), txn.CallerOn(u)
			if tc == uc {
				continue
			}
			if common := tc.Msg.Object; common == uc.Msg.Object {
				if conflict(reg, common, tc, uc) {
					add(a.ActDep[common], tc, uc)
				}
				continue
			}
			add(a.Added[tc.Msg.Object], tc, uc)
			add(a.Added[uc.Msg.Object], tc, uc)
			add(cross, tc, uc)
		}
	}
	return a, nil
}
