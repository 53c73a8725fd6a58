package sched_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
)

// sameRelations requires the three dependency relations of got and want to
// be equal edge for edge on every object.
func sameRelations(t *testing.T, got, want *sched.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Objects(), want.Objects()) {
		t.Fatalf("objects differ: %v vs %v", got.Objects(), want.Objects())
	}
	for _, o := range want.Objects() {
		for _, rel := range []struct {
			name      string
			got, want [][2]string
		}{
			{"ActDep", got.ActDep[o].Edges(), want.ActDep[o].Edges()},
			{"TranDep", got.TranDep[o].Edges(), want.TranDep[o].Edges()},
			{"Added", got.Added[o].Edges(), want.Added[o].Edges()},
		} {
			if !reflect.DeepEqual(rel.got, rel.want) {
				t.Errorf("%s[%s]:\n got %v\nwant %v", rel.name, o.Name, rel.got, rel.want)
			}
		}
	}
}

// analyzeBoth runs the propagator-based Analyze and the whole-graph
// fixpoint it replaced on fresh copies of one schedule and requires equal
// relations. It returns the Definition 16 verdict.
func analyzeBoth(t *testing.T, reg *commut.Registry, build func() (*txn.System, []string)) bool {
	t.Helper()
	sys, order := build()
	got, err := sched.Analyze(sys, reg, order)
	if err != nil {
		t.Fatal(err)
	}
	sys, order = build()
	want, err := sched.ReferenceAnalyze(sys, reg, order)
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, got, want)
	return got.Check().SystemOOSerializable
}

// engineRegistry holds the specifications of the types in the B+-tree
// fixture, as a live engine registers them.
func engineRegistry() *commut.Registry {
	reg := commut.NewRegistry()
	reg.Register(core.PageType, core.PageSpec())
	reg.Register(btree.TreeType, btree.TreeSpec())
	reg.Register(btree.NodeType, btree.NodeSpec())
	return reg
}

// loadFixture reads testdata/distinct_key_inserts.trace.json: fifteen
// concurrent open-nested B+-tree inserts of distinct keys, captured with
// db.Trace().Marshal() from a run the checker rejected while the Definition
// 15 lift ignored the common object's specification. Every edge of the
// rejected cycle joined two t.insert actions with distinct keys.
func loadFixture(t *testing.T) trace.Trace {
	t.Helper()
	data, err := os.ReadFile("testdata/distinct_key_inserts.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDistinctKeyInsertsFixture: commuting callers on the common object
// absorb a lifted cross-object dependency, so the captured trace is
// oo-serializable for the batch and for the streaming checker.
func TestDistinctKeyInsertsFixture(t *testing.T) {
	tr := loadFixture(t)
	sys, order, err := tr.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sched.Analyze(sys, engineRegistry(), order)
	if err != nil {
		t.Fatal(err)
	}
	if rep := a.Check(); !rep.SystemOOSerializable || !rep.GlobalAcyclic {
		t.Errorf("batch checker rejects distinct-key inserts: cycle %v", rep.GlobalCycle)
	}

	on := sched.NewOnline(engineRegistry())
	for _, ev := range tr.Events {
		if err := on.Add(sched.StreamEvent{
			ID: ev.ID, Parent: ev.Parent, ObjType: ev.ObjType, ObjName: ev.ObjName,
			Method: ev.Method, Params: ev.Params, Parallel: ev.Parallel, Aborted: ev.Aborted,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !on.OK() {
		t.Errorf("online checker rejects distinct-key inserts: cycle %v", on.Violation())
	}
}

// randomSchedule builds 2–4 transactions as random call trees over at most
// three objects per type — encyclopedias calling trees and lists, those
// calling leaves and items, everything bottoming out in page primitives —
// and a random interleaving of the transactions' primitives.
func randomSchedule(r *rand.Rand) (*txn.System, []string) {
	nObj := 1 + r.Intn(3)
	obj := func(typ string) txn.OID {
		return txn.OID{Type: typ, Name: fmt.Sprintf("%s%d", typ, r.Intn(nObj))}
	}
	key := func() string { return fmt.Sprintf("k%d", r.Intn(3)) }
	pick := func(s ...string) string { return s[r.Intn(len(s))] }

	var tops []*txn.Action
	var prims [][]string // per transaction, in program order
	for i := 0; i < 2+r.Intn(3); i++ {
		b := txn.NewTransaction(fmt.Sprintf("T%d", i+1))
		var mine []string
		// grow adds one action at the given level under parent and recurses
		// into one or two lower levels; level 0 is a page access.
		var grow func(parent *txn.Action, level int)
		grow = func(parent *txn.Action, level int) {
			call := b.Call
			if parent != nil && r.Intn(6) == 0 {
				call = b.CallPar
			}
			var a *txn.Action
			switch level {
			case 0:
				a = call(parent, obj(paperex.TypePage), pick("read", "write"))
				mine = append(mine, a.ID)
				return
			case 1:
				if r.Intn(2) == 0 {
					a = call(parent, obj(paperex.TypeLeaf), pick("insert", "search", "delete"), key())
				} else {
					a = call(parent, obj(paperex.TypeItem), pick("read", "update"))
				}
			case 2:
				if r.Intn(2) == 0 {
					a = call(parent, obj(paperex.TypeTree), pick("insert", "search", "delete"), key())
				} else if r.Intn(3) == 0 {
					a = call(parent, obj(paperex.TypeList), "readSeq")
				} else {
					a = call(parent, obj(paperex.TypeList), "append", key())
				}
			default:
				if r.Intn(5) == 0 {
					a = call(parent, obj(paperex.TypeEnc), "readSeq")
				} else {
					a = call(parent, obj(paperex.TypeEnc), pick("insert", "search", "update"), key())
				}
			}
			for n := 1 + r.Intn(2); n > 0; n-- {
				grow(a, r.Intn(level))
			}
		}
		for n := 1 + r.Intn(2); n > 0; n-- {
			grow(nil, 1+r.Intn(3))
		}
		tops = append(tops, b.Build())
		prims = append(prims, mine)
	}

	var order []string
	for len(prims) > 0 {
		i := r.Intn(len(prims))
		order = append(order, prims[i][0])
		if prims[i] = prims[i][1:]; len(prims[i]) == 0 {
			prims = append(prims[:i], prims[i+1:]...)
		}
	}
	return txn.NewSystem(tops...), order
}

// TestDifferentialAgainstFixpoint compares Analyze with the algorithm it
// replaced on the paper's examples, the captured engine trace and random
// schedules of both verdicts.
func TestDifferentialAgainstFixpoint(t *testing.T) {
	for name, build := range map[string]func() (*txn.System, []string){
		"example1": paperex.Example1,
		"example4": paperex.Example4,
		"blink":    paperex.BLink,
	} {
		t.Run(name, func(t *testing.T) { analyzeBoth(t, paperex.Registry(), build) })
	}

	t.Run("fixture", func(t *testing.T) {
		tr := loadFixture(t)
		analyzeBoth(t, engineRegistry(), func() (*txn.System, []string) {
			sys, order, err := tr.ToSystem()
			if err != nil {
				t.Fatal(err)
			}
			return sys, order
		})
	})

	t.Run("random", func(t *testing.T) {
		accepted, rejected := 0, 0
		for seed := int64(0); seed < 300; seed++ {
			build := func() (*txn.System, []string) { return randomSchedule(rand.New(rand.NewSource(seed))) }
			if analyzeBoth(t, paperex.Registry(), build) {
				accepted++
			} else {
				rejected++
			}
			if t.Failed() {
				t.Fatalf("seed %d", seed)
			}
		}
		t.Logf("%d accepted, %d rejected", accepted, rejected)
		if accepted < 30 || rejected < 30 {
			t.Fatalf("%d accepted, %d rejected: the schedules exercise one verdict only", accepted, rejected)
		}
	})
}
