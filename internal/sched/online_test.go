package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/paperex"
	"repro/internal/trace"
	"repro/internal/txn"
)

// feed converts a formal system + primitive order into the event stream an
// engine would emit: each primitive at its execution position, preceded by
// those of its ancestors that were not dispatched yet. Every prefix ending
// in a primitive is therefore a transaction system of its own.
func feed(sys *txn.System, order []string) []StreamEvent {
	var evs []StreamEvent
	seen := map[*txn.Action]bool{}
	var emit func(a *txn.Action)
	emit = func(a *txn.Action) {
		if seen[a] {
			return
		}
		seen[a] = true
		parent := ""
		if a.Parent != nil {
			emit(a.Parent)
			parent = a.Parent.ID
		}
		evs = append(evs, StreamEvent{
			ID: a.ID, Parent: parent,
			ObjType: a.Msg.Object.Type, ObjName: a.Msg.Object.Name,
			Method: a.Msg.Inv.Method, Params: a.Msg.Inv.Params,
			Parallel: a.Parent != nil && a.Process == a.ID,
		})
	}
	for _, id := range order {
		emit(findAction(sys, id))
	}
	return evs
}

// matchesBatch reports how the relations Online holds after consuming evs
// differ from those Analyze computes for the system evs describe, or "".
func matchesBatch(on *Online, evs []StreamEvent) string {
	var tr trace.Trace
	for i, ev := range evs {
		tr.Events = append(tr.Events, trace.Event{
			ID: ev.ID, Parent: ev.Parent, ObjType: ev.ObjType, ObjName: ev.ObjName,
			Method: ev.Method, Params: ev.Params, Parallel: ev.Parallel, Seq: i,
		})
	}
	sys, order, err := tr.ToSystem()
	if err != nil {
		return err.Error()
	}
	batch, err := Analyze(sys, on.deps.reg, order)
	if err != nil {
		return err.Error()
	}
	edges := func(g *graph.Digraph) [][2]string {
		if g == nil {
			return nil
		}
		return g.Edges()
	}
	for _, o := range batch.Objects() {
		for _, rel := range []struct {
			name          string
			online, batch *graph.Digraph
		}{
			{"ActDep", on.ActDeps(o), batch.ActDep[o]},
			{"TranDep", on.TranDeps(o), batch.TranDep[o]},
			{"Added", on.deps.added[o], batch.Added[o]},
		} {
			if got, want := edges(rel.online), edges(rel.batch); !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("after %d events, %s[%s]: online %v, batch %v", len(evs), rel.name, o.Name, got, want)
			}
		}
	}
	if got, want := on.OK(), batch.Check().GlobalAcyclic; got != want {
		return fmt.Sprintf("after %d events: online OK=%v, batch GlobalAcyclic=%v", len(evs), got, want)
	}
	return ""
}

func findAction(sys *txn.System, id string) *txn.Action {
	a := sys.Find(id)
	if a == nil {
		panic("unknown action " + id)
	}
	return a
}

func TestOnlineMatchesBatchOnExamples(t *testing.T) {
	for name, build := range map[string]func() (*txn.System, []string){
		"example1": paperex.Example1,
		"example4": paperex.Example4,
	} {
		t.Run(name, func(t *testing.T) {
			sys, order := build()
			batch := mustAnalyze(t, sys, paperex.Registry(), order)
			batchOK := batch.Check().SystemOOSerializable

			sys2, order2 := build()
			on := NewOnline(paperex.Registry())
			evs := feed(sys2, order2)
			for i, ev := range evs {
				if err := on.Add(ev); err != nil {
					t.Fatal(err)
				}
				if ev.ObjType != paperex.TypePage {
					continue
				}
				if diff := matchesBatch(on, evs[:i+1]); diff != "" {
					t.Fatal(diff)
				}
			}
			if on.OK() != batchOK {
				t.Fatalf("online=%v batch=%v", on.OK(), batchOK)
			}
		})
	}
}

func TestOnlineDetectsViolationEarly(t *testing.T) {
	leafA := txn.OID{Type: paperex.TypeLeaf, Name: "LeafA"}
	leafB := txn.OID{Type: paperex.TypeLeaf, Name: "LeafB"}
	pageA := txn.OID{Type: paperex.TypePage, Name: "PageA"}
	pageB := txn.OID{Type: paperex.TypePage, Name: "PageB"}

	t1 := txn.NewTransaction("T1")
	ia1 := t1.Call(nil, leafA, "insert", "kA")
	wa1 := t1.Call(ia1, pageA, "write")
	sb1 := t1.Call(nil, leafB, "search", "kB")
	rb1 := t1.Call(sb1, pageB, "read")

	t2 := txn.NewTransaction("T2")
	ib2 := t2.Call(nil, leafB, "insert", "kB")
	wb2 := t2.Call(ib2, pageB, "write")
	sa2 := t2.Call(nil, leafA, "search", "kA")
	ra2 := t2.Call(sa2, pageA, "read")

	sys := txn.NewSystem(t1.Build(), t2.Build())
	order := []string{wa1.ID, wb2.ID, rb1.ID, ra2.ID}

	on := NewOnline(paperex.Registry())
	evs := feed(sys, order)
	var violatedAt int = -1
	for i, ev := range evs {
		if err := on.Add(ev); err != nil {
			t.Fatal(err)
		}
		if !on.OK() && violatedAt < 0 {
			violatedAt = i
		}
	}
	if violatedAt < 0 {
		t.Fatal("online certifier missed the same-key cycle")
	}
	// The violation fires at the closing primitive, not at the end.
	if violatedAt != len(evs)-1 {
		t.Logf("violation detected at event %d of %d", violatedAt, len(evs))
	}
	if len(on.Violation()) == 0 {
		t.Fatal("no witness")
	}
}

func TestOnlineStreamValidation(t *testing.T) {
	on := NewOnline(paperex.Registry())
	if err := on.Add(StreamEvent{ID: "T1.1", Parent: "T1", ObjType: "page", ObjName: "P", Method: "read"}); err == nil {
		t.Fatal("orphan must fail")
	}
	if err := on.Add(StreamEvent{ID: "T1", ObjType: "system", ObjName: "S", Method: "T1"}); err != nil {
		t.Fatal(err)
	}
	if err := on.Add(StreamEvent{ID: "T1", ObjType: "system", ObjName: "S", Method: "T1"}); err == nil {
		t.Fatal("duplicate must fail")
	}
	// Call cycle (ancestor object revisited) is rejected with a pointer to
	// the batch checker.
	if err := on.Add(StreamEvent{ID: "T1.1", Parent: "T1", ObjType: "node", ObjName: "N", Method: "insert"}); err != nil {
		t.Fatal(err)
	}
	if err := on.Add(StreamEvent{ID: "T1.1.1", Parent: "T1.1", ObjType: "node", ObjName: "N", Method: "rearrange"}); err == nil {
		t.Fatal("call cycle must be rejected")
	}
	// Aborted events are skipped silently.
	if err := on.Add(StreamEvent{ID: "T9", ObjType: "system", ObjName: "S", Method: "T9", Aborted: true}); err != nil {
		t.Fatal(err)
	}
	if on.ActDeps(txn.OID{Type: "page", Name: "P"}) != nil {
		t.Fatal("no deps expected yet")
	}
}

// TestOnlineAbortedSubtreeSkipped: descendants of an aborted action are
// part of the rolled-back subtree and must be skipped silently, not fail
// the "action before its parent" stream check.
func TestOnlineAbortedSubtreeSkipped(t *testing.T) {
	on := NewOnline(paperex.Registry())
	if err := on.Add(StreamEvent{ID: "T9", ObjType: "system", ObjName: "S", Method: "T9", Aborted: true}); err != nil {
		t.Fatal(err)
	}
	// Child and grandchild of the aborted root arrive without the Aborted
	// flag (e.g. the recorder marked only the subtree root): both skipped.
	if err := on.Add(StreamEvent{ID: "T9.1", Parent: "T9", ObjType: "node", ObjName: "N", Method: "insert"}); err != nil {
		t.Fatalf("child of aborted parent: %v", err)
	}
	if err := on.Add(StreamEvent{ID: "T9.1.1", Parent: "T9.1", ObjType: "page", ObjName: "P", Method: "write"}); err != nil {
		t.Fatalf("grandchild of aborted parent: %v", err)
	}
	if !on.OK() {
		t.Fatal("aborted subtree must not affect the verdict")
	}
	// The skipped subtree left no dependency state behind.
	if on.ActDeps(txn.OID{Type: "page", Name: "P"}) != nil {
		t.Fatal("aborted writes must not create dependencies")
	}
	// A live transaction on the same objects still certifies normally.
	if err := on.Add(StreamEvent{ID: "T10", ObjType: "system", ObjName: "S", Method: "T10"}); err != nil {
		t.Fatal(err)
	}
	if err := on.Add(StreamEvent{ID: "T10.1", Parent: "T10", ObjType: "page", ObjName: "P", Method: "write"}); err != nil {
		t.Fatal(err)
	}
	if !on.OK() {
		t.Fatal("live traffic after an aborted subtree must validate")
	}
	// An orphan whose parent never appeared still fails.
	if err := on.Add(StreamEvent{ID: "T11.1", Parent: "T11", ObjType: "page", ObjName: "P", Method: "read"}); err == nil {
		t.Fatal("orphan with unknown (non-aborted) parent must fail")
	}
}

// Property: on random extension-free systems, after every primitive the
// online relations equal the batch relations of the prefix, and the final
// online verdict matches the batch verdict.
func TestPropertyOnlineMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tops []*txn.Action
		var prim []*txn.Action
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			b := txn.NewTransaction(fmt.Sprintf("T%d", i+1))
			for j := 0; j < 1+r.Intn(3); j++ {
				k := fmt.Sprintf("k%d", r.Intn(3))
				method := []string{"insert", "search"}[r.Intn(2)]
				e := b.Call(nil, paperex.Enc, method, k)
				l := b.Call(e, paperex.Leaf11, method, k)
				pg := txn.OID{Type: paperex.TypePage, Name: fmt.Sprintf("P%d", r.Intn(2))}
				how := "write"
				if method == "search" {
					how = "read"
				}
				prim = append(prim, b.Call(l, pg, how))
			}
			tops = append(tops, b.Build())
		}
		// Random interleaving of the primitives.
		r.Shuffle(len(prim), func(i, j int) { prim[i], prim[j] = prim[j], prim[i] })
		order := make([]string, len(prim))
		for i, p := range prim {
			order[i] = p.ID
		}
		sys := txn.NewSystem(tops...)

		batch, err := Analyze(sys, paperex.Registry(), order)
		if err != nil {
			return false
		}
		batchOK := batch.Check().SystemOOSerializable

		on := NewOnline(paperex.Registry())
		evs := feed(sys, order)
		for i, ev := range evs {
			if err := on.Add(ev); err != nil {
				return false
			}
			if ev.ObjType != paperex.TypePage {
				continue
			}
			if diff := matchesBatch(on, evs[:i+1]); diff != "" {
				t.Log(diff)
				return false
			}
		}
		return on.OK() == batchOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOnlineAdd(b *testing.B) {
	reg := paperex.Registry()
	sys, order := paperex.Example4()
	evs := feed(sys, order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on := NewOnline(reg)
		for _, ev := range evs {
			if err := on.Add(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestOnlinePruneAborted: the aborted set has no automatic expiry (the
// stream carries no end-of-subtree marker), so callers bound it with
// PruneAborted once a subtree's events can no longer arrive; a pruned
// subtree's late descendants revert to the unknown-parent error.
func TestOnlinePruneAborted(t *testing.T) {
	on := NewOnline(paperex.Registry())
	if err := on.Add(StreamEvent{ID: "T9", ObjType: "system", ObjName: "S", Method: "T9", Aborted: true}); err != nil {
		t.Fatal(err)
	}
	if err := on.Add(StreamEvent{ID: "T9.1", Parent: "T9", ObjType: "node", ObjName: "N", Method: "insert"}); err != nil {
		t.Fatal(err)
	}
	if len(on.aborted) != 2 {
		t.Fatalf("aborted set = %v, want the root and its child", on.aborted)
	}
	on.PruneAborted("T9", "T9.1")
	if len(on.aborted) != 0 {
		t.Fatalf("aborted set = %v after pruning, want empty", on.aborted)
	}
	if err := on.Add(StreamEvent{ID: "T9.2", Parent: "T9", ObjType: "page", ObjName: "P", Method: "read"}); err == nil {
		t.Fatal("descendant arriving after its subtree was pruned must fail the stream check")
	}
}
