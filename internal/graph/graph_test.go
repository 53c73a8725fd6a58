package graph

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestAddAndQuery(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddNode("d")

	if got := g.Nodes(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("Nodes = %v", got)
	}
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") {
		t.Fatal("edge direction wrong")
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if got := g.Successors("a"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Successors(a) = %v", got)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("a", "b")
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
}

func TestTopoSortLinear(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	g := New()
	g.AddNode("c")
	g.AddNode("a")
	g.AddNode("b")
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v, want lexicographic", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	_, err := g.TopoSort()
	ce, ok := err.(*CycleError)
	if !ok {
		t.Fatalf("err = %v, want *CycleError", err)
	}
	if len(ce.Cycle) != 3 {
		t.Fatalf("cycle = %v, want 3 nodes", ce.Cycle)
	}
	// The witness must actually be a cycle in g.
	for i, n := range ce.Cycle {
		next := ce.Cycle[(i+1)%len(ce.Cycle)]
		if !g.HasEdge(n, next) {
			t.Fatalf("witness edge %s -> %s not in graph", n, next)
		}
	}
	if ce.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := New()
	g.AddEdge("a", "a")
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("self-loop should be a cycle")
	}
	cyc := g.FindCycle()
	if len(cyc) != 1 || cyc[0] != "a" {
		t.Fatalf("cycle = %v", cyc)
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "d")
	g.AddEdge("c", "d")
	if cyc := g.FindCycle(); cyc != nil {
		t.Fatalf("FindCycle on DAG = %v", cyc)
	}
	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("DAG reported cyclic: %v", err)
	}
}

func TestReachable(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddNode("d")
	if !g.Reachable("a", "c") {
		t.Fatal("a should reach c")
	}
	if g.Reachable("c", "a") {
		t.Fatal("c should not reach a")
	}
	if g.Reachable("a", "d") {
		t.Fatal("a should not reach d")
	}
	// Reachability is via non-empty paths: a node does not trivially reach
	// itself without a cycle.
	if g.Reachable("a", "a") {
		t.Fatal("a should not reach itself without a cycle")
	}
	g.AddEdge("c", "a")
	if !g.Reachable("a", "a") {
		t.Fatal("a should reach itself through the cycle")
	}
}

func nodeName(i int) string { return "n" + strconv.Itoa(i) }

func TestMerge(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	h := New()
	h.AddEdge("b", "c")
	h.AddNode("z")
	g.Merge(h)
	if !g.HasEdge("a", "b") || !g.HasEdge("b", "c") || len(g.Nodes()) != 4 {
		t.Fatalf("merge incomplete:\n%s", g)
	}
	if h.HasEdge("a", "b") {
		t.Fatal("merge mutated its argument")
	}
}

func TestString(t *testing.T) {
	g := New()
	g.AddEdge("b", "a")
	g.AddNode("c")
	want := "a -> \nb -> a\nc -> \n"
	if got := g.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// randomDAG builds a DAG by only adding edges from lower to higher indices.
func randomDAG(r *rand.Rand, n, m int) *Digraph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for k := 0; k < m; k++ {
		i := r.Intn(n)
		j := r.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		g.AddEdge(nodeName(i), nodeName(j))
	}
	return g
}

func TestPropertyTopoSortRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(40), r.Intn(120))
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[string]int, len(order))
		for i, n := range order {
			pos[n] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return len(order) == len(g.Nodes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCycleWitnessValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(nodeName(i))
		}
		for k := 0; k < r.Intn(30); k++ {
			g.AddEdge(nodeName(r.Intn(n)), nodeName(r.Intn(n)))
		}
		cyc := g.FindCycle()
		_, terr := g.TopoSort()
		if cyc == nil {
			return terr == nil
		}
		for i, node := range cyc {
			if !g.HasEdge(node, cyc[(i+1)%len(cyc)]) {
				return false
			}
		}
		return terr != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoSort(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := randomDAG(r, 1000, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}
