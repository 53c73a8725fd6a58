// Package graph provides a small directed-graph kernel used throughout the
// reproduction: dependency relations between actions and transactions are
// digraphs, and the serializability criteria of the paper (Definitions 13
// and 16) reduce to acyclicity tests on those digraphs.
//
// Nodes are identified by strings. The zero value of Digraph is not usable;
// construct one with New. Digraph is not safe for concurrent mutation; the
// concurrency-control runtime builds graphs under its own locks.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Digraph is a directed graph over string-identified nodes.
type Digraph struct {
	// succ maps a node to the set of its direct successors.
	succ map[string]map[string]bool
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{succ: make(map[string]map[string]bool)}
}

func (g *Digraph) ensure(n string) {
	if _, ok := g.succ[n]; !ok {
		g.succ[n] = make(map[string]bool)
	}
}

// AddNode inserts a node without edges. Adding an existing node is a no-op.
func (g *Digraph) AddNode(n string) {
	g.ensure(n)
}

// AddEdge inserts the directed edge from → to, creating nodes as needed.
// Self-loops are recorded (they make the graph cyclic).
func (g *Digraph) AddEdge(from, to string) {
	g.ensure(from)
	g.ensure(to)
	g.succ[from][to] = true
}

// Merge adds every node and edge of h to g.
func (g *Digraph) Merge(h *Digraph) {
	for from, tos := range h.succ {
		g.ensure(from)
		for to := range tos {
			g.AddEdge(from, to)
		}
	}
}

// HasEdge reports whether the edge from → to exists.
func (g *Digraph) HasEdge(from, to string) bool {
	return g.succ[from][to]
}

// Nodes returns all nodes in lexicographic order.
func (g *Digraph) Nodes() []string {
	out := make([]string, 0, len(g.succ))
	for n := range g.succ {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, tos := range g.succ {
		n += len(tos)
	}
	return n
}

// Successors returns the direct successors of n in lexicographic order.
func (g *Digraph) Successors(n string) []string {
	out := make([]string, 0, len(g.succ[n]))
	for to := range g.succ[n] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// Edges returns all edges as [from, to] pairs in lexicographic order.
func (g *Digraph) Edges() [][2]string {
	var out [][2]string
	for from, tos := range g.succ {
		for to := range tos {
			out = append(out, [2]string{from, to})
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

// CycleError is returned by TopoSort when the graph is cyclic. It carries
// one witness cycle so serializability violations can be reported usefully.
type CycleError struct {
	// Cycle lists the nodes of one directed cycle in order; the edge from
	// the last node back to the first closes the cycle.
	Cycle []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("graph contains a cycle: %s", strings.Join(e.Cycle, " -> "))
}

// FindCycle returns one directed cycle if the graph is cyclic, else nil.
func (g *Digraph) FindCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(g.succ))
	parent := make(map[string]string, len(g.succ))
	var cycle []string

	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = gray
		// Iterate successors deterministically so the witness is stable.
		for _, m := range g.Successors(n) {
			switch color[m] {
			case white:
				parent[m] = n
				if visit(m) {
					return true
				}
			case gray:
				// Found a back edge n -> m; unwind the gray path m..n.
				cycle = []string{m}
				for x := n; x != m; x = parent[x] {
					cycle = append(cycle, x)
				}
				// The path was collected tail-first; reverse all but the head.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}

	for _, n := range g.Nodes() {
		if color[n] == white {
			if visit(n) {
				return cycle
			}
		}
	}
	return nil
}

// TopoSort returns a topological order of the nodes, or a *CycleError if the
// graph is cyclic. Ties are broken lexicographically so the order is
// deterministic (useful for generating serial schedules in tests).
func (g *Digraph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.succ))
	for n := range g.succ {
		indeg[n] = 0
	}
	for _, tos := range g.succ {
		for to := range tos {
			indeg[to]++
		}
	}
	// Min-heap replaced by sorted frontier: graphs here are small enough
	// that re-sorting the frontier is fine and keeps this dependency-free.
	var frontier []string
	for n, d := range indeg {
		if d == 0 {
			frontier = append(frontier, n)
		}
	}
	sort.Strings(frontier)

	order := make([]string, 0, len(g.succ))
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		var released []string
		for to := range g.succ[n] {
			indeg[to]--
			if indeg[to] == 0 {
				released = append(released, to)
			}
		}
		if len(released) > 0 {
			frontier = append(frontier, released...)
			sort.Strings(frontier)
		}
	}
	if len(order) != len(g.succ) {
		cyc := g.FindCycle()
		return nil, &CycleError{Cycle: cyc}
	}
	return order, nil
}

// Reachable reports whether to is reachable from from by a non-empty path.
func (g *Digraph) Reachable(from, to string) bool {
	seen := make(map[string]bool)
	stack := []string{}
	for succ := range g.succ[from] {
		stack = append(stack, succ)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for succ := range g.succ[n] {
			if !seen[succ] {
				stack = append(stack, succ)
			}
		}
	}
	return false
}

// String renders the graph as "a -> b, c; d -> ;" lines, sorted, for
// debugging and golden tests.
func (g *Digraph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%s -> %s\n", n, strings.Join(g.Successors(n), ", "))
	}
	return b.String()
}
