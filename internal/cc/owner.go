package cc

import (
	"math"
	"slices"

	"repro/internal/span"
)

// Node is an owner's place in its transaction's action tree (the paper's
// call tree, Definitions 2–4): its parent's node and its child number. A
// zero Node is a tree's root. The engine embeds one in each action record,
// so naming an action as a lock owner allocates nothing, and its id is
// rendered only where something reads it. A node also keeps the child
// numbers from the root down to it while they fit a span path inline, so a
// dispatch's span copies its path and nothing walks the tree for it.
//
// A node's fields are set once, by SetChild, before the node owns anything
// or is visible to another goroutine, and they do not change while it owns
// anything. Goroutines that render or compare another transaction's owner
// (a blocked acquire naming its blockers, the timeout message, the table's
// rendering) read only these fields and the owner's root id.
type Node struct {
	parent *Node
	n      int32 // child number under parent
	depth  int32 // 0 for the root
	// steps are the child numbers from the root down while the path fits
	// inline; steps[0] is 0, which no child number is, once it does not.
	steps span.Steps
}

// SetChild places nd as child number n of parent.
func (nd *Node) SetChild(parent *Node, n int32) {
	nd.parent, nd.n, nd.depth = parent, n, parent.depth+1
	nd.steps = parent.steps
	if d := int(nd.depth); d > len(nd.steps) || n > math.MaxUint16 || d > 1 && nd.steps[0] == 0 {
		nd.steps[0] = 0
	} else {
		nd.steps[d-1] = uint16(n)
	}
}

// Depth returns nd's nesting depth below its root (the root's is 0).
func (nd *Node) Depth() int32 { return nd.depth }

// Steps returns the child numbers from the root down to nd and their
// number, and whether they fit inline: a log record names the action by
// them without rendering its id.
func (nd *Node) Steps() (steps span.Steps, depth int, inline bool) {
	return nd.steps, int(nd.depth), nd.inline()
}

// inline reports whether steps hold nd's whole path.
func (nd *Node) inline() bool { return nd.depth == 0 || nd.steps[0] != 0 }

// appendPath appends the child numbers from the root down to nd.
func (nd *Node) appendPath(dst []int32) []int32 {
	i := len(dst) + int(nd.depth)
	dst = slices.Grow(dst, int(nd.depth))[:i]
	for ; nd.parent != nil; nd = nd.parent {
		i--
		dst[i] = nd.n
	}
	return dst
}

// appendID appends nd's id below top-level transaction root.
func (nd *Node) appendID(dst []byte, root string) []byte {
	if nd.inline() {
		return nd.steps.AppendID(dst, root, int(nd.depth))
	}
	var pb [32]int32
	return span.AppendID(dst, root, nd.appendPath(pb[:0]))
}

// Path returns nd's place in the tree of top-level transaction root by
// value, as a dispatch's span keeps it.
func (nd *Node) Path(root string) span.Path {
	if nd.inline() {
		return span.InlinePath(nd.steps, int(nd.depth))
	}
	return span.RenderedPath(string(nd.appendID(nil, root)))
}

// Owner names the holder of a lock. A node owner names a node of a
// transaction's action tree: the never-reused id of the top-level
// transaction, and the node. Two owners are the same owner iff they are
// equal (==), and the same transaction iff their Root()s are equal, so the
// lock manager compares owners without rendering them. Because the root
// id is part of the value, an owner never equals the owner of an ended
// transaction whose node record was reused.
//
// A string owner (Acquire and Release) is a top-level transaction's id
// such as "T3". It is of the same transaction as the node owners of that
// id, but never the same owner as one of them.
type Owner struct {
	id   string // the top-level transaction's id
	node *Node
}

// NodeOwner names node nd of the tree of top-level transaction root.
func NodeOwner(root string, nd *Node) Owner { return Owner{id: root, node: nd} }

// Root returns the top-level transaction id: the deadlock-detection
// granule.
func (o Owner) Root() string { return o.id }

// String renders the owner's hierarchical id: the root id, then "." and
// each child number down to the node (span.AppendID). A root node renders
// without allocating.
func (o Owner) String() string {
	if o.node == nil || o.node.depth == 0 {
		return o.id
	}
	var b [64]byte
	return string(o.node.appendID(b[:0], o.id))
}
