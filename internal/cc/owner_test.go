package cc

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/span"
)

// tree builds a chain of nodes below a root: nodes[0] is the root and
// nodes[i] is child number nums[i-1] of nodes[i-1].
func tree(nums ...int32) []*Node {
	nodes := []*Node{{}}
	for _, n := range nums {
		nd := &Node{}
		nd.SetChild(nodes[len(nodes)-1], n)
		nodes = append(nodes, nd)
	}
	return nodes
}

// TestOwnerRendersHierarchicalID: a node owner renders the dotted id its
// string form would have, at any depth (past the renderer's stack buffers
// and a span path's inline array too), and a span path made from it
// renders the same id.
func TestOwnerRendersHierarchicalID(t *testing.T) {
	for _, depth := range []int{0, 1, 3, 8, 9, 16, 17, 40} {
		nums := make([]int32, depth)
		want := "T12"
		for i := range nums {
			nums[i] = int32(i*37 + 1)
			want += "." + strconv.Itoa(int(nums[i]))
		}
		nodes := tree(nums...)
		o := NodeOwner("T12", nodes[depth])
		if got := o.String(); got != want {
			t.Fatalf("depth %d: String = %q, want %q", depth, got, want)
		}
		if o.Root() != "T12" || o.node.Depth() != int32(depth) {
			t.Fatalf("depth %d: Root %q, Depth %d", depth, o.Root(), o.node.Depth())
		}
		if depth == 0 {
			continue
		}
		tr := span.New()
		tt := tr.BeginTxn("T12", time.Now())
		var m span.Method
		tt.BeginMethod(&m)
		m.End(nodeDispatch{nodes[depth]}, nil)
		sp := tt.Snapshot().Spans[1]
		if sp.ID != want || sp.Parent != want[:strings.LastIndexByte(want, '.')] {
			t.Fatalf("depth %d: span %s under %s, want %s", depth, sp.ID, sp.Parent, want)
		}
	}
}

// nodeDispatch is a dispatch named by a node of transaction T12's tree.
type nodeDispatch struct{ nd *Node }

func (d nodeDispatch) Dispatch() (span.Path, string, string) { return d.nd.Path("T12"), "O", "m" }

// TestNodeOwnersShareTheTransaction: node owners of one transaction never
// block each other (siblings, ancestors), a node owner of another
// transaction does, a transfer moves a child's grant to its parent, and a
// subtree release drops exactly the subtree's grants.
func TestNodeOwnersShareTheTransaction(t *testing.T) {
	lm := NewLockManager(WithWaitTimeout(20 * time.Millisecond))
	t1 := tree(1, 2)
	sib := &Node{}
	sib.SetChild(t1[1], 3)
	root, child, grand := NodeOwner("T1", t1[0]), NodeOwner("T1", t1[1]), NodeOwner("T1", t1[2])
	sibling := NodeOwner("T1", sib)
	a, b := res("A"), res("B")
	for _, o := range []Owner{grand, sibling, child, root} {
		if _, err := lm.AcquireOwner(nil, ActionID(o.String()), o, a, X); err != nil {
			t.Fatalf("%s: %v", o, err)
		}
	}
	other := NodeOwner("T2", t1[2]) // another transaction on the same node
	if _, err := lm.AcquireOwner(nil, ActionID("T2.1.2"), other, a, X); !errors.Is(err, ErrTimeout) {
		t.Fatalf("another transaction's acquire = %v, want ErrTimeout", err)
	}
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1 T1.1.2 T1.1.3" {
		t.Fatalf("holders of A = %s", got)
	}
	lm.TransferOwner(grand, child)
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1 T1.1.3" {
		t.Fatalf("holders of A after the transfer = %s", got)
	}
	if _, err := lm.AcquireOwner(nil, ActionID("T1.1.2"), grand, b, S); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseSubtree(sibling)
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1" {
		t.Fatalf("holders of A after releasing T1.1.3 = %s", got)
	}
	lm.ReleaseSubtree(child)
	if got := strings.Join(lm.Holders(a), " ") + "|" + strings.Join(lm.Holders(b), " "); got != "T1|" {
		t.Fatalf("holders after releasing T1.1 = %s", got)
	}
	lm.ReleaseTree("T1")
	if lm.HoldsAny("T1") {
		t.Fatal("ReleaseTree left a grant of T1")
	}
}

// TestStaleReleaseHeldOnRecycledNode: the engine reuses an ended
// transaction's action records, and with them the nodes its lock owners
// point to. A ReleaseHeld that the ended transaction still issues — a
// handle released twice, DESIGN §4b.4 — must not release the grant a later
// transaction holds on the same state through the same node: the owners
// differ in their root ids, which are never reused.
func TestStaleReleaseHeldOnRecycledNode(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	nodes := tree(1)
	a := res("A")
	old := NodeOwner("T1", nodes[1])
	h1, err := lm.AcquireOwner(nil, ActionID("T1.1"), old, a, X)
	if err != nil {
		t.Fatal(err)
	}
	lm.ReleaseHeldOwner(h1, old)
	lm.ReleaseTree("T1")

	*nodes[1] = Node{} // recycled, then reused at the same place
	nodes[1].SetChild(nodes[0], 1)
	cur := NodeOwner("T2", nodes[1])
	h2, err := lm.AcquireOwner(nil, ActionID("T2.1"), cur, a, X)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatal("the later grant must sit on the recycled state for this test")
	}
	lm.ReleaseHeldOwner(h1, old)
	lm.ReleaseSubtree(old)
	if got := lm.Holders(a); len(got) != 1 || got[0] != "T2.1" {
		t.Fatalf("holders after the stale releases = %v, want [T2.1]", got)
	}
	lm.ReleaseHeldOwner(h2, cur)
	if got := lm.Holders(a); len(got) != 0 {
		t.Fatalf("holders after T2.1's release = %v", got)
	}
}

// TestStringAdapterAllocs: the string-owner calls wrap their owner in an
// Owner value, so an uncontended acquire and release through them, by key
// or by handle, allocates nothing.
func TestStringAdapterAllocs(t *testing.T) {
	lm := NewLockManager()
	r := res("P")
	byKey := testing.AllocsPerRun(200, func() {
		if err := lm.Acquire("T1.2", r, X); err != nil {
			t.Fatal(err)
		}
		lm.Release("T1.2", r)
	})
	byHandle := testing.AllocsPerRun(200, func() {
		h, err := lm.AcquireTraced(nil, ActionID("T1.2"), "T1.2", r, X)
		if err != nil {
			t.Fatal(err)
		}
		lm.ReleaseHeld(h, "T1.2")
		lm.TransferToParent("T1.2", "T1")
		lm.ReleaseTree("T1")
	})
	if byKey != 0 || byHandle != 0 {
		t.Fatalf("string adapter = %.1f allocs by key, %.1f by handle; want 0", byKey, byHandle)
	}
}
