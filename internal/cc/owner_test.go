package cc

import (
	"errors"
	"fmt"
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
// transaction does, a hand-up moves a child's grants and handles to its
// parent, and an aborted subtree's list release drops exactly its grants.
func TestNodeOwnersShareTheTransaction(t *testing.T) {
	lm := NewLockManager(WithWaitTimeout(20 * time.Millisecond))
	root := begin(lm, "T1")
	child := root.child(1)
	grand, sibling := child.child(2), child.child(3)
	a, b := res("A"), res("B")
	for _, o := range []*act{grand, sibling, child, root} {
		if err := o.acquire(a, X); err != nil {
			t.Fatalf("%s: %v", o.owner(), err)
		}
	}
	other := NodeOwner("T2", &grand.node) // another transaction on the same node
	if _, err := lm.AcquireOwner(nil, grand, other, a, X); !errors.Is(err, ErrTimeout) {
		t.Fatalf("another transaction's acquire = %v, want ErrTimeout", err)
	}
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1 T1.1.2 T1.1.3" {
		t.Fatalf("holders of A = %s", got)
	}
	grand.handUp()
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1 T1.1.3" {
		t.Fatalf("holders of A after the hand-up = %s", got)
	}
	if err := grand.acquire(b, S); err != nil {
		t.Fatal(err)
	}
	sibling.release()
	if got := strings.Join(lm.Holders(a), " "); got != "T1 T1.1" {
		t.Fatalf("holders of A after releasing T1.1.3 = %s", got)
	}
	grand.handUp()
	child.release()
	if got := strings.Join(lm.Holders(a), " ") + "|" + strings.Join(lm.Holders(b), " "); got != "T1|" {
		t.Fatalf("holders after releasing T1.1 = %s", got)
	}
	root.end()
	if lm.HoldsAny("T1") {
		t.Fatal("the root's list release left a grant of T1")
	}
}

// TestStaleReleaseHeldOnRecycledNode: the engine reuses an ended
// transaction's action records, and with them the nodes its lock owners
// point to. A list release that the ended transaction still issues — a
// handle released twice, DESIGN §4b.4, here the whole list of its root and
// of its aborted subtree — must not release the grants a later
// transaction holds on the same states through the same nodes: the owners
// differ in their root ids, which are never reused.
func TestStaleReleaseHeldOnRecycledNode(t *testing.T) {
	lm := NewLockManager(WithShards(1))
	nodes := tree(1)
	a, b := res("A"), res("B")
	oldRoot, oldChild := NodeOwner("T1", nodes[0]), NodeOwner("T1", nodes[1])
	hb1, err := lm.AcquireOwner(nil, ownerReq(oldRoot), oldRoot, b, X)
	if err != nil {
		t.Fatal(err)
	}
	ha1, err := lm.AcquireOwner(nil, ownerReq(oldChild), oldChild, a, X)
	if err != nil {
		t.Fatal(err)
	}
	rootList, childList := []*Held{hb1}, []*Held{ha1}
	release := func(held []*Held, o Owner) {
		for _, h := range held {
			lm.ReleaseHeldOwner(h, o)
		}
	}
	release(childList, oldChild) // the subtree aborts
	release(rootList, oldRoot)   // the transaction ends
	lm.Forget("T1")

	for _, nd := range nodes { // recycled, then reused at the same places
		*nd = Node{}
	}
	nodes[1].SetChild(nodes[0], 1)
	curRoot, curChild := NodeOwner("T2", nodes[0]), NodeOwner("T2", nodes[1])
	hb2, err := lm.AcquireOwner(nil, ownerReq(curRoot), curRoot, b, X)
	if err != nil {
		t.Fatal(err)
	}
	ha2, err := lm.AcquireOwner(nil, ownerReq(curChild), curChild, a, X)
	if err != nil {
		t.Fatal(err)
	}
	if hb2 != hb1 || ha2 != ha1 {
		t.Fatal("the later grants must sit on the recycled states for this test")
	}
	release(childList, oldChild)
	release(rootList, oldRoot)
	if got := fmt.Sprint(lm.Holders(a), lm.Holders(b)); got != "[T2.1] [T2]" {
		t.Fatalf("holders of A and B after the stale releases = %s, want [T2.1] [T2]", got)
	}
	release([]*Held{ha2}, curChild)
	release([]*Held{hb2}, curRoot)
	if tbl := lm.String(); tbl != "" {
		t.Fatalf("locks left after T2's releases:\n%s", tbl)
	}
}

// TestStringAdapterAllocs: the string-owner calls wrap their owner in an
// Owner value, so an uncontended acquire and release through them
// allocates nothing; neither does the engine's path by handle — acquire,
// hand-up, the root's release and the detector's cleanup.
func TestStringAdapterAllocs(t *testing.T) {
	lm := NewLockManager()
	r := res("P")
	byKey := testing.AllocsPerRun(200, func() {
		if err := lm.Acquire("T1", r, X); err != nil {
			t.Fatal(err)
		}
		lm.Release("T1", r)
	})
	t1 := begin(lm, "T1")
	t12 := t1.child(2)
	root, child := t1.owner(), t12.owner()
	held := make([]*Held, 1)
	byHandle := testing.AllocsPerRun(200, func() {
		h, err := lm.AcquireOwner(nil, t12, child, r, X)
		if err != nil {
			t.Fatal(err)
		}
		held[0] = h
		lm.TransferOwner(held, child, root)
		lm.ReleaseHeldOwner(h, root)
		lm.Forget("T1")
	})
	if byKey != 0 || byHandle != 0 {
		t.Fatalf("string adapter = %.1f allocs by key, %.1f by handle; want 0", byKey, byHandle)
	}
}
