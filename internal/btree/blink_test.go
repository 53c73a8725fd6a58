package btree

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/commut"
	"repro/internal/core"
)

// TestBLinkRedirectAfterSplit drives the B-link path directly: split a
// leaf via the node methods, then route/search for a moved key against the
// STALE (left) page and verify the moved|<pid> redirect chain works.
func TestBLinkRedirectAfterSplit(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 2)

	// Three inserts overflow the single root leaf (maxKeys=2 splits on the
	// third) — capture the original root page id first.
	origRoot := tr.root
	for _, k := range []string{"a1", "b1", "c1"} {
		runOne(t, db, tr.OID(), "insert", k, "v-"+k)
	}
	if tr.Height() < 2 {
		t.Fatalf("expected a root split, height = %d", tr.Height())
	}

	// The original root page is now the LEFT leaf. Searching a key that
	// moved right through the stale page must return moved|<pid>.
	tx := db.Begin()
	res, err := tx.Exec(m.nodeOID(origRoot), "search", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res, "moved|") {
		t.Fatalf("stale-leaf search = %q, want moved|...", res)
	}
	nextPID, err := parsePID(strings.TrimPrefix(res, "moved|"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tx.Exec(m.nodeOID(nextPID), "search", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if res2 != "val|v-c1" {
		t.Fatalf("redirected search = %q", res2)
	}
	// Inserting through the stale leaf also redirects.
	res3, err := tx.Exec(m.nodeOID(origRoot), "insert", "c2", "v", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res3, "moved|") {
		t.Fatalf("stale-leaf insert = %q, want moved|...", res3)
	}
	// And deleting.
	res4, err := tx.Exec(m.nodeOID(origRoot), "delete", "c1", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res4, "moved|") {
		t.Fatalf("stale-leaf delete = %q, want moved|...", res4)
	}
	_ = tx.Commit()
}

// TestMultipleTreesIndependent: two trees in one DB share the node/page
// types but none of the state.
func TestMultipleTreesIndependent(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	t1, err := m.NewTree("one", 4)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.NewTree("two", 4)
	if err != nil {
		t.Fatal(err)
	}
	runOne(t, db, t1.OID(), "insert", "k", "in-one")
	runOne(t, db, t2.OID(), "insert", "k", "in-two")
	if got := runOne(t, db, t1.OID(), "search", "k"); got != "in-one" {
		t.Fatalf("tree one: %q", got)
	}
	if got := runOne(t, db, t2.OID(), "search", "k"); got != "in-two" {
		t.Fatalf("tree two: %q", got)
	}
	if got := runOne(t, db, t1.OID(), "delete", "k"); got != "in-one" {
		t.Fatalf("delete from one: %q", got)
	}
	if got := runOne(t, db, t2.OID(), "search", "k"); got != "in-two" {
		t.Fatalf("tree two affected by tree one delete: %q", got)
	}
}

// TestDeepTreeRangeIntegrity: a three-plus-level tree routes every key
// correctly (separator handling through inner splits, promoted keys).
func TestDeepTreeRangeIntegrity(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("deep", 2) // tiny fanout: maximum structural churn
	const n = 200
	for i := 0; i < n; i++ {
		// Insert in an order that alternates ends to exercise both split
		// directions.
		var k string
		if i%2 == 0 {
			k = fmt.Sprintf("k%04d", i/2)
		} else {
			k = fmt.Sprintf("k%04d", n-1-i/2)
		}
		runOne(t, db, tr.OID(), "insert", k, "v")
	}
	if tr.Height() < 4 {
		t.Fatalf("height = %d, want >= 4 with fanout 2 and %d keys", tr.Height(), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		if got := runOne(t, db, tr.OID(), "search", k); got != "v" {
			t.Fatalf("lost key %s after deep splits", k)
		}
	}
	keys := scanKeys(runOne(t, db, tr.OID(), "scan"))
	if len(keys) != n {
		t.Fatalf("scan found %d keys, want %d", len(keys), n)
	}
}

// TestScanBlocksBehindInsertAtTreeLevel: the tree-level semantic spec
// makes scan conflict with insert, so a scan waits for an insert's commit.
func TestScanBlocksBehindInsertAtTreeLevel(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 8)
	runOne(t, db, tr.OID(), "insert", "a", "v")

	t1 := db.Begin()
	if _, err := t1.Exec(tr.OID(), "insert", "b", "v"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		t2 := db.Begin()
		_, err := t2.Exec(tr.OID(), "scan")
		if err == nil {
			err = t2.Commit()
		} else {
			_ = t2.Abort()
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("scan must block behind an uncommitted insert")
	case <-time.After(80 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNodeSpecStructuralOps: routing commutes with splits (B-link safety),
// structural posts of the same separator conflict, leaf scans conflict
// with mutators.
func TestNodeSpecStructuralOps(t *testing.T) {
	spec := NodeSpec()
	iv := func(m string, ps ...string) commut.Invocation {
		return commut.Invocation{Method: m, Params: ps}
	}
	if !spec.Commutes(iv("route", "k"), iv("insert", "k", "v", "4")) {
		t.Fatal("route must commute with insert (B-link safety)")
	}
	if !spec.Commutes(iv("route", "k"), iv("insertChild", "s", "9", "4")) {
		t.Fatal("route must commute with insertChild (B-link safety)")
	}
	if spec.Commutes(iv("insertChild", "s1", "9", "4"), iv("insertChild", "s1", "8", "4")) {
		t.Fatal("same-separator insertChild must conflict")
	}
	if !spec.Commutes(iv("insertChild", "s1", "9", "4"), iv("insertChild", "s2", "8", "4")) {
		t.Fatal("distinct-separator insertChild must commute")
	}
	if spec.Commutes(iv("scanLeaf"), iv("insert", "k", "v", "4")) {
		t.Fatal("scanLeaf must conflict with insert")
	}
}
