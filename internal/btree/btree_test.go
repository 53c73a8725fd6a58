package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

func newDB(t testing.TB, p core.ProtocolKind) (*core.DB, *Module) {
	t.Helper()
	db := core.Open(core.Options{Protocol: p, LockTimeout: 5 * time.Second})
	m, err := Install(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

// runOne executes a single-op transaction. Page-level and closed-nested
// locking deadlock on concurrent inserts (the paper's premise), so victims
// restart with backoff like every workload does; the attempt bound still
// fails a livelock. It reports with Errorf because workers call it.
func runOne(t testing.TB, db *core.DB, obj txn.OID, method string, params ...string) string {
	t.Helper()
	var res string
	err := db.RunWithRetry(core.RetryPolicy{MaxAttempts: 200}, func(tx *core.Txn) (err error) {
		res, err = tx.Exec(obj, method, params...)
		return err
	})
	if err != nil {
		t.Errorf("%s.%s%v failed: %v", obj.Name, method, params, err)
	}
	return res
}

func TestInstallTwiceFails(t *testing.T) {
	db, _ := newDB(t, core.ProtocolOpenNested)
	if _, err := Install(db); err == nil {
		t.Fatal("double install must fail")
	}
}

func TestNewTreeValidation(t *testing.T) {
	_, m := newDB(t, core.ProtocolOpenNested)
	if _, err := m.NewTree("ok", 1); err == nil {
		t.Fatal("maxKeys < 2 must fail")
	}
	if _, err := m.NewTree("bad|name", 4); !errors.Is(err, ErrBadKey) {
		t.Fatal("reserved chars in name must fail")
	}
	if _, err := m.NewTree("t", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewTree("t", 4); err == nil {
		t.Fatal("duplicate tree must fail")
	}
	if _, ok := m.Tree("t"); !ok {
		t.Fatal("Tree lookup failed")
	}
	if _, ok := m.Tree("ghost"); ok {
		t.Fatal("ghost tree found")
	}
}

func TestInsertSearchBasic(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, err := m.NewTree("enc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := runOne(t, db, tr.OID(), "search", "DBS"); got != "" {
		t.Fatalf("empty tree search = %q", got)
	}
	if old := runOne(t, db, tr.OID(), "insert", "DBS", "database-system"); old != "" {
		t.Fatalf("insert old = %q", old)
	}
	if got := runOne(t, db, tr.OID(), "search", "DBS"); got != "database-system" {
		t.Fatalf("search = %q", got)
	}
	// Upsert returns previous value.
	if old := runOne(t, db, tr.OID(), "insert", "DBS", "updated"); old != "database-system" {
		t.Fatalf("upsert old = %q", old)
	}
	if got := runOne(t, db, tr.OID(), "search", "DBS"); got != "updated" {
		t.Fatalf("search after upsert = %q", got)
	}
}

func TestBadKeysRejected(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 4)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Exec(tr.OID(), "insert", "a|b", "v"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Exec(tr.OID(), "insert", "k", "v:x"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitsAndHeightGrowth(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 3)
	n := 50
	for i := 0; i < n; i++ {
		runOne(t, db, tr.OID(), "insert", key(i), fmt.Sprintf("v%03d", i))
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d after %d inserts with maxKeys=3", tr.Height(), n)
	}
	for i := 0; i < n; i++ {
		if got := runOne(t, db, tr.OID(), "search", key(i)); got != fmt.Sprintf("v%03d", i) {
			t.Fatalf("search(%s) = %q", key(i), got)
		}
	}
	// Scan returns all keys in order.
	scan := runOne(t, db, tr.OID(), "scan")
	keys := scanKeys(scan)
	if len(keys) != n {
		t.Fatalf("scan returned %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("scan keys unsorted: %v", keys)
	}
}

func key(i int) string { return fmt.Sprintf("k%04d", i) }

func scanKeys(scan string) []string {
	if scan == "" {
		return nil
	}
	var keys []string
	for _, pair := range strings.Split(scan, ";") {
		k, _, _ := strings.Cut(pair, ":")
		keys = append(keys, k)
	}
	return keys
}

func TestDelete(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 4)
	for i := 0; i < 20; i++ {
		runOne(t, db, tr.OID(), "insert", key(i), "v")
	}
	if got := runOne(t, db, tr.OID(), "delete", key(7)); got != "v" {
		t.Fatalf("delete = %q", got)
	}
	if got := runOne(t, db, tr.OID(), "delete", key(7)); got != "" {
		t.Fatalf("double delete = %q", got)
	}
	if got := runOne(t, db, tr.OID(), "search", key(7)); got != "" {
		t.Fatalf("search deleted = %q", got)
	}
	if got := runOne(t, db, tr.OID(), "search", key(8)); got != "v" {
		t.Fatalf("neighbour lost: %q", got)
	}
}

func TestInsertCompensationOnAbort(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 4)
	runOne(t, db, tr.OID(), "insert", "keep", "v0")

	tx := db.Begin()
	if _, err := tx.Exec(tr.OID(), "insert", "doomed", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(tr.OID(), "insert", "keep", "overwritten"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(tr.OID(), "delete", "keep"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Compensations must restore: doomed gone, keep back to v0.
	if got := runOne(t, db, tr.OID(), "search", "doomed"); got != "" {
		t.Fatalf("aborted insert visible: %q", got)
	}
	if got := runOne(t, db, tr.OID(), "search", "keep"); got != "v0" {
		t.Fatalf("keep = %q, want v0", got)
	}
	if db.Stats().Compensations != 3 {
		t.Fatalf("compensations = %d, want 3", db.Stats().Compensations)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("expanded history must validate: %+v", rep)
	}
}

func TestConcurrentDistinctKeyInserts(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 8)
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				runOne(t, db, tr.OID(), "insert", fmt.Sprintf("g%d-%04d", g, i), "v")
			}
		}(g)
	}
	wg.Wait()

	scan := runOne(t, db, tr.OID(), "scan")
	keys := scanKeys(scan)
	if len(keys) != goroutines*perG {
		t.Fatalf("scan has %d keys, want %d", len(keys), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if got := runOne(t, db, tr.OID(), "search", fmt.Sprintf("g%d-%04d", g, i)); got != "v" {
				t.Fatalf("lost key g%d-%04d", g, i)
			}
		}
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("concurrent insert trace must validate: %+v", rep)
	}
}

func TestConcurrentMixedWorkload2PL(t *testing.T) {
	db, m := newDB(t, core.Protocol2PLPage)
	tr, _ := m.NewTree("t", 6)
	for i := 0; i < 40; i++ {
		runOne(t, db, tr.OID(), "insert", key(i), "v")
	}
	var wg sync.WaitGroup
	r := rand.New(rand.NewSource(7))
	seeds := make([]int64, 6)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	for g := 0; g < len(seeds); g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				k := key(rr.Intn(60))
				switch rr.Intn(3) {
				case 0:
					runOne(t, db, tr.OID(), "insert", k, "w")
				case 1:
					runOne(t, db, tr.OID(), "search", k)
				case 2:
					runOne(t, db, tr.OID(), "delete", k)
				}
			}
		}(seeds[g])
	}
	wg.Wait()
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("2PL mixed trace must validate: %+v", rep)
	}
}

// TestSameLeafCommutingInsertsNoTopLevelDeps is Example 1 live: two
// transactions insert different keys that land on the same leaf; the trace
// must show page-level dependencies but no top-level transaction
// dependency between them.
func TestSameLeafCommutingInsertsNoTopLevelDeps(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 10)

	tx1 := db.Begin()
	if _, err := tx1.Exec(tr.OID(), "insert", "DBS", "x"); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if _, err := tx2.Exec(tr.OID(), "insert", "DBMS", "y"); err != nil {
		t.Fatal(err)
	}
	_ = tx1.Commit()
	_ = tx2.Commit()

	a, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("trace must validate: %+v", rep)
	}
	sysObj := txn.SystemObject
	if a.TranDep[sysObj].HasEdge(tx1.ID(), tx2.ID()) || a.TranDep[sysObj].HasEdge(tx2.ID(), tx1.ID()) {
		t.Fatalf("commuting inserts created a top-level dependency:\n%s", a.TranDep[sysObj].String())
	}
	// But the page level did record conflicting accesses (they share the
	// single leaf page).
	pageDeps := 0
	for _, o := range a.Objects() {
		if o.Type == core.PageType {
			pageDeps += a.ActDep[o].NumEdges()
		}
	}
	if pageDeps == 0 {
		t.Fatal("expected page-level dependencies between the two inserts")
	}
}

// TestAbortedOverwriteRestoresOldPair: under every protocol, aborting an
// overwrite puts the old pair back. Insert returns the previous value and
// "" means absent, so an empty value would make the compensation of its
// overwrite a delete: under open nesting the key vanished on abort, while
// physical undo (2PL, closed nesting) put it back. Malta and Martinez's
// framework for recoverable ADTs asks every compensation to be exact in
// every reachable state, so an empty value is refused and the state is
// unreachable.
func TestAbortedOverwriteRestoresOldPair(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			tr, _ := m.NewTree("t", 4)
			runOne(t, db, tr.OID(), "insert", "b", "v1")
			for _, old := range []string{"", "v0"} {
				tx := db.Begin()
				_, err := tx.Exec(tr.OID(), "insert", "a", old)
				if old == "" && !errors.Is(err, ErrBadKey) {
					t.Errorf("insert of an empty value = %v, want ErrBadKey", err)
				}
				if err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				before := runOne(t, db, tr.OID(), "scan")
				tx = db.Begin()
				if _, err := tx.Exec(tr.OID(), "insert", "a", "x"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				if after := runOne(t, db, tr.OID(), "scan"); after != before {
					t.Errorf("old value %q: scan after the aborted overwrite = %q, want %q", old, after, before)
				}
			}
		})
	}
}

var protocols = []core.ProtocolKind{
	core.ProtocolOpenNested, core.Protocol2PLPage, core.Protocol2PLObject, core.ProtocolClosedNested,
}

// TestAbortedRootSplitLeavesTreeUsable: an aborted insert that split the
// root leaves t.root naming the new root page. Under physical undo that page
// is back to "" and the old root back at its pre-split image, so the next
// descent must fall back to the old root.
func TestAbortedRootSplitLeavesTreeUsable(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			tr, _ := m.NewTree("t", 2)
			runOne(t, db, tr.OID(), "insert", "a", "1")
			runOne(t, db, tr.OID(), "insert", "b", "2")
			tx := db.Begin()
			if _, err := tx.Exec(tr.OID(), "insert", "c", "3"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := runOne(t, db, tr.OID(), "search", "a"); got != "1" {
				t.Fatalf("search a = %q", got)
			}
			if got := runOne(t, db, tr.OID(), "search", "c"); got != "" {
				t.Fatalf("search c = %q", got)
			}
			runOne(t, db, tr.OID(), "insert", "d", "4")
			if got := scanKeys(runOne(t, db, tr.OID(), "scan")); strings.Join(got, ",") != "a,b,d" {
				t.Fatalf("scan = %v", got)
			}
			if h := tr.Height(); h != 2 {
				t.Fatalf("height = %d, want 2", h)
			}
		})
	}
}

// Property: the tree agrees with a map reference model under random
// single-threaded operations, across fanouts and protocols, with every
// k-th transaction aborted after its operation ran.
func TestPropertyMatchesMapModel(t *testing.T) {
	check := func(p core.ProtocolKind) func(seed int64) bool {
		return func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			db := core.Open(core.Options{Protocol: p, DisableTrace: true})
			m, err := Install(db)
			if err != nil {
				return false
			}
			tr, err := m.NewTree("t", 2+r.Intn(8))
			if err != nil {
				return false
			}
			abortEvery := 2 + r.Intn(5)
			model := map[string]string{}
			for i := 0; i < 300; i++ {
				k := key(r.Intn(40))
				abort := i%abortEvery == abortEvery-1
				tx := db.Begin()
				switch r.Intn(4) {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					old, err := tx.Exec(tr.OID(), "insert", k, v)
					if err != nil || old != model[k] {
						return false
					}
					if !abort {
						model[k] = v
					}
				case 2:
					got, err := tx.Exec(tr.OID(), "search", k)
					if err != nil || got != model[k] {
						return false
					}
				case 3:
					old, err := tx.Exec(tr.OID(), "delete", k)
					if err != nil || old != model[k] {
						return false
					}
					if !abort {
						delete(model, k)
					}
				}
				if abort {
					err = tx.Abort()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					return false
				}
			}
			return scanMatches(db, tr, model)
		}
	}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			if err := quick.Check(check(p), &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scanMatches reports whether a scan of tr returns exactly model's keys.
func scanMatches(db *core.DB, tr *Tree, model map[string]string) bool {
	tx := db.Begin()
	scan, err := tx.Exec(tr.OID(), "scan")
	if err != nil {
		return false
	}
	_ = tx.Commit()
	var want []string
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	return slices.Equal(scanKeys(scan), want)
}

// Property: concurrent distinct-key inserts never lose a key and always
// produce an oo-serializable trace, across protocols.
func TestPropertyConcurrentInsertsAllProtocols(t *testing.T) {
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage, core.ProtocolClosedNested} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			tr, _ := m.NewTree("t", 4)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						runOne(t, db, tr.OID(), "insert", fmt.Sprintf("p%d-%03d", g, i), "v")
					}
				}(g)
			}
			wg.Wait()
			keys := scanKeys(runOne(t, db, tr.OID(), "scan"))
			if len(keys) != 80 {
				t.Fatalf("%s: %d keys, want 80", p, len(keys))
			}
			_, rep, err := db.Validate()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.SystemOOSerializable {
				t.Fatalf("%s: trace must validate: %+v", p, rep)
			}
		})
	}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	l := leaf{next: 42, high: "zz", keys: []string{"a", "b"}, vals: []string{"1", "2"}}
	gotL, _, err := decodePage(encodeLeaf(l))
	if err != nil {
		t.Fatal(err)
	}
	if gotL.next != 42 || gotL.high != "zz" || len(gotL.keys) != 2 || gotL.vals[1] != "2" {
		t.Fatalf("leaf round trip: %+v", gotL)
	}

	n := inner{next: 7, high: "m", keys: []string{"g"}, children: innerPIDs(3, 9)}
	_, gotN, err := decodePage(encodeInner(n))
	if err != nil {
		t.Fatal(err)
	}
	if gotN.next != 7 || len(gotN.children) != 2 || gotN.children[1] != 9 {
		t.Fatalf("inner round trip: %+v", gotN)
	}

	for _, bad := range []string{"", "X|next=0|high=|kv=", "L|high=|kv=", "L|next=x|high=|kv=", "I|next=0|high=|ch=", "I|next=0|high=|ch=1,k", "L|next=0|high=|kv=broken"} {
		if _, _, err := decodePage(bad); err == nil {
			t.Errorf("decodePage(%q) should fail", bad)
		}
	}
}

func innerPIDs(ids ...uint64) []storage.PageID {
	out := make([]storage.PageID, len(ids))
	for i, id := range ids {
		out[i] = storage.PageID(id)
	}
	return out
}

func TestChildForRouting(t *testing.T) {
	n := inner{keys: []string{"g", "p"}, children: []storage.PageID{1, 2, 3}}
	cases := []struct {
		k    string
		want storage.PageID
	}{
		{"a", 1}, {"f", 1}, {"g", 2}, {"h", 2}, {"o", 2}, {"p", 3}, {"z", 3},
	}
	for _, c := range cases {
		if got := n.childFor(c.k); got != c.want {
			t.Errorf("childFor(%q) = %d, want %d", c.k, got, c.want)
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true})
	m, _ := Install(db)
	tr, _ := m.NewTree("t", 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(tr.OID(), "insert", fmt.Sprintf("k%08d", i), "v"); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}

func BenchmarkSearch(b *testing.B) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true})
	m, _ := Install(db)
	tr, _ := m.NewTree("t", 64)
	for i := 0; i < 10000; i++ {
		tx := db.Begin()
		_, _ = tx.Exec(tr.OID(), "insert", fmt.Sprintf("k%08d", i), "v")
		_ = tx.Commit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(tr.OID(), "search", fmt.Sprintf("k%08d", i%10000)); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}
