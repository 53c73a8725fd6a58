package enc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/txn"
)

func newEnc(t testing.TB, p core.ProtocolKind) (*core.DB, *Encyclopedia) {
	t.Helper()
	db := core.Open(core.Options{Protocol: p, LockTimeout: 5 * time.Second})
	trees, err := btree.Install(db)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := list.Install(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Install(db, trees, lists)
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.New("Enc", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return db, e
}

// runOne executes a single-op transaction, restarting deadlock victims
// with backoff (see the btree tests' helper of the same name).
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

func TestFig2Structure(t *testing.T) {
	// The encyclopedia of Figure 2: items indexed by a B+ tree AND chained
	// in a linked list; both access paths return the same contents.
	db, e := newEnc(t, core.ProtocolOpenNested)
	items := map[string]string{
		"DBS":  "database-system",
		"DBMS": "database-management-system",
		"IR":   "information-retrieval",
	}
	for k, v := range items {
		if res := runOne(t, db, e.OID(), "insert", k, v); res != "new" {
			t.Fatalf("insert(%s) = %q", k, res)
		}
	}
	// Index path.
	for k, v := range items {
		if got := runOne(t, db, e.OID(), "search", k); got != v {
			t.Fatalf("search(%s) = %q", k, got)
		}
	}
	// Sequential path sees every item.
	seq := runOne(t, db, e.OID(), "readSeq")
	for k, v := range items {
		if !strings.Contains(seq, k+"="+v) {
			t.Fatalf("readSeq missing %s: %q", k, seq)
		}
	}
	if e.Tree() == nil || e.List() == nil {
		t.Fatal("substructure accessors broken")
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	db, e := newEnc(t, core.ProtocolOpenNested)
	if res := runOne(t, db, e.OID(), "insert", "K", "t1"); res != "new" {
		t.Fatalf("insert = %q", res)
	}
	// Insert on existing key updates in place.
	if res := runOne(t, db, e.OID(), "insert", "K", "t2"); res != "old|t1" {
		t.Fatalf("re-insert = %q", res)
	}
	if res := runOne(t, db, e.OID(), "update", "K", "t3"); res != "old|t2" {
		t.Fatalf("update = %q", res)
	}
	if res := runOne(t, db, e.OID(), "update", "ghost", "x"); res != "miss" {
		t.Fatalf("update miss = %q", res)
	}
	if res := runOne(t, db, e.OID(), "delete", "K"); res != "old|t3" {
		t.Fatalf("delete = %q", res)
	}
	if res := runOne(t, db, e.OID(), "delete", "K"); res != "miss" {
		t.Fatalf("double delete = %q", res)
	}
	if got := runOne(t, db, e.OID(), "search", "K"); got != "" {
		t.Fatalf("search deleted = %q", got)
	}
	if seq := runOne(t, db, e.OID(), "readSeq"); strings.Contains(seq, "K=") {
		t.Fatalf("deleted item in readSeq: %q", seq)
	}
}

func TestCompensatedAbortRestoresBothPaths(t *testing.T) {
	db, e := newEnc(t, core.ProtocolOpenNested)
	runOne(t, db, e.OID(), "insert", "stay", "v0")

	tx := db.Begin()
	if _, err := tx.Exec(e.OID(), "insert", "gone", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(e.OID(), "update", "stay", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(e.OID(), "delete", "stay"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	if got := runOne(t, db, e.OID(), "search", "gone"); got != "" {
		t.Fatalf("aborted insert visible via index: %q", got)
	}
	if got := runOne(t, db, e.OID(), "search", "stay"); got != "v0" {
		t.Fatalf("stay = %q, want v0", got)
	}
	seq := runOne(t, db, e.OID(), "readSeq")
	if strings.Contains(seq, "gone") {
		t.Fatalf("aborted insert visible via list: %q", seq)
	}
	if !strings.Contains(seq, "stay=v0") {
		t.Fatalf("stay not restored in list: %q", seq)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("expanded history must validate: %+v", rep)
	}
}

func TestBadParams(t *testing.T) {
	db, e := newEnc(t, core.ProtocolOpenNested)
	tx := db.Begin()
	defer tx.Abort()
	for _, c := range [][]string{
		{"insert", "a|b", "t"},
		{"insert", "", "t"},
		{"insert", "k", "t;x"},
		{"search", "a:b"},
		{"update", "k"},
		{"delete", ""},
	} {
		if _, err := tx.Exec(e.OID(), c[0], c[1:]...); !errors.Is(err, ErrBadKey) {
			t.Errorf("%v: err = %v, want ErrBadKey", c, err)
		}
	}
}

// TestExample4Live replays the paper's Example 4 against the real engine:
// T1 inserts DBS, T2 inserts DBMS and updates it, T3 searches DBS, T4 reads
// sequentially. All four must commit and validate oo-serializably.
func TestExample4Live(t *testing.T) {
	db, e := newEnc(t, core.ProtocolOpenNested)
	// Pre-populate the two items the readers touch.
	runOne(t, db, e.OID(), "insert", "IR", "info-retrieval")

	var wg sync.WaitGroup
	ops := [][]string{
		{"insert", "DBS", "database-system"},
		{"insert", "DBMS", "db-mgmt-system"},
		{"search", "DBS"},
		{"readSeq"},
	}
	errs := make([]error, len(ops))
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op []string) {
			defer wg.Done()
			for attempt := 0; attempt < 20; attempt++ {
				tx := db.Begin()
				_, err := tx.Exec(e.OID(), op[0], op[1:]...)
				if err == nil {
					errs[i] = tx.Commit()
					return
				}
				_ = tx.Abort()
				errs[i] = err
			}
		}(i, op)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Follow-up: T2's second half — update the previously inserted DBMS.
	if res := runOne(t, db, e.OID(), "update", "DBMS", "changed"); res != "old|db-mgmt-system" {
		t.Fatalf("update = %q", res)
	}

	a, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("live Example 4 must validate: %+v", rep)
	}
	if !rep.GlobalAcyclic {
		t.Fatal("global graph must be acyclic")
	}
	_ = a
}

func TestConcurrentMixedAllProtocols(t *testing.T) {
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage, core.Protocol2PLObject, core.ProtocolClosedNested} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, e := newEnc(t, p)
			// On failure, the flight recorder's tail is the best lead on
			// what the interleaving actually did.
			t.Cleanup(func() {
				if t.Failed() {
					var b strings.Builder
					db.Obs().Recorder().Dump(&b, 64)
					t.Log(b.String())
				}
			})
			for i := 0; i < 10; i++ {
				runOne(t, db, e.OID(), "insert", fmt.Sprintf("base%02d", i), "v")
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						switch i % 4 {
						case 0:
							runOne(t, db, e.OID(), "insert", fmt.Sprintf("g%d-%02d", g, i), "v")
						case 1:
							runOne(t, db, e.OID(), "search", fmt.Sprintf("base%02d", i))
						case 2:
							runOne(t, db, e.OID(), "update", fmt.Sprintf("base%02d", (g+i)%10), fmt.Sprintf("w%d", g))
						case 3:
							runOne(t, db, e.OID(), "readSeq")
						}
					}
				}(g)
			}
			wg.Wait()
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

func BenchmarkEncInsert(b *testing.B) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true})
	trees, _ := btree.Install(db)
	lists, _ := list.Install(db)
	m, _ := Install(db, trees, lists)
	e, _ := m.New("Enc", 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(e.OID(), "insert", fmt.Sprintf("k%09d", i), "text"); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}

func BenchmarkEncSearch(b *testing.B) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true})
	trees, _ := btree.Install(db)
	lists, _ := list.Install(db)
	m, _ := Install(db, trees, lists)
	e, _ := m.New("Enc", 64, 64)
	for i := 0; i < 5000; i++ {
		tx := db.Begin()
		_, _ = tx.Exec(e.OID(), "insert", fmt.Sprintf("k%09d", i), "text")
		_ = tx.Commit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(e.OID(), "search", fmt.Sprintf("k%09d", i%5000)); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}

// TestPhantomPrevention: the paper's §1 lists "occurrences of phantoms"
// among the anomalies serializability must prevent. A sequential reader
// holds the Enc-level readSeq lock until commit; an insert (which would
// create a phantom for a repeated read) blocks behind it — and both orders
// validate.
func TestPhantomPrevention(t *testing.T) {
	db, e := newEnc(t, core.ProtocolOpenNested)
	runOne(t, db, e.OID(), "insert", "base", "v")

	reader := db.Begin()
	seq1, err := reader.Exec(e.OID(), "readSeq")
	if err != nil {
		t.Fatal(err)
	}

	inserted := make(chan error, 1)
	go func() {
		tx := db.Begin()
		_, err := tx.Exec(e.OID(), "insert", "phantom", "boo")
		if err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Abort()
		}
		inserted <- err
	}()
	select {
	case <-inserted:
		t.Fatal("the insert must block while the reader's lock is held")
	case <-time.After(80 * time.Millisecond):
	}

	// The repeated read inside the same transaction sees the SAME set —
	// no phantom.
	seq2, err := reader.Exec(e.OID(), "readSeq")
	if err != nil {
		t.Fatal(err)
	}
	if seq1 != seq2 {
		t.Fatalf("phantom observed: %q vs %q", seq1, seq2)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if got := runOne(t, db, e.OID(), "search", "phantom"); got != "boo" {
		t.Fatalf("insert lost after reader committed: %q", got)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("trace must validate: %+v", rep)
	}
}
