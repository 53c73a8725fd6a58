package core

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/commut"
	"repro/internal/span"
	"repro/internal/txn"
)

// registerChain registers type "chain": get on C<k> calls get on C<k-1>,
// and get on C0 reads the page. A Call of C<k>.get is a read-only tree of
// k+1 composites over one page read. The method itself allocates nothing.
func registerChain(t testing.TB, db *DB) {
	t.Helper()
	page := db.AllocPage()
	chain := make([]txn.OID, 16)
	for k := range chain {
		chain[k] = txn.OID{Type: "chain", Name: "C" + strconv.Itoa(k)}
	}
	err := db.RegisterType(&ObjectType{
		Name:     "chain",
		Spec:     commut.NewMatrix().SetCommutes("get", "get"),
		ReadOnly: map[string]bool{"get": true},
		Methods: map[string]MethodFunc{
			"get": func(c *Ctx, self txn.OID, _ []string) (string, error) {
				k, err := strconv.Atoi(strings.TrimPrefix(self.Name, "C"))
				if err != nil {
					return "", err
				}
				if k == 0 {
					return c.Call(page, "read")
				}
				return c.Call(chain[k-1], "get")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyRendersNoID: a read-only open-nested transaction through a
// composite of three levels renders no action id. Every level takes a
// semantic lock owned by its caller and releases its children's locks when
// it completes, and its method span is recorded: none of that renders an
// id, so a transaction through C2 (three composites) allocates exactly what
// one through C0 (one composite) does. An id rendered per level would add
// an allocation per level and transaction.
func TestReadOnlyRendersNoID(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P, so the pool hands each chain of records back to the next
	// transaction (see TestTxnRecyclesActions).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	registerChain(t, db)
	perTxn := func(top string) float64 {
		obj := txn.OID{Type: "chain", Name: top}
		run := func() {
			tx := db.Begin()
			if _, err := tx.Exec(obj, "get"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if tx.Trace() == nil {
				t.Fatal("the transaction must be traced")
			}
		}
		const warm, runs = 100, 2000
		for i := 0; i < warm; i++ {
			run()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs
	}
	one, three := perTxn("C0"), perTxn("C2")
	t.Logf("allocs per txn: %.2f through one composite, %.2f through three", one, three)
	if extra := three - one; extra > 0.05 {
		t.Fatalf("%.2f more allocs per txn through three composites, want 0: an id was rendered", extra)
	}
}

// TestSnapshotIDsUnderParallel: the ids a trace shows are the hierarchical
// ids the engine always used — the transaction's id, then each child
// number in dispatch order — whether the trace is read live (a parent has
// not ended yet), retained after the commit, or served by /trace, and the
// formal trace names the same actions. Two top-level calls run in
// parallel, each forks parallel branches and then descends a chain of 10
// composites, deeper than a span record keeps inline. All four locking
// protocols; run it under -race.
func TestSnapshotIDsUnderParallel(t *testing.T) {
	for _, p := range []ProtocolKind{ProtocolOpenNested, Protocol2PLPage, Protocol2PLObject, ProtocolClosedNested} {
		t.Run(p.String(), func(t *testing.T) {
			db := Open(Options{Protocol: p})
			registerChain(t, db)
			const branches, deep = 3, 10
			var tx *Txn
			var liveMu sync.Mutex
			var live []span.TxnSpans
			snapLive := func() {
				s := tx.Trace().Snapshot()
				liveMu.Lock()
				live = append(live, s)
				liveMu.Unlock()
			}
			err := db.RegisterType(&ObjectType{
				Name: "fork",
				Spec: commut.NewMatrix().SetCommutes("run", "run"),
				Methods: map[string]MethodFunc{
					"run": func(c *Ctx, self txn.OID, _ []string) (string, error) {
						calls := make([]ParCall, branches)
						for i := range calls {
							calls[i] = ParCall{Obj: txn.OID{Type: "chain", Name: "C" + strconv.Itoa(i)}, Method: "get"}
						}
						if _, err := c.Parallel(calls); err != nil {
							return "", err
						}
						snapLive() // the branches have ended, run and its caller have not
						return c.Call(txn.OID{Type: "chain", Name: "C" + strconv.Itoa(deep)}, "get")
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			tx = db.Begin()
			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() { // a concurrent live reader, for the race detector
				defer readers.Done()
				h := db.Spans().Handler()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snapLive()
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/trace?txn="+tx.ID(), nil))
				}
			}()
			_, err = tx.ExecParallel([]ParCall{
				{Obj: txn.OID{Type: "fork", Name: "F1"}, Method: "run"},
				{Obj: txn.OID{Type: "fork", Name: "F2"}, Method: "run"},
			})
			close(stop)
			readers.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			retained := db.Spans().Lookup(tx.ID()).Snapshot()
			byID := checkTreeIDs(t, retained, branches, deep)

			rec := httptest.NewRecorder()
			db.Spans().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?txn="+tx.ID(), nil))
			var served []span.TxnSpans
			if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || len(served) != 1 {
				t.Fatalf("/trace: %v, %d traces", err, len(served))
			}
			if got, want := spanIDs(served[0]), spanIDs(retained); got != want {
				t.Fatalf("/trace ids\n%s\nretained ids\n%s", got, want)
			}

			for _, s := range live {
				for _, sp := range s.Spans[1:] {
					if sp.Kind != span.KMethod {
						continue
					}
					if r, ok := byID[sp.ID]; !ok || r.Parent != sp.Parent || r.Seq != sp.Seq || r.Object != sp.Object {
						t.Fatalf("live span %+v, retained %+v", sp, r)
					}
				}
			}

			formal := map[string]bool{}
			for _, ev := range db.Trace().Events {
				if strings.HasPrefix(ev.ID, tx.ID()+".") {
					formal[ev.ID] = true
					if r, ok := byID[ev.ID]; !ok || r.Parent != ev.Parent || r.Object != ev.ObjName {
						t.Fatalf("formal trace event %s under %s on %s, span %+v", ev.ID, ev.Parent, ev.ObjName, r)
					}
				}
			}
			if len(formal) != len(byID) {
				t.Fatalf("formal trace names %d actions, the spans %d", len(formal), len(byID))
			}
		})
	}
}

// checkTreeIDs checks a finished trace of TestSnapshotIDsUnderParallel's
// transaction against the ids the tree must have, and returns its method
// spans by id. Under T, F1.run and F2.run are T.1 and T.2 in some order;
// under each, branch C<i>.get is child i+1 of run up to a branch order
// the goroutines decide, then the chain C<deep> … C0 is child branches+1,
// each level the first child of the one above, down to the page read.
func checkTreeIDs(t *testing.T, s span.TxnSpans, branches, deep int) map[string]span.Span {
	t.Helper()
	byID := map[string]span.Span{}
	for _, sp := range s.Spans[1:] {
		if sp.Kind != span.KMethod {
			continue
		}
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("two spans with id %s", sp.ID)
		}
		byID[sp.ID] = sp
	}
	want := 2 * (1 + branches*(branches+3)/2 + deep + 2) // C<i> is i+2 dispatches
	if len(byID) != want {
		t.Fatalf("%d method spans, want %d", len(byID), want)
	}
	for _, top := range []int{1, 2} {
		runID := s.TxnID + "." + strconv.Itoa(top)
		run, ok := byID[runID]
		if !ok || run.Parent != s.TxnID || run.Method != "run" {
			t.Fatalf("span %s = %+v", runID, run)
		}
		seen := map[string]bool{}
		for b := 1; b <= branches; b++ {
			id := runID + "." + strconv.Itoa(b)
			br, ok := byID[id]
			if !ok || br.Parent != runID || seen[br.Object] {
				t.Fatalf("branch %s = %+v", id, br)
			}
			seen[br.Object] = true
			checkChain(t, byID, id, br.Object)
		}
		id := runID + "." + strconv.Itoa(branches+1)
		if sp := byID[id]; sp.Object != "C"+strconv.Itoa(deep) || sp.Parent != runID {
			t.Fatalf("chain head %s = %+v", id, sp)
		}
		checkChain(t, byID, id, "C"+strconv.Itoa(deep))
	}
	return byID
}

// checkChain checks that under id, the span of chain object obj, each
// level down to C0 is the first child, and C0's first child is its page
// read.
func checkChain(t *testing.T, byID map[string]span.Span, id, obj string) {
	t.Helper()
	k, _ := strconv.Atoi(strings.TrimPrefix(obj, "C"))
	for ; k >= 0; k-- {
		sp, ok := byID[id]
		if !ok || sp.Object != "C"+strconv.Itoa(k) {
			t.Fatalf("span %s = %+v, want C%d.get", id, sp, k)
		}
		id += ".1"
		if c, ok := byID[id]; !ok || c.Parent != sp.ID {
			t.Fatalf("span %s = %+v, want a child of %s", id, c, sp.ID)
		}
	}
	if sp := byID[id]; sp.Method != "read" {
		t.Fatalf("span %s = %+v, want the page read", id, sp)
	}
}

// spanIDs lists a trace's spans as "id<parent#seq", one per line.
func spanIDs(s span.TxnSpans) string {
	var b strings.Builder
	for _, sp := range s.Spans {
		b.WriteString(sp.ID + "<" + sp.Parent + "#" + strconv.Itoa(sp.Seq) + "\n")
	}
	return b.String()
}
