package core

import (
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/commut"
	"repro/internal/span"
	"repro/internal/txn"
)

// TestTxnRecyclesActions: a transaction's action records are reused by
// the transactions after it, so in steady state what a transaction
// allocates grows with its dispatches only by what the records do not
// cover. An Exec of reg.get is two dispatches, get and its page read, and
// neither renders its id, so an extra get allocates nothing.
func TestTxnRecyclesActions(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P, as testing.AllocsPerRun runs, so the pool hands each chain
	// back to the next transaction. The figures are fractional (the WAL
	// window's growth is amortized over commits), which AllocsPerRun
	// would truncate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	reg := registerRegType(t, db)
	perTxn := func(n int) float64 {
		run := func() {
			tx := db.Begin()
			for i := 0; i < n; i++ {
				if _, err := tx.Exec(reg, "get"); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
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
	one, sixteen := perTxn(1), perTxn(16)
	t.Logf("allocs per txn: %.2f with 1 get, %.2f with 16", one, sixteen)
	if grow := (sixteen - one) / 15; grow > 0.05 {
		t.Fatalf("%.2f allocs per extra get, want 0", grow)
	}
}

// TestRecycleUnderLiveReads runs committing and aborting transactions while
// readers snapshot live and retained traces and serve /trace, under every
// locking protocol (run it under -race). Every method span a snapshot
// shows must belong to its own transaction: a trace that still pointed
// into a recycled record would show another transaction's dispatch.
func TestRecycleUnderLiveReads(t *testing.T) {
	for _, p := range []ProtocolKind{ProtocolOpenNested, Protocol2PLPage, Protocol2PLObject, ProtocolClosedNested} {
		t.Run(p.String(), func(t *testing.T) {
			db := Open(Options{Protocol: p, DisableTrace: true})
			reg := registerRegType(t, db)
			tr := db.Spans()
			h := tr.Handler()
			check := func(snap span.TxnSpans) {
				for _, sp := range snap.Spans[1:] {
					if sp.Kind == span.KMethod && (!strings.HasPrefix(sp.ID, snap.TxnID+".") || sp.Object == "") {
						t.Errorf("trace %s shows dispatch %s on %q", snap.TxnID, sp.ID, sp.Object)
					}
				}
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ids := tr.TxnIDs()
						for _, id := range ids[:min(len(ids), 8)] {
							if tt := tr.Lookup(id); tt != nil {
								check(tt.Snapshot())
							}
						}
						for _, path := range []string{"/trace", "/trace/aborted?n=3", "/trace/slowest?n=3"} {
							h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
						}
					}
				}()
			}
			var writers sync.WaitGroup
			for w := 0; w < 3; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < 100; i++ {
						tx := db.Begin()
						_, err := tx.Exec(reg, "set", "v")
						if err == nil {
							_, err = tx.Exec(reg, "get")
						}
						if err == nil && i%4 == w%4 {
							_, err = tx.Exec(reg, "fail")
						}
						if err == nil && i%3 != 0 {
							err = tx.Commit()
						} else {
							err = tx.Abort()
						}
						if err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			for _, snap := range tr.Completed(0) {
				check(snap)
			}
		})
	}
}

// TestDispatchRacingEndKeepsRecords: a dispatch still running when its
// transaction commits or aborts (an Exec beside Commit, as a session
// teardown can cause) keeps using its records, so the end leaves them to
// the collector instead of recycling them under it.
func TestDispatchRacingEndKeepsRecords(t *testing.T) {
	for _, end := range []string{"commit", "abort"} {
		t.Run(end, func(t *testing.T) {
			db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
			page := db.AllocPage()
			entered, release := make(chan struct{}), make(chan struct{})
			typ := &ObjectType{
				Name: "slow",
				Spec: commut.NewMatrix(),
				Methods: map[string]MethodFunc{
					"wait": func(c *Ctx, self txn.OID, params []string) (string, error) {
						close(entered)
						<-release
						if c.TxnID() == "" {
							return "", errors.New("record zeroed under a running dispatch")
						}
						return c.Call(page, "read")
					},
				},
			}
			if err := db.RegisterType(typ); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			errc := make(chan error)
			go func() {
				_, err := tx.Exec(txn.OID{Type: "slow", Name: "S"}, "wait")
				errc <- err
			}()
			<-entered
			var err error
			if end == "commit" {
				err = tx.Commit()
			} else {
				err = tx.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			close(release)
			if err := <-errc; !errors.Is(err, ErrTxnFinished) {
				t.Fatalf("dispatch after the end = %v, want ErrTxnFinished", err)
			}
			// The next transactions run on fresh records.
			reg := registerRegType(t, db)
			next := db.Begin()
			if _, err := next.Exec(reg, "set", "v"); err != nil {
				t.Fatal(err)
			}
			if err := next.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
