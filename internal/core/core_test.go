package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commut"
	"repro/internal/txn"
)

// registerRegType installs a "reg" object type: a single string register
// stored on one page, with get/set/clear methods and a set-compensation
// that restores the previous value (returned by set as its result).
func registerRegType(t testing.TB, db *DB) txn.OID {
	t.Helper()
	page := db.AllocPage()
	typ := &ObjectType{
		Name: "reg",
		Spec: commut.NewMatrix().
			SetCommutes("get", "get").
			SetConflicts("get", "set").
			SetConflicts("set", "set"),
		ReadOnly: map[string]bool{"get": true},
		Methods: map[string]MethodFunc{
			"get": func(c *Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(page, "read")
			},
			"set": func(c *Ctx, self txn.OID, params []string) (string, error) {
				old, err := c.Call(page, "read")
				if err != nil {
					return "", err
				}
				if _, err := c.Call(page, "write", params[0]); err != nil {
					return "", err
				}
				return old, nil
			},
			"fail": func(c *Ctx, self txn.OID, params []string) (string, error) {
				if _, err := c.Call(page, "write", "garbage"); err != nil {
					return "", err
				}
				return "", errors.New("intentional failure")
			},
		},
		Compensate: map[string]CompensateFunc{
			// set(v) with result old → set(old)
			"set": func(params []string, result string) (string, []string, bool) {
				return "set", []string{result}, true
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	return txn.OID{Type: "reg", Name: "R"}
}

func TestBasicCommit(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	reg := registerRegType(t, db)

	tx := db.Begin()
	if tx.ID() != "T1" {
		t.Fatalf("id = %s", tx.ID())
	}
	if _, err := tx.Exec(reg, "set", "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Exec(reg, "get")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("get = %q", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double commit: %v", err)
	}
	if _, err := tx.Exec(reg, "get"); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("exec after commit: %v", err)
	}
	st := db.Stats()
	if st.TxnsCommitted != 1 || st.PageWrites != 1 || st.PageReads != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownTypeAndMethod(t *testing.T) {
	db := Open(Options{})
	reg := registerRegType(t, db)
	tx := db.Begin()
	if _, err := tx.Exec(txn.OID{Type: "ghost", Name: "G"}, "m"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Exec(reg, "nosuch"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v", err)
	}
	_ = tx.Abort()
}

func TestRegisterTypeValidation(t *testing.T) {
	db := Open(Options{})
	if err := db.RegisterType(&ObjectType{}); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := db.RegisterType(&ObjectType{Name: PageType}); err == nil {
		t.Fatal("page type re-registration must fail")
	}
	typ := &ObjectType{Name: "x"}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterType(typ); err == nil {
		t.Fatal("duplicate must fail")
	}
	// Nil spec falls back to Conservative.
	if db.Registry().Lookup("x").Commutes(commut.Invocation{Method: "a"}, commut.Invocation{Method: "a"}) {
		t.Fatal("default spec must be conservative")
	}
}

func TestPageOIDRoundTrip(t *testing.T) {
	o := PageOID(4712)
	if o.Name != "Page4712" || o.Type != PageType {
		t.Fatalf("oid = %v", o)
	}
	id, err := PageID(o)
	if err != nil || id != 4712 {
		t.Fatalf("id = %d, %v", id, err)
	}
	if _, err := PageID(txn.OID{Type: "reg", Name: "R"}); err == nil {
		t.Fatal("non-page must fail")
	}
	if _, err := PageID(txn.OID{Type: PageType, Name: "Pagexyz"}); err == nil {
		t.Fatal("bad suffix must fail")
	}
}

func TestAbortPhysicalUndo2PL(t *testing.T) {
	db := Open(Options{Protocol: Protocol2PLPage})
	reg := registerRegType(t, db)

	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "initial"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	if _, err := tx2.Exec(reg, "set", "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	tx3 := db.Begin()
	got, err := tx3.Exec(reg, "get")
	if err != nil {
		t.Fatal(err)
	}
	if got != "initial" {
		t.Fatalf("after abort get = %q, want pre-abort value", got)
	}
	_ = tx3.Commit()

	// The aborted transaction is erased from the trace (physical undo).
	for _, ev := range db.Trace().Events {
		if strings.HasPrefix(ev.ID, tx2.ID()) && !ev.Aborted {
			t.Fatalf("aborted event %s not marked", ev.ID)
		}
	}
}

func TestAbortCompensationOpenNested(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	reg := registerRegType(t, db)

	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	if _, err := tx2.Exec(reg, "set", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Compensations != 1 {
		t.Fatalf("compensations = %d", db.Stats().Compensations)
	}

	tx3 := db.Begin()
	got, err := tx3.Exec(reg, "get")
	if err != nil {
		t.Fatal(err)
	}
	if got != "v1" {
		t.Fatalf("after compensated abort get = %q", got)
	}
	_ = tx3.Commit()

	// The compensated transaction STAYS in the trace (expanded history) and
	// the whole trace still validates.
	found := false
	for _, ev := range db.Trace().Events {
		if ev.ID == tx2.ID() && !ev.Aborted {
			found = true
		}
	}
	if !found {
		t.Fatal("compensated transaction must remain in the trace")
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("expanded history must validate: %+v", rep)
	}
}

func TestSubtreeFailureRollsBack(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	reg := registerRegType(t, db)

	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(reg, "fail"); err == nil {
		t.Fatal("fail method must error")
	}
	// The failed action's page write is rolled back; the earlier set stays.
	got, err := tx.Exec(reg, "get")
	if err != nil {
		t.Fatal(err)
	}
	if got != "keep" {
		t.Fatalf("get = %q, want %q", got, "keep")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenNestedConcurrentCommutingOps(t *testing.T) {
	// Two transactions set DIFFERENT registers concurrently; with a keyed
	// dict they'd commute — here use two reg objects on separate pages to
	// verify plain concurrency, then validate.
	db := Open(Options{Protocol: ProtocolOpenNested, LockTimeout: 2 * time.Second})
	pageA, pageB := db.AllocPage(), db.AllocPage()
	typ := &ObjectType{
		Name: "dict",
		Spec: commut.KeyedSpec([]string{"get"}, []string{"put"}),
		Methods: map[string]MethodFunc{
			"put": func(c *Ctx, self txn.OID, params []string) (string, error) {
				pg := pageA
				if params[0] > "m" {
					pg = pageB
				}
				old, err := c.Call(pg, "read")
				if err != nil {
					return "", err
				}
				return "", second(c.Call(pg, "write", old+"|"+params[0]))
			},
		},
		Compensate: map[string]CompensateFunc{
			"put": func(params []string, result string) (string, []string, bool) {
				return "del", []string{params[0]}, false // dict del omitted; no compensation needed in this test
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	dict := txn.OID{Type: "dict", Name: "D"}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// put reads then writes one page: two puts on the same page can
			// deadlock converting S to X, so victims restart.
			errs[i] = db.RunWithRetry(RetryPolicy{MaxAttempts: 200}, func(tx *Txn) error {
				_, err := tx.Exec(dict, "put", fmt.Sprintf("k%d", i))
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("concurrent commuting puts must validate: %+v", rep)
	}
}

func second(_ string, err error) error { return err }

func TestProtocolNoneCanViolate(t *testing.T) {
	// Without isolation, interleave two read-modify-write pairs by hand to
	// produce a lost update, and show the checker catches it.
	db := Open(Options{Protocol: ProtocolNone})
	page := db.AllocPage()
	typ := &ObjectType{
		Name: "raw",
		Spec: commut.Conservative{},
		Methods: map[string]MethodFunc{
			"r": func(c *Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(page, "read")
			},
			"w": func(c *Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(page, "write", params[0])
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	obj := txn.OID{Type: "raw", Name: "X"}

	t1, t2 := db.Begin(), db.Begin()
	if _, err := t1.Exec(obj, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(obj, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec(obj, "w", "from-t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(obj, "w", "from-t2"); err != nil {
		t.Fatal(err)
	}
	_ = t1.Commit()
	_ = t2.Commit()

	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SystemOOSerializable {
		t.Fatal("lost update must be detected")
	}
}

func Test2PLPageBlocksConflicts(t *testing.T) {
	db := Open(Options{Protocol: Protocol2PLPage})
	reg := registerRegType(t, db)

	t1 := db.Begin()
	if _, err := t1.Exec(reg, "set", "a"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		t2 := db.Begin()
		_, err := t2.Exec(reg, "set", "b")
		if err == nil {
			err = t2.Commit()
		} else {
			_ = t2.Abort()
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("conflicting set must block until t1 finishes")
	case <-time.After(60 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if db.LockStats().Blocked == 0 {
		t.Fatal("block not counted")
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("2PL trace must validate: %+v", rep)
	}
}

func TestDeadlockVictimAborts(t *testing.T) {
	db := Open(Options{Protocol: Protocol2PLPage})
	regA := registerRegType(t, db)
	// Second register on its own page.
	pageB := db.AllocPage()
	typB := &ObjectType{
		Name:     "regB",
		Spec:     commut.NewMatrix().SetConflicts("set", "set"),
		ReadOnly: map[string]bool{},
		Methods: map[string]MethodFunc{
			"set": func(c *Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(pageB, "write", params[0])
			},
		},
	}
	if err := db.RegisterType(typB); err != nil {
		t.Fatal(err)
	}
	regB := txn.OID{Type: "regB", Name: "RB"}

	t1, t2 := db.Begin(), db.Begin()
	if _, err := t1.Exec(regA, "set", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(regB, "set", "2"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = t1.Exec(regB, "set", "1b")
		if errs[0] != nil {
			_ = t1.Abort()
		} else {
			_ = t1.Commit()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		_, errs[1] = t2.Exec(regA, "set", "2a")
		if errs[1] != nil {
			_ = t2.Abort()
		} else {
			_ = t2.Commit()
		}
	}()
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("exactly one transaction must be the victim: %v", errs)
	}
	if db.LockStats().Deadlocks == 0 {
		t.Fatal("deadlock not counted")
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("post-deadlock trace must validate: %+v", rep)
	}
}

func TestIntraTxnParallel(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	pageA, pageB := db.AllocPage(), db.AllocPage()
	typ := &ObjectType{
		Name: "sec",
		Spec: commut.NewParamSpec(nil).Rule("edit", "edit", commut.DistinctFirstParam),
		Methods: map[string]MethodFunc{
			"edit": func(c *Ctx, self txn.OID, params []string) (string, error) {
				pg := pageA
				if params[0] == "b" {
					pg = pageB
				}
				return c.Call(pg, "write", "edited-"+params[0])
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	sec := txn.OID{Type: "sec", Name: "Doc"}

	tx := db.Begin()
	if _, err := tx.ExecParallel([]ParCall{
		{Obj: sec, Method: "edit", Params: []string{"a"}},
		{Obj: sec, Method: "edit", Params: []string{"b"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The two branches must be recorded as parallel processes.
	par := 0
	for _, ev := range db.Trace().Events {
		if ev.Parallel {
			par++
		}
	}
	if par != 2 {
		t.Fatalf("parallel events = %d, want 2", par)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("parallel trace must validate: %+v", rep)
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range []ProtocolKind{ProtocolNone, Protocol2PLPage, Protocol2PLObject, ProtocolClosedNested, ProtocolOpenNested, ProtocolKind(99)} {
		if p.String() == "" {
			t.Fatal("empty protocol string")
		}
	}
}

func TestDisableTrace(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	reg := registerRegType(t, db)
	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "x"); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if len(db.Trace().Events) != 0 {
		t.Fatal("trace must be empty when disabled")
	}
}

func TestWALRecordsLifecycle(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	reg := registerRegType(t, db)
	tx := db.Begin()
	_, _ = tx.Exec(reg, "set", "v")
	_ = tx.Commit()
	recs := db.WAL().Records()
	if len(recs) < 2 {
		t.Fatalf("wal records = %d", len(recs))
	}
	last := recs[len(recs)-1]
	if last.Kind.String() != "commit" {
		t.Fatalf("last record = %v", last.Kind)
	}
}

func BenchmarkExecOpenNested(b *testing.B) {
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	reg := registerRegType(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(reg, "set", "v"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExec2PL(b *testing.B) {
	db := Open(Options{Protocol: Protocol2PLPage, DisableTrace: true})
	reg := registerRegType(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(reg, "set", "v"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompensationNoteRoundTrip: the WAL intent note is the fields joined
// by the unit separator, byte for byte, in one allocation, and decodes back
// to the invocation it encodes, including empty and multi-byte parameters
// and the ',' and '.' that the human-readable compensation record uses as
// separators.
func TestCompensationNoteRoundTrip(t *testing.T) {
	obj := txn.OID{Type: "dict", Name: "D.1"}
	for _, params := range [][]string{nil, {"k"}, {"a,b", "c.d", ""}, {"", ""}, {"Schlüssel", "日本語", "é"}} {
		note := compensationNote(obj, "put", params)
		if want := strings.Join(append([]string{obj.Type, obj.Name, "put"}, params...), unitSep); note != want {
			t.Fatalf("params %q: note %q, want %q", params, note, want)
		}
		gotObj, method, gotParams, err := DecodeCompensationNote(note)
		if err != nil {
			t.Fatalf("params %q: %v", params, err)
		}
		if gotObj != obj || method != "put" || !slices.Equal(gotParams, params) {
			t.Fatalf("params %q: decoded %v.%s(%q)", params, gotObj, method, gotParams)
		}
	}
	params := []string{"k", "v"}
	if allocs := testing.AllocsPerRun(100, func() { compensationNote(obj, "put", params) }); allocs != 1 {
		t.Fatalf("compensationNote = %.1f allocs, want 1", allocs)
	}
	for _, note := range []string{"", "dict", "dict" + unitSep + "D"} {
		if _, _, _, err := DecodeCompensationNote(note); err == nil {
			t.Fatalf("note %q with fewer than 3 parts decoded without error", note)
		}
	}
}
