package core

import (
	"testing"
	"time"
)

// savepointProtocols runs a savepoint test under every locking protocol:
// open nesting undoes by compensation, the others by before-images.
func savepointProtocols(t *testing.T, test func(t *testing.T, p ProtocolKind)) {
	for _, p := range []ProtocolKind{ProtocolOpenNested, Protocol2PLPage, Protocol2PLObject, ProtocolClosedNested} {
		t.Run(p.String(), func(t *testing.T) { test(t, p) })
	}
}

func TestSavepointRollbackTo(t *testing.T) {
	savepointProtocols(t, testSavepointRollbackTo)
}

func testSavepointRollbackTo(t *testing.T, p ProtocolKind) {
	db := Open(Options{Protocol: p})
	dict := registerDict(t, db, "a", "b", "c")

	tx := db.Begin()
	if _, err := tx.Exec(dict, "put", "a", "a1"); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	if _, err := tx.Exec(dict, "put", "b", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(dict, "put", "c", "c1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	// Work after the savepoint is compensated; before it survives.
	if got, _ := tx.Exec(dict, "get", "a"); got != "a1" {
		t.Fatalf("a = %q", got)
	}
	if got, _ := tx.Exec(dict, "get", "b"); got != "" {
		t.Fatalf("b = %q, want rolled back", got)
	}
	if got, _ := tx.Exec(dict, "get", "c"); got != "" {
		t.Fatalf("c = %q, want rolled back", got)
	}
	// The transaction continues and commits normally.
	if _, err := tx.Exec(dict, "put", "b", "b2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := db.Begin()
	a, _ := check.Exec(dict, "get", "a")
	b, _ := check.Exec(dict, "get", "b")
	_ = check.Commit()
	if a != "a1" || b != "b2" {
		t.Fatalf("a=%q b=%q", a, b)
	}
	// The whole trace (including the savepoint compensations) validates.
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("trace must validate: %+v", rep)
	}
}

func TestSavepointNesting(t *testing.T) {
	savepointProtocols(t, testSavepointNesting)
}

func testSavepointNesting(t *testing.T, p ProtocolKind) {
	db := Open(Options{Protocol: p})
	dict := registerDict(t, db, "a", "b")

	tx := db.Begin()
	sp1 := tx.Savepoint()
	_, _ = tx.Exec(dict, "put", "a", "a1")
	sp2 := tx.Savepoint()
	_, _ = tx.Exec(dict, "put", "b", "b1")

	if err := tx.RollbackTo(sp2); err != nil {
		t.Fatal(err)
	}
	if got, _ := tx.Exec(dict, "get", "a"); got != "a1" {
		t.Fatalf("a = %q after inner rollback", got)
	}
	if err := tx.RollbackTo(sp1); err != nil {
		t.Fatal(err)
	}
	if got, _ := tx.Exec(dict, "get", "a"); got != "" {
		t.Fatalf("a = %q after outer rollback", got)
	}
	// Rolling back to the INNER savepoint after the outer rollback fails.
	if err := tx.RollbackTo(sp2); err == nil {
		t.Fatal("invalidated savepoint must be rejected")
	}
	_ = tx.Commit()
}

func TestSavepointWrongTxn(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	_ = registerDict(t, db, "a")
	t1 := db.Begin()
	t2 := db.Begin()
	sp := t1.Savepoint()
	if err := t2.RollbackTo(sp); err == nil {
		t.Fatal("cross-transaction savepoint must be rejected")
	}
	_ = t1.Abort()
	_ = t2.Abort()
}

func TestSavepointAfterFinishFails(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested})
	dict := registerDict(t, db, "a")
	tx := db.Begin()
	sp := tx.Savepoint()
	_, _ = tx.Exec(dict, "put", "a", "x")
	_ = tx.Commit()
	if err := tx.RollbackTo(sp); err == nil {
		t.Fatal("rollback after commit must fail")
	}
}

func TestSavepointRetainsLocks(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested, LockTimeout: 5 * time.Second})
	dict := registerDict(t, db, "a")

	t1 := db.Begin()
	sp := t1.Savepoint()
	if _, err := t1.Exec(dict, "put", "a", "v"); err != nil {
		t.Fatal(err)
	}
	if err := t1.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	// The dictionary-level semantic lock survives the partial rollback: a
	// conflicting same-key put still blocks until t1 finishes.
	done := make(chan error, 1)
	go func() {
		t2 := db.Begin()
		_, err := t2.Exec(dict, "put", "a", "w")
		if err == nil {
			err = t2.Commit()
		} else {
			_ = t2.Abort()
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("savepoint rollback must retain isolation")
	case <-time.After(80 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
