//go:build race

package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/commut"
	"repro/internal/txn"
)

// TestRecycledRecordPanics: in race builds each record counts its lives, so
// a method that keeps its Ctx past the call and uses it after the
// transaction ended panics instead of reading a reused record.
func TestRecycledRecordPanics(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	var kept *Ctx
	typ := &ObjectType{
		Name: "keeper",
		Spec: commut.NewMatrix(),
		Methods: map[string]MethodFunc{
			"keep": func(c *Ctx, self txn.OID, params []string) (string, error) {
				kept = c
				return "", nil
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec(txn.OID{Type: "keeper", Name: "K"}, "keep"); err != nil {
		t.Fatal(err)
	}
	if id := kept.TxnID(); id != tx.ID() {
		t.Fatalf("live Ctx names %q, want %q", id, tx.ID())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "after its transaction ended") {
			t.Fatalf("use after recycle: recovered %v, want the guard's panic", r)
		}
	}()
	kept.TxnID()
}
