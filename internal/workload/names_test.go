package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

// TestNonCanonicalNamesRefused: Sscanf read "Acct05", "Acct+5", "Acct5x"
// and "Acct 5" as account 5, so a client's balance(Acct05) reached account
// 5's page under a lock-table resource that an uncommitted debit(Acct5)
// did not hold, and saw a balance a later abort could change. The same
// spellings of section 5 made two edits of one section page commute. Every
// alias is refused under all four locking protocols; the canonical name
// is served.
func TestNonCanonicalNamesRefused(t *testing.T) {
	aliases := []string{"05", "+5", "5x", " 5"}
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.ProtocolClosedNested,
		core.Protocol2PLPage, core.Protocol2PLObject} {
		t.Run(p.String(), func(t *testing.T) {
			db := core.Open(core.Options{Protocol: p, LockTimeout: 20 * time.Millisecond})
			if _, err := InstallBanking(db, 8, 100); err != nil {
				t.Fatal(err)
			}
			doc, err := installDocument(db, 8)
			if err != nil {
				t.Fatal(err)
			}
			exec := func(obj txn.OID, method string, params ...string) error {
				tx := db.Begin()
				if _, err := tx.Exec(obj, method, params...); err != nil {
					if aerr := tx.Abort(); aerr != nil {
						t.Fatal(aerr)
					}
					return err
				}
				return tx.Commit()
			}
			acct := func(n string) txn.OID { return txn.OID{Type: AccountType, Name: "Acct" + n} }
			for _, n := range aliases {
				if err := exec(acct(n), "balance"); err == nil {
					t.Errorf("balance(Acct%s) accepted", n)
				}
				if err := exec(acct(n), "credit", "1"); err == nil {
					t.Errorf("credit(Acct%s) accepted", n)
				}
				if err := exec(doc, "edit", "sec"+n, "x", "0"); err == nil {
					t.Errorf("edit(sec%s) accepted", n)
				}
				if err := exec(doc, "read", "sec"+n); err == nil {
					t.Errorf("read(sec%s) accepted", n)
				}
			}
			if err := exec(acct("5"), "credit", "1"); err != nil {
				t.Errorf("credit(Acct5) = %v", err)
			}
			if err := exec(doc, "edit", "sec5", "x", "0"); err != nil {
				t.Errorf("edit(sec5) = %v", err)
			}
			if err := exec(doc, "read", "sec5"); err != nil {
				t.Errorf("read(sec5) = %v", err)
			}
		})
	}
}
