// Banking: the "conventional transactions" column of the paper's Figure 1,
// plus escrow commutativity (the paper's references [9,14,17]). Transfers
// between accounts run concurrently; under open nesting, credits and
// debits on the same account commute (the escrow argument), while
// page-level 2PL serializes them and deadlocks on opposite transfer
// directions. A compensated abort demonstrates logical undo, and the
// commut.Escrow specification is shown standalone.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	// Part 1: the concurrent transfer workload under both protocols.
	run := func(p core.ProtocolKind) workload.Result {
		res, err := workload.RunBanking(workload.BankingConfig{
			Engine:        core.Options{Protocol: p, PageIODelay: 10 * time.Microsecond},
			Workers:       6,
			TxnsPerWorker: 50,
			Accounts:      8,
			HotPct:        40, // a hot branch account
			Seed:          7,
			Validate:      true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Println("300 transfers across 8 accounts, 40% touching the hot account:")
	fmt.Println()
	twopl := run(core.Protocol2PLPage)
	open := run(core.ProtocolOpenNested)
	fmt.Println(workload.Table([]workload.Result{twopl, open}))
	fmt.Println("money conserved under both protocols (checked by the harness);")
	fmt.Printf("escrow semantics eliminated %d deadlocks and cut waits from %s to %s.\n\n",
		twopl.Deadlocks-open.Deadlocks,
		twopl.WaitTime.Round(time.Millisecond), open.WaitTime.Round(time.Millisecond))

	// Part 2: the stateful escrow specification by itself — the paper's
	// refs [9,14,17]: near a bound, updates STOP commuting.
	acct := commut.NewEscrow(100, 0, 1000)
	small := commut.Invocation{Method: "decr", Params: []string{"30"}}
	large := commut.Invocation{Method: "decr", Params: []string{"60"}}
	fmt.Println("escrow account: balance=100, bounds [0,1000]")
	fmt.Printf("  decr(30) vs decr(30) commute: %v (60 <= 100, safe in any order)\n",
		acct.Commutes(small, small))
	fmt.Printf("  decr(60) vs decr(60) commute: %v (120 > 100, order matters!)\n",
		acct.Commutes(large, large))

	// Part 3: compensation — an aborted deposit is undone by a debit.
	db := core.Open(core.Options{})
	oid, err := installOneAccount(db, 500)
	if err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec(oid, "credit", "250"); err != nil {
		log.Fatal(err)
	}
	_ = tx.Abort() // compensation: debit(250)

	tx2 := db.Begin()
	bal, err := tx2.Exec(oid, "balance")
	if err != nil {
		log.Fatal(err)
	}
	_ = tx2.Commit()
	fmt.Printf("\nafter an aborted credit of 250 (compensated by a debit): balance=%s\n", bal)
	fmt.Printf("compensations executed: %d\n", db.Stats().Compensations)
}

// installOneAccount registers a minimal account type for the compensation
// demonstration and funds it with the initial balance.
func installOneAccount(db *core.DB, initial int64) (txn.OID, error) {
	page := db.AllocPage()
	delta := func(c *core.Ctx, amtStr string, sign int64) error {
		old, err := c.Call(page, "readx")
		if err != nil {
			return err
		}
		var n int64
		if old != "" {
			n, _ = strconv.ParseInt(old, 10, 64)
		}
		amt, err := strconv.ParseInt(amtStr, 10, 64)
		if err != nil {
			return err
		}
		_, err = c.Call(page, "write", strconv.FormatInt(n+sign*amt, 10))
		return err
	}
	typ := &core.ObjectType{
		Name:     "acct",
		Spec:     workload.AccountSpec(),
		ReadOnly: map[string]bool{"balance": true},
		Methods: map[string]core.MethodFunc{
			"credit": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				return "", delta(c, params[0], +1)
			},
			"debit": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				return "", delta(c, params[0], -1)
			},
			"balance": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(page, "read")
			},
		},
		Compensate: map[string]core.CompensateFunc{
			"credit": func(params []string, result string) (string, []string, bool) {
				return "debit", []string{params[0]}, true
			},
			"debit": func(params []string, result string) (string, []string, bool) {
				return "credit", []string{params[0]}, true
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		return txn.OID{}, err
	}
	oid := txn.OID{Type: "acct", Name: "Demo"}
	tx := db.Begin()
	if _, err := tx.Exec(oid, "credit", strconv.FormatInt(initial, 10)); err != nil {
		_ = tx.Abort()
		return txn.OID{}, err
	}
	return oid, tx.Commit()
}
