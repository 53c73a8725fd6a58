package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The banking workload covers Figure 1's "conventional transactions"
// column — short transactions on small objects — and demonstrates escrow
// commutativity (the paper's references [9,14,17]): credits and debits on
// the same account commute as long as balances cannot go negative, so
// semantic locking admits concurrent updates that page-level 2PL
// serializes.

// AccountType is the object type of bank accounts.
const AccountType = "account"

// AccountSpec: credits always commute; debits commute with credits and
// debits (the runtime check inside the method enforces non-negativity, the
// escrow argument for why this is safe); balance reads conflict with
// updates.
func AccountSpec() commut.Spec {
	return commut.NewMatrix().
		SetCommutes("credit", "credit").
		SetCommutes("credit", "debit").
		SetCommutes("debit", "debit").
		SetConflicts("balance", "credit").
		SetConflicts("balance", "debit").
		SetCommutes("balance", "balance")
}

// BankingConfig drives the banking workload.
type BankingConfig struct {
	// Engine configures the engine the run opens (see Config.Engine). The
	// runner overrides Engine.DisableTrace — the trace is recorded iff
	// Validate is set — and turns a zero LockTimeout into 10s.
	Engine        core.Options
	Workers       int
	TxnsPerWorker int
	Accounts      int
	// InitialBalance per account.
	InitialBalance int64
	// HotPct routes this percentage of updates to account 0 (a hot spot,
	// e.g. a branch cash account).
	HotPct     int
	Seed       int64
	Validate   bool
	MaxRetries int
}

// InstallBanking registers the account type on a caller-owned engine and
// funds n accounts ("Acct0".."Acct<n-1>") with the initial balance each.
// It is the setup half of RunBanking, exported so network-facing drivers
// (cmd/oodbd, the loopback benchmark) can serve the same workload over
// internal/server instead of in-process.
func InstallBanking(db *core.DB, n int, initial int64) ([]txn.OID, error) {
	accts, err := RegisterBanking(db, n)
	if err != nil {
		return nil, err
	}
	// Fund the accounts.
	for _, a := range accts {
		tx := db.Begin()
		if _, err := tx.Exec(a, "credit", strconv.FormatInt(initial, 10)); err != nil {
			_ = tx.Abort()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return accts, nil
}

// RegisterBanking is the write-free half of InstallBanking: it registers
// the account type and allocates its pages but funds nothing — the shape a
// recovery register hook must have (recovery.RegisterTypes, or
// partition.Options.Register on the Recover path), where the balances come
// back from the log, not from a fresh funding transaction.
//
// Account i lives on the fixed page i+1, and allocation only tops the
// store up to n pages: on a recovered engine the redo pass has already
// materialized those pages, so the hook must re-derive the same mapping
// rather than allocate fresh (higher) ids that would strand the logged
// balances.
func RegisterBanking(db *core.DB, n int) ([]txn.OID, error) {
	for db.NumPages() < n {
		db.AllocPage()
	}
	pages := make([]txn.OID, n)
	for i := range pages {
		pages[i] = core.PageOID(storage.PageID(i + 1))
	}
	pageFor := func(self txn.OID) (txn.OID, error) {
		if idx, ok := core.NameIndex(self.Name, "Acct"); ok && idx < uint64(n) {
			return pages[idx], nil
		}
		return txn.OID{}, fmt.Errorf("banking: bad account %q", self.Name)
	}
	readBalance := func(c *core.Ctx, pg txn.OID, how string) (int64, error) {
		s, err := c.Call(pg, how)
		if err != nil {
			return 0, err
		}
		if s == "" {
			return 0, nil
		}
		return strconv.ParseInt(s, 10, 64)
	}
	typ := &core.ObjectType{
		Name: AccountType,
		Spec: AccountSpec(),
		ReadOnly: map[string]bool{
			"balance": true,
		},
		Methods: map[string]core.MethodFunc{
			"credit": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg, err := pageFor(self)
				if err != nil {
					return "", err
				}
				amt, err := strconv.ParseInt(params[0], 10, 64)
				if err != nil || amt < 0 {
					return "", fmt.Errorf("banking: bad amount %q", params[0])
				}
				bal, err := readBalance(c, pg, "readx")
				if err != nil {
					return "", err
				}
				_, err = c.Call(pg, "write", strconv.FormatInt(bal+amt, 10))
				return "", err
			},
			"debit": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg, err := pageFor(self)
				if err != nil {
					return "", err
				}
				amt, err := strconv.ParseInt(params[0], 10, 64)
				if err != nil || amt < 0 {
					return "", fmt.Errorf("banking: bad amount %q", params[0])
				}
				bal, err := readBalance(c, pg, "readx")
				if err != nil {
					return "", err
				}
				if bal < amt {
					return "", fmt.Errorf("banking: insufficient funds on %s: %d < %d", self.Name, bal, amt)
				}
				_, err = c.Call(pg, "write", strconv.FormatInt(bal-amt, 10))
				return "", err
			},
			"balance": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg, err := pageFor(self)
				if err != nil {
					return "", err
				}
				bal, err := readBalance(c, pg, "read")
				if err != nil {
					return "", err
				}
				return strconv.FormatInt(bal, 10), nil
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
		return nil, err
	}
	accts := make([]txn.OID, n)
	for i := range accts {
		accts[i] = txn.OID{Type: AccountType, Name: fmt.Sprintf("Acct%d", i)}
	}
	return accts, nil
}

// RunBanking executes transfer transactions (debit one account, credit
// another) and reports metrics. TotalBalance invariance is checked at the
// end; a violation is returned as an error.
func RunBanking(cfg BankingConfig) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.TxnsPerWorker <= 0 {
		cfg.TxnsPerWorker = 100
	}
	if cfg.Accounts <= 1 {
		cfg.Accounts = 16
	}
	if cfg.InitialBalance <= 0 {
		cfg.InitialBalance = 1_000_000
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	db, closeDB, err := openDB(cfg.Engine, cfg.Validate)
	if err != nil {
		return Result{}, err
	}
	defer closeDB()
	accts, err := InstallBanking(db, cfg.Accounts, cfg.InitialBalance)
	if err != nil {
		return Result{}, err
	}
	preLock := db.LockStats()
	preEng := db.Stats()

	elapsed, retries, err := closedLoop(cfg.Workers, cfg.TxnsPerWorker, cfg.Seed, 6151,
		func(_ int, rr *rand.Rand) func(int, *int64) error {
			return func(_ int, retries *int64) error {
				from := rr.Intn(cfg.Accounts)
				to := rr.Intn(cfg.Accounts)
				if rr.Intn(100) < cfg.HotPct {
					to = 0
				}
				if from == to {
					to = (to + 1) % cfg.Accounts
				}
				amt := []string{strconv.Itoa(1 + rr.Intn(100))}
				return execOps(db, cfg.MaxRetries, retries, nil, []opCall{
					{obj: accts[from], method: "debit", params: amt},
					{obj: accts[to], method: "credit", params: amt},
				})
			}
		})
	if err != nil {
		return Result{}, err
	}
	res, err := finishResult(db, "banking", cfg.Engine.Protocol, cfg.Workers, cfg.Validate, elapsed, retries, preLock, preEng)
	if err != nil {
		return Result{}, err
	}

	// Invariant: total money is conserved (checked after the measurement
	// window so the balance reads do not pollute the counters).
	var total int64
	for _, a := range accts {
		tx := db.Begin()
		s, err := tx.Exec(a, "balance")
		if err != nil {
			_ = tx.Abort()
			return Result{}, err
		}
		_ = tx.Commit()
		bal, _ := strconv.ParseInt(s, 10, 64)
		total += bal
	}
	if want := cfg.InitialBalance * int64(cfg.Accounts); total != want {
		return Result{}, fmt.Errorf("banking: money not conserved: %d != %d", total, want)
	}
	return res, nil
}
