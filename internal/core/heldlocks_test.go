package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The lock-lifetime invariant: no lock taken on behalf of a subtransaction
// outlives its caller. Under open nesting a completed action releases what
// it holds early (the objects on its held list) or hands it to its parent;
// under the closed and flat protocols everything ends up on the root. So
// once a top-level Exec returns, every owner in the lock table is a live
// root, and once the transaction commits or aborts the table is empty. An
// object missing from a held list leaves a dotted owner behind.

var lockProtocols = []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage,
	core.Protocol2PLObject, core.ProtocolClosedNested}

var invKVKeys = []string{"a", "b", "c"}

// lockOwners returns the owner of every grant the lock table shows.
func lockOwners(db *core.DB) []string {
	var out []string
	for _, line := range strings.Split(db.LockTable(), "\n") {
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			if owner, _, ok := strings.Cut(f[i], "/"); ok {
				out = append(out, owner)
			}
		}
	}
	return out
}

// strayOwner returns a grant owner within root's tree other than root
// itself — with root == "", any owner that is not a root — or "".
func strayOwner(db *core.DB, root string) string {
	for _, o := range lockOwners(db) {
		if r, _, sub := strings.Cut(o, "."); sub && (root == "" || r == root) {
			return o
		}
	}
	return ""
}

func checkOwners(t *testing.T, db *core.DB, after string) {
	t.Helper()
	if o := strayOwner(db, ""); o != "" {
		t.Fatalf("after %s: sub-lock owner %s outlived its caller\n%s", after, o, db.LockTable())
	}
}

func checkEmpty(t *testing.T, db *core.DB, after string) {
	t.Helper()
	if tbl := db.LockTable(); tbl != "" {
		t.Fatalf("after %s: lock table not empty\n%s", after, tbl)
	}
}

// installKV registers a keyed store, one page per key: put reads the old
// value and writes the new one, compensated by putting the old value back.
func installKV(db *core.DB) (txn.OID, error) {
	pages := map[string]txn.OID{}
	for _, k := range invKVKeys {
		pages[k] = db.AllocPage()
	}
	err := db.RegisterType(&core.ObjectType{
		Name:     "kv",
		Spec:     commut.KeyedSpec([]string{"get"}, []string{"put"}),
		ReadOnly: map[string]bool{"get": true},
		Methods: map[string]core.MethodFunc{
			"put": func(c *core.Ctx, _ txn.OID, params []string) (string, error) {
				old, err := c.Call(pages[params[0]], "readx")
				if err != nil {
					return "", err
				}
				_, err = c.Call(pages[params[0]], "write", params[1])
				return old, err
			},
			"get": func(c *core.Ctx, _ txn.OID, params []string) (string, error) {
				return c.Call(pages[params[0]], "read")
			},
		},
		Compensate: map[string]core.CompensateFunc{
			"put": func(params []string, result string) (string, []string, bool) {
				return "put", []string{params[0], result}, true
			},
		},
	})
	return txn.OID{Type: "kv", Name: "KV"}, err
}

// lockDB is one engine with banking accounts, an encyclopedia whose B+ tree
// splits early, and the kv store.
type lockDB struct {
	db    *core.DB
	enc   txn.OID
	kv    txn.OID
	accts []txn.OID
}

func openLockDB(t *testing.T, p core.ProtocolKind) *lockDB {
	t.Helper()
	db := core.Open(core.Options{Protocol: p, LockTimeout: 5 * time.Second,
		DisableTrace: true, DisableObs: true})
	accts, err := workload.InstallBanking(db, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	e, err := workload.InstallEncyclopedia(db, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := installKV(db)
	if err != nil {
		t.Fatal(err)
	}
	return &lockDB{db: db, enc: e, kv: kv, accts: accts}
}

// randomCall draws one top-level call: encyclopedia reads and writes
// (including readSeq, which holds a lock per item read), kv puts and gets,
// and account credits, debits (failing now and then: a subtree abort) and
// balance reads.
func (d *lockDB) randomCall(r *rand.Rand, tag string) core.ParCall {
	k := "k" + strconv.Itoa(r.Intn(8))
	switch r.Intn(10) {
	case 0:
		return core.ParCall{Obj: d.enc, Method: "insert", Params: []string{k, "v" + tag}}
	case 1:
		return core.ParCall{Obj: d.enc, Method: "update", Params: []string{k, "u" + tag}}
	case 2:
		return core.ParCall{Obj: d.enc, Method: "delete", Params: []string{k}}
	case 3:
		return core.ParCall{Obj: d.enc, Method: "search", Params: []string{k}}
	case 4:
		return core.ParCall{Obj: d.enc, Method: "readSeq"}
	case 5:
		return core.ParCall{Obj: d.kv, Method: "put", Params: []string{invKVKeys[r.Intn(len(invKVKeys))], "p" + tag}}
	case 6:
		return core.ParCall{Obj: d.kv, Method: "get", Params: []string{invKVKeys[r.Intn(len(invKVKeys))]}}
	case 7:
		return core.ParCall{Obj: d.accts[r.Intn(len(d.accts))], Method: "balance"}
	default:
		method := []string{"credit", "debit"}[r.Intn(2)]
		return core.ParCall{Obj: d.accts[r.Intn(len(d.accts))], Method: method,
			Params: []string{strconv.Itoa(1 + r.Intn(80))}}
	}
}

// parallelCalls draws branches that touch disjoint objects below the top
// level — distinct accounts and kv keys, and an encyclopedia search — so
// the flat protocols, which do not isolate a transaction's branches from
// each other, run them safely too.
func (d *lockDB) parallelCalls(r *rand.Rand, tag string) []core.ParCall {
	acct := r.Perm(len(d.accts))
	key := r.Perm(len(invKVKeys))
	return []core.ParCall{
		{Obj: d.accts[acct[0]], Method: "credit", Params: []string{strconv.Itoa(1 + r.Intn(20))}},
		{Obj: d.accts[acct[1]], Method: "debit", Params: []string{strconv.Itoa(1 + r.Intn(80))}},
		{Obj: d.kv, Method: "put", Params: []string{invKVKeys[key[0]], "q" + tag}},
		{Obj: d.enc, Method: "search", Params: []string{"k" + strconv.Itoa(r.Intn(8))}},
	}
}

// TestNoSubLockOutlivesCaller runs seeded single-stream histories — random
// calls, parallel branches, savepoint rollbacks (compensations under open
// nesting), aborts and commits — and checks the lock table after every
// step.
func TestNoSubLockOutlivesCaller(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for _, p := range lockProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				r := rand.New(rand.NewSource(seed))
				d := openLockDB(t, p)
				for i := 0; i < 12; i++ {
					tx := d.db.Begin()
					var sp core.Savepoint
					spAt := -1
					if r.Intn(4) == 0 {
						spAt = r.Intn(3)
					}
					ops := 1 + r.Intn(5)
					for j := 0; j < ops; j++ {
						if j == spAt {
							sp = tx.Savepoint()
						}
						tag := fmt.Sprintf("%d.%d.%d", seed, i, j)
						if r.Intn(5) == 0 {
							_, _ = tx.ExecParallel(d.parallelCalls(r, tag))
							checkOwners(t, d.db, "ExecParallel "+tag)
							continue
						}
						c := d.randomCall(r, tag)
						_, _ = tx.Exec(c.Obj, c.Method, c.Params...)
						checkOwners(t, d.db, fmt.Sprintf("Exec %s.%s %s", c.Obj.Name, c.Method, tag))
					}
					if spAt >= 0 && spAt < ops {
						if err := tx.RollbackTo(sp); err != nil {
							t.Fatal(err)
						}
						checkOwners(t, d.db, "RollbackTo")
					}
					if r.Intn(3) == 0 {
						if err := tx.Abort(); err != nil {
							t.Fatal(err)
						}
						checkEmpty(t, d.db, "Abort")
					} else {
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						checkEmpty(t, d.db, "Commit")
					}
				}
			}
		})
	}
}

// TestNoSubLockOutlivesDeadlockVictim: two transactions put the kv keys in
// opposite orders from two goroutines, so under every protocol that
// isolates them they deadlock (or, under object locking, serialize) and a
// victim's failed Exec rolls back its subtree. Each transaction's own
// sub-locks must be gone after each of its Execs, and the table must be
// empty once both have finished.
func TestNoSubLockOutlivesDeadlockVictim(t *testing.T) {
	for _, p := range lockProtocols {
		t.Run(p.String(), func(t *testing.T) {
			d := openLockDB(t, p)
			victims := 0
			for round := 0; round < 5; round++ {
				var wg sync.WaitGroup
				firstDone := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
				errs := make([]error, 2)
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						keys := []string{"a", "b"}
						if g == 1 {
							keys = []string{"b", "a"}
						}
						tx := d.db.Begin()
						tag := fmt.Sprintf("r%d.g%d", round, g)
						for i, k := range keys {
							_, err := tx.Exec(d.kv, "put", k, tag)
							if o := strayOwner(d.db, tx.ID()); o != "" {
								t.Errorf("after put %s %s: sub-lock owner %s outlived its caller", k, tag, o)
							}
							if i == 0 {
								close(firstDone[g])
								// Wait for the other's first put, unless it is
								// blocked behind ours (object locking).
								select {
								case <-firstDone[1-g]:
								case <-time.After(100 * time.Millisecond):
								}
							}
							if err != nil {
								errs[g] = err
								_ = tx.Abort()
								return
							}
						}
						errs[g] = tx.Commit()
					}(g)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil && !errors.Is(err, cc.ErrDeadlock) && !errors.Is(err, cc.ErrDoomed) {
						t.Fatalf("round %d: %v", round, err)
					}
					if err != nil {
						victims++
					}
				}
				checkEmpty(t, d.db, fmt.Sprintf("round %d", round))
			}
			if p != core.Protocol2PLObject && victims == 0 {
				t.Fatal("no deadlock victim in any round")
			}
		})
	}
}
