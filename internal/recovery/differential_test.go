package recovery

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The differential test holds runtime abort and restart undo to one
// contract: from the same crash image, aborting every in-flight
// transaction in the running engine and recovering the image must reach
// the same abstract state — and, where undo is purely physical, the same
// page bytes.

const diffAccounts = 4

var (
	diffKeys      = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"}
	diffKVKeys    = []string{"a", "b", "c"}
	diffProtocols = []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage, core.Protocol2PLObject, core.ProtocolClosedNested}
)

// diffDB is one engine with every catalog type installed: banking
// accounts on pages 1..diffAccounts, the system catalog, an encyclopedia
// whose B+ tree has fanout 2 (so the root splits early), and kv.
type diffDB struct {
	db    *core.DB
	enc   *enc.Encyclopedia
	accts []txn.OID
}

func diffOptions(p core.ProtocolKind) core.Options {
	return core.Options{Protocol: p, LockTimeout: 2 * time.Second,
		DisableTrace: true, DisableObs: true, DisableSpans: true}
}

func openDiffDB(p core.ProtocolKind, rp *regPages) (*diffDB, storage.PageID, error) {
	db := core.Open(diffOptions(p))
	accts, err := workload.InstallBanking(db, diffAccounts, 100)
	if err != nil {
		return nil, 0, err
	}
	cat, err := catalog.Install(db)
	if err != nil {
		return nil, 0, err
	}
	encs, err := installEnc(db)
	if err != nil {
		return nil, 0, err
	}
	encs.SetCatalog(cat)
	e, err := encs.New("Enc", 2, 4)
	if err != nil {
		return nil, 0, err
	}
	if err := registerKV(db, rp); err != nil {
		return nil, 0, err
	}
	return &diffDB{db: db, enc: e, accts: accts}, cat.PageID(), nil
}

// attachDiffDB is the recovery hook: the same types, re-bound through the
// catalog page alone.
func attachDiffDB(db *core.DB, catPage storage.PageID, rp *regPages) (*diffDB, error) {
	accts, err := workload.RegisterBanking(db, diffAccounts)
	if err != nil {
		return nil, err
	}
	encs, err := installEnc(db)
	if err != nil {
		return nil, err
	}
	cat := catalog.Attach(db, catPage)
	encs.SetCatalog(cat)
	e, err := encs.AttachFromCatalog(cat, "Enc")
	if err != nil {
		return nil, err
	}
	if err := registerKV(db, rp); err != nil {
		return nil, err
	}
	return &diffDB{db: db, enc: e, accts: accts}, nil
}

func installEnc(db *core.DB) (*enc.Module, error) {
	trees, err := btree.Install(db)
	if err != nil {
		return nil, err
	}
	lists, err := list.Install(db)
	if err != nil {
		return nil, err
	}
	return enc.Install(db, trees, lists)
}

// diffDomain is what one in-flight transaction may touch.
type diffDomain struct {
	encKeys []string
	kvKeys  []string
	accts   []int
}

// randomOp draws one operation from the domain.
func (d *diffDB) randomOp(r *rand.Rand, dom diffDomain, tag string) (txn.OID, string, []string) {
	for {
		switch r.Intn(3) {
		case 0:
			if len(dom.encKeys) == 0 {
				continue
			}
			k := dom.encKeys[r.Intn(len(dom.encKeys))]
			switch r.Intn(4) {
			case 0:
				return d.enc.OID(), "delete", []string{k}
			case 1:
				return d.enc.OID(), "update", []string{k, "u" + tag}
			default:
				return d.enc.OID(), "insert", []string{k, "v" + tag}
			}
		case 1:
			if len(dom.kvKeys) == 0 {
				continue
			}
			return kvOID, "put", []string{dom.kvKeys[r.Intn(len(dom.kvKeys))], "p" + tag}
		default:
			if len(dom.accts) == 0 {
				continue
			}
			// Debits of up to 60 against balances of about 100 fail now and
			// then: a runtime abort of the failing subtransaction.
			method := []string{"credit", "debit"}[r.Intn(2)]
			return d.accts[dom.accts[r.Intn(len(dom.accts))]], method, []string{strconv.Itoa(1 + r.Intn(60))}
		}
	}
}

// state reads the abstract state every protocol must agree on: the list
// order, a search of every key, the balances and the kv values.
func (d *diffDB) state() (string, error) {
	tx := d.db.Begin()
	defer func() { _ = tx.Commit() }()
	var sb strings.Builder
	seq, err := tx.Exec(d.enc.OID(), "readSeq")
	if err != nil {
		return "", fmt.Errorf("readSeq: %w", err)
	}
	fmt.Fprintf(&sb, "seq=%s\n", seq)
	for _, k := range diffKeys {
		v, err := tx.Exec(d.enc.OID(), "search", k)
		if err != nil {
			return "", fmt.Errorf("search %s: %w", k, err)
		}
		fmt.Fprintf(&sb, "%s=%s ", k, v)
	}
	for i, a := range d.accts {
		b, err := tx.Exec(a, "balance")
		if err != nil {
			return "", fmt.Errorf("balance %d: %w", i, err)
		}
		fmt.Fprintf(&sb, "\nacct%d=%s", i, b)
	}
	for _, k := range diffKVKeys {
		v, err := tx.Exec(kvOID, "get", k)
		if err != nil {
			return "", fmt.Errorf("kv get %s: %w", k, err)
		}
		fmt.Fprintf(&sb, "\nkv.%s=%s", k, v)
	}
	return sb.String(), nil
}

// pages flushes the pool and returns every page of the backing store.
func (d *diffDB) pages() ([]string, error) {
	if err := d.db.FlushAll(); err != nil {
		return nil, err
	}
	disk, _ := d.db.CrashImage()
	out := make([]string, disk.NumPages())
	for i := range out {
		v, err := disk.Read(storage.PageID(i + 1))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// diffCheck runs one seed: a committed prefix with runtime aborts, 1-3
// transactions left in flight, then runtime abort against restart
// recovery of the same crash image.
func diffCheck(p core.ProtocolKind, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	rp := &regPages{}
	d, catPage, err := openDiffDB(p, rp)
	if err != nil {
		return err
	}
	all := diffDomain{encKeys: diffKeys, kvKeys: diffKVKeys, accts: []int{0, 1, 2, 3}}

	// Committed prefix. A failing operation was rolled back as a
	// subtransaction; the transaction goes on. Some transactions abort,
	// some roll back to a savepoint first.
	for i, n := 0, 4+r.Intn(7); i < n; i++ {
		tx := d.db.Begin()
		var sp core.Savepoint
		spAt := -1
		if r.Intn(5) == 0 {
			spAt = r.Intn(3)
		}
		ops := 1 + r.Intn(4)
		for j := 0; j < ops; j++ {
			if j == spAt {
				sp = tx.Savepoint()
			}
			obj, m, params := d.randomOp(r, all, fmt.Sprintf("%d.%d", i, j))
			_, _ = tx.Exec(obj, m, params...)
		}
		if spAt >= 0 && spAt < ops {
			if err := tx.RollbackTo(sp); err != nil {
				return fmt.Errorf("rollback to savepoint: %w", err)
			}
		}
		if r.Intn(4) == 0 {
			if err := tx.Abort(); err != nil {
				return err
			}
		} else if err := tx.Commit(); err != nil {
			return err
		}
	}

	// In-flight transactions. Open nesting interleaves them on commuting
	// keys; the locking protocols get disjoint domains so no step blocks.
	nl := 1 + r.Intn(3)
	doms := make([]diffDomain, nl)
	if p == core.ProtocolOpenNested {
		keys := r.Perm(len(diffKeys))
		for i, k := range keys {
			doms[i%nl].encKeys = append(doms[i%nl].encKeys, diffKeys[k])
		}
		for i, k := range r.Perm(len(diffKVKeys)) {
			doms[i%nl].kvKeys = append(doms[i%nl].kvKeys, diffKVKeys[k])
		}
		// Accounts are split too. Escrow lets credits and debits of
		// different transactions interleave, but per-transaction aborts
		// then undo them in another order than restart's one backward
		// sweep, and a debit that compensates a credit can fail for funds
		// in one order and not the other (a known gap, not checked here).
		for i, a := range r.Perm(diffAccounts) {
			doms[i%nl].accts = append(doms[i%nl].accts, a)
		}
	} else {
		for i, k := range r.Perm(3)[:nl] {
			switch k {
			case 0:
				doms[i].encKeys = diffKeys
			case 1:
				doms[i].kvKeys = diffKVKeys
			default:
				doms[i].accts = all.accts
			}
		}
	}
	losers := make([]*core.Txn, nl)
	for i := range losers {
		losers[i] = d.db.Begin()
	}
	for step, n := 0, 1+r.Intn(5); step < n; step++ {
		for i, tx := range losers {
			obj, m, params := d.randomOp(r, doms[i], fmt.Sprintf("L%d.%d", i, step))
			if _, err := tx.Exec(obj, m, params...); err != nil && !strings.Contains(err.Error(), "insufficient funds") {
				return fmt.Errorf("in-flight %s.%s: %w", obj.Name, m, err)
			}
		}
	}

	disk, wal := d.db.CrashImage()

	// (a) Runtime abort.
	for i := len(losers) - 1; i >= 0; i-- {
		if err := losers[i].Abort(); err != nil {
			return err
		}
	}
	want, err := d.state()
	if err != nil {
		return fmt.Errorf("after runtime abort: %w", err)
	}

	// (b) Restart recovery of the image.
	var d2 *diffDB
	if _, _, err := Recover(disk, wal, diffOptions(p), func(db *core.DB) (err error) {
		d2, err = attachDiffDB(db, catPage, rp)
		return err
	}); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	got, err := d2.state()
	if err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if got != want {
		return fmt.Errorf("abstract state diverges\nruntime abort:\n%s\nrecovery:\n%s", want, got)
	}
	if p == core.ProtocolOpenNested {
		return nil // logical undo leaves a different, equivalent layout
	}
	pa, err := d.pages()
	if err != nil {
		return err
	}
	pb, err := d2.pages()
	if err != nil {
		return err
	}
	if len(pa) != len(pb) {
		return fmt.Errorf("page count: runtime abort %d, recovery %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return fmt.Errorf("page %d: runtime abort %q, recovery %q", i+1, pa[i], pb[i])
		}
	}
	return nil
}

// TestAbortMatchesRestart is the differential test: per protocol, seeded
// random histories whose in-flight transactions are rolled back once by
// Abort and once by Recover of the crash image taken before the aborts.
func TestAbortMatchesRestart(t *testing.T) {
	seeds := int64(500)
	if testing.Short() || raceEnabled {
		seeds = 60
	}
	for _, p := range diffProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				if err := diffCheck(p, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestRestartAfterLoserRootSplit keeps seeds on which, before the fix, a
// loser that split the B+ tree root left a tree the recovered engine could
// not read under each physical protocol: registerTypes attaches from the
// catalog between redo and undo, so the tree cached the loser's new root,
// which physical undo then restored to "" (and the catalog to the old
// root).
func TestRestartAfterLoserRootSplit(t *testing.T) {
	for _, p := range diffProtocols[1:] {
		t.Run(p.String(), func(t *testing.T) {
			for _, seed := range []int64{2, 9, 24, 26, 36} {
				if err := diffCheck(p, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
