package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/txn"
)

// enc_inproc_hot: the paper's own scenario. An encyclopedia (B+-tree index,
// linked list, one page per item) called in-process under the open-nested
// protocol by transactions of four operations on a small, skewed set of
// keys. Dispatch, semantic locking, the commutativity tests and the three
// object types do all the work; wire, server, WAL files and replication do
// none.
const (
	encKeys      = 5000 // preloaded
	encHotKeys   = 2000 // the set transactions draw from
	encZipfS     = 1.2
	encOpsPerTxn = 4
	encLoadBatch = 50 // inserts per preload transaction
	// Operation mix in percent: insert, search, update, delete.
	encInsertPct, encSearchPct, encUpdatePct = 20, 60, 15
)

type encInproc struct {
	hot []int // zipf rank → key index, a seed-chosen subset of the preload
	enc txn.OID
	// ledger[w][k] folds every state of key k that caller w's acked writes
	// produced or replaced; see verify.
	ledger [][]uint64
	// burstChecked is set once the validation burst has run and passed.
	burstChecked bool
}

func encKey(i int) string { return "k" + strconv.Itoa(1000000+i) }

// encPreloadText is key i's text after set-up.
func encPreloadText(i int) string { return "p" + strconv.Itoa(i) }

// textHash is 64-bit FNV-1a, never 0 for the texts used here (0 stands
// for "absent" in the ledger).
func textHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h | 1
}

func (wl *encInproc) fixture(e *env) error {
	wl.hot = rand.New(rand.NewSource(e.seed)).Perm(encKeys)[:encHotKeys]
	return nil
}

// openEncyclopedia installs the module stack on db and creates the named
// encyclopedias (workload.InstallEncyclopedia does the same for one).
func openEncyclopedia(db *core.DB, names ...string) ([]txn.OID, error) {
	trees, err := btree.Install(db)
	if err != nil {
		return nil, err
	}
	lists, err := list.Install(db)
	if err != nil {
		return nil, err
	}
	encs, err := enc.Install(db, trees, lists)
	if err != nil {
		return nil, err
	}
	oids := make([]txn.OID, len(names))
	for i, name := range names {
		e, err := encs.New(name, 100, 50)
		if err != nil {
			return nil, err
		}
		oids[i] = e.OID()
	}
	return oids, nil
}

func (wl *encInproc) setup(e *env) (*system, error) {
	db := core.Open(core.Options{DisableTrace: true})
	oids, err := openEncyclopedia(db, "Enc")
	if err != nil {
		return nil, err
	}
	wl.enc = oids[0]
	for lo := 0; lo < encKeys; lo += encLoadBatch {
		err := db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
			for i := lo; i < lo+encLoadBatch && i < encKeys; i++ {
				if _, err := t.Exec(wl.enc, "insert", encKey(i), encPreloadText(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return &system{db: db, reg: db.Obs(), stop: db.Close}, nil
}

func (wl *encInproc) start(e *env, sys *system) error {
	wl.ledger = make([][]uint64, e.callers+1) // the last row is probeLayers'
	for w := range wl.ledger {
		wl.ledger[w] = make([]uint64, encKeys)
	}
	return nil
}

// encOp is one generated operation; text is empty for reads and deletes.
type encOp struct {
	method string
	key    int
	text   string
}

func (wl *encInproc) caller(e *env, sys *system, w int) txnFunc {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(w)))
	zipf := rand.NewZipf(rng, encZipfS, 1, encHotKeys-1)
	jitter := rand.New(rand.NewSource(int64(w) + 1))
	ledger := wl.ledger[w]
	var ops [encOpsPerTxn]encOp
	var folds [encOpsPerTxn]struct {
		key int
		h   uint64
	}
	writes := 0
	return func(tr *tracer) (int, error) {
		for i := range ops {
			op := encOp{key: wl.hot[zipf.Uint64()]}
			switch roll := rng.Intn(100); {
			case roll < encInsertPct:
				op.method = "insert"
			case roll < encInsertPct+encSearchPct:
				op.method = "search"
			case roll < encInsertPct+encSearchPct+encUpdatePct:
				op.method = "update"
			default:
				op.method = "delete"
			}
			if op.method == "insert" || op.method == "update" {
				// Every written text is unique, so a text names one write.
				writes++
				op.text = "c" + strconv.Itoa(w) + "n" + strconv.Itoa(writes)
			}
			ops[i] = op
		}
		var nfolds int
		attempts, err := coreTxn(sys.db, tr, jitter, func(t *core.Txn, parent uint64) error {
			nfolds = 0 // an aborted attempt's effects were compensated away
			for _, op := range ops {
				t0 := tr.now()
				var res string
				var err error
				if op.text != "" {
					res, err = t.Exec(wl.enc, op.method, encKey(op.key), op.text)
				} else {
					res, err = t.Exec(wl.enc, op.method, encKey(op.key))
				}
				tr.add("core.Exec", parent, t0)
				if err != nil {
					return err
				}
				if op.method == "search" {
					continue
				}
				// "old|<text>": the write replaced (or deleted) that text;
				// "new": an insert found the key absent; "miss": no effect.
				var h uint64
				if prev, replaced := strings.CutPrefix(res, "old|"); replaced {
					h = textHash(prev)
				} else if res != "new" && res != "miss" {
					return fmt.Errorf("%w: %s(%s) = %q", errCheck, op.method, encKey(op.key), res)
				}
				if res != "miss" && op.text != "" {
					h ^= textHash(op.text)
				}
				folds[nfolds].key, folds[nfolds].h = op.key, h
				nfolds++
			}
			return nil
		})
		if err == nil {
			for _, f := range folds[:nfolds] {
				ledger[f.key] ^= f.h
			}
		}
		return attempts, err
	}
}

// verify checks the index against the acked writes without needing their
// commit order. Each effective write on a key replaces exactly one state
// (a text, or absence) and produces one, and every text is unique; XOR-ing
// the hashes of all texts produced and all texts replaced therefore leaves
// the hash of the one text nothing replaced — the key's final text — or 0
// when the last effective write was a delete. The ledger starts from the
// preloaded text.
func (wl *encInproc) verify(e *env, sys *system) error {
	bad := 0
	err := sys.db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
		bad = 0
		for _, k := range wl.hot {
			want := textHash(encPreloadText(k))
			for _, l := range wl.ledger {
				want ^= l[k]
			}
			got, err := t.Exec(wl.enc, "search", encKey(k))
			if err != nil {
				return err
			}
			if (got == "" && want != 0) || (got != "" && textHash(got) != want) {
				if bad++; bad <= 3 {
					fmt.Fprintf(e.log, "enc_inproc_hot: key %s holds %q, which is not its last acked write\n", encKey(k), got)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d hot keys do not hold their last acked write", bad, len(wl.hot))
	}
	if !wl.burstChecked {
		_, err = wl.validateBurst(e)
	}
	return err
}

// probeLayers prices two things only this workload can: the executor's
// allocations per transaction with no concurrency, and the Definition 16
// checker on a traced burst (which is also a correctness check: the burst
// must be oo-serializable).
func (wl *encInproc) probeLayers(e *env, sys *system, _ time.Duration, m map[string]float64) error {
	const probeTxns = 2000
	run := wl.caller(e, sys, e.callers)
	before := mallocs()
	for i := 0; i < probeTxns; i++ {
		if _, err := run(nil); err != nil {
			return fmt.Errorf("allocation probe: %w", err)
		}
	}
	m["core.exec_allocs_per_txn"] = float64(mallocs()-before) / probeTxns
	perAction, err := wl.validateBurst(e)
	m["sched.analyze_us_per_action"] = perAction
	return err
}

// validateBurst runs burstTxns transactions of the workload's mix from all
// callers on a small engine with trace recording on and checks the trace
// against Definition 16. It returns the checker's time per traced action.
// The checker's cost grows faster than the square of the trace (32
// transactions take half a second, 80 four seconds, 200 a minute), which
// is what fixes the burst's size.
func (wl *encInproc) validateBurst(e *env) (float64, error) {
	const burstTxns, burstKeys = 32, 64
	db := core.Open(core.Options{})
	defer db.Close()
	oids, err := openEncyclopedia(db, "Enc")
	if err != nil {
		return 0, err
	}
	burst := &encInproc{enc: oids[0], hot: make([]int, encHotKeys)}
	for i := range burst.hot {
		burst.hot[i] = i % burstKeys
	}
	sys := &system{db: db}
	if err := burst.start(e, sys); err != nil {
		return 0, err
	}
	done := make(chan error, e.callers)
	for w := 0; w < e.callers; w++ {
		run := burst.caller(e, sys, w)
		go func() {
			for i := 0; i < burstTxns/e.callers; i++ {
				if _, err := run(nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < e.callers; w++ {
		if werr := <-done; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return 0, fmt.Errorf("validation burst: %w", err)
	}
	actions := db.Stats().Actions
	t0 := time.Now()
	_, rep, err := db.Validate()
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("validation burst: %w", err)
	}
	if !rep.SystemOOSerializable {
		return 0, fmt.Errorf("validation burst of %d transactions is not oo-serializable (Definition 16)", burstTxns)
	}
	wl.burstChecked = true
	return float64(took.Microseconds()) / float64(actions), nil
}
