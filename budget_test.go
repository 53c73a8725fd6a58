package repro

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/txn"
)

// The engine half of the enc_inproc_hot workload (bench/encinproc.go): an
// encyclopedia of encWorkKeys items, transactions of four operations on a
// zipf-skewed hot subset, one in-process caller under open nesting.
const (
	encWorkKeys    = 5000
	encWorkHotKeys = 2000
	encWorkZipfS   = 1.2
	encWorkOps     = 4
	encWorkBatch   = 50
	// Operation mix in percent: insert, search, update; the rest deletes.
	encWorkInsertPct, encWorkSearchPct, encWorkUpdatePct = 20, 60, 15
)

func encWorkKey(i int) string { return "k" + strconv.Itoa(1000000+i) }

// encWork is one caller of the enc_inproc_hot engine path.
type encWork struct {
	db     *core.DB
	enc    txn.OID
	hot    []int
	rng    *rand.Rand
	zipf   *rand.Zipf
	writes int
}

func newEncWork(tb testing.TB, seed int64) *encWork {
	tb.Helper()
	db := core.Open(core.Options{DisableTrace: true})
	trees, err := btree.Install(db)
	if err != nil {
		tb.Fatal(err)
	}
	lists, err := list.Install(db)
	if err != nil {
		tb.Fatal(err)
	}
	encs, err := enc.Install(db, trees, lists)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := encs.New("Enc", 100, 50)
	if err != nil {
		tb.Fatal(err)
	}
	w := &encWork{db: db, enc: e.OID(), hot: rand.New(rand.NewSource(seed)).Perm(encWorkKeys)[:encWorkHotKeys]}
	for lo := 0; lo < encWorkKeys; lo += encWorkBatch {
		tx := db.Begin()
		for i := lo; i < lo+encWorkBatch; i++ {
			if _, err := tx.Exec(w.enc, "insert", encWorkKey(i), "p"+strconv.Itoa(i)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	w.rng = rand.New(rand.NewSource(seed * 7919))
	w.zipf = rand.NewZipf(w.rng, encWorkZipfS, 1, encWorkHotKeys-1)
	return w
}

// commit runs one transaction of encWorkOps operations, admitted like the
// benchmark's callers.
func (w *encWork) commit(tb testing.TB) {
	release, err := w.db.Admit()
	if err != nil {
		tb.Fatal(err)
	}
	defer release()
	tx := w.db.Begin()
	for i := 0; i < encWorkOps; i++ {
		key := encWorkKey(w.hot[w.zipf.Uint64()])
		var method, text string
		switch roll := w.rng.Intn(100); {
		case roll < encWorkInsertPct:
			method = "insert"
		case roll < encWorkInsertPct+encWorkSearchPct:
			method = "search"
		case roll < encWorkInsertPct+encWorkSearchPct+encWorkUpdatePct:
			method = "update"
		default:
			method = "delete"
		}
		if method == "insert" || method == "update" {
			w.writes++
			text = "c0n" + strconv.Itoa(w.writes)
			_, err = tx.Exec(w.enc, method, key, text)
		} else {
			_, err = tx.Exec(w.enc, method, key)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// commitWork returns the heap objects and bytes allocated per commit over
// commits transactions, after warm transactions that are not counted, and
// the GC cycles they ran.
func commitWork(tb testing.TB, seed int64, warm, commits int) (objects, bytes, gcs float64) {
	w := newEncWork(tb, seed)
	for i := 0; i < warm; i++ {
		w.commit(tb)
	}
	runtime.GC()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	o0, b0, g0 := samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64()
	for i := 0; i < commits; i++ {
		w.commit(tb)
	}
	metrics.Read(samples)
	n := float64(commits)
	return float64(samples[0].Value.Uint64()-o0) / n, float64(samples[1].Value.Uint64()-b0) / n,
		float64(samples[2].Value.Uint64()-g0) / n
}

// TestCommitWorkBudget pins what one enc_inproc_hot commit allocates in
// the engine: heap objects and bytes per commit, each at its measured
// value plus 2 % (104.8 objects and 21,252 bytes at seed 1; over seeds
// 1–10 their inter-quartile range is 0.6 % and 0.4 % of the median). A
// change that makes the dispatch path allocate more fails here before the
// benchmark sees it.
func TestCommitWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxObjects, maxBytes = 106.9, 21677
	objects, bytes, gcs := commitWork(t, 1, 500, 3000)
	t.Logf("per commit: %.1f objects, %.0f bytes; %.2f GC cycles per 1000 commits", objects, bytes, gcs*1000)
	if objects > maxObjects {
		t.Errorf("%.1f heap objects per commit, budget %.1f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f heap bytes per commit, budget %d", bytes, maxBytes)
	}
}
