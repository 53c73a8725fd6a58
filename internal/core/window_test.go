package core_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The in-memory WAL is a window: a checkpoint trims it down to what live
// undo chains still name, so a durable engine's log memory does not grow
// with its history, and a transaction kept open across checkpoints still
// rolls back from the records it pins.

const windowAccounts = 8

func openWindowDB(t *testing.T) (*core.DB, []txn.OID) {
	t.Helper()
	db, err := core.OpenDurable(core.Options{Durability: storage.GroupCommit, WALDir: t.TempDir(),
		CheckpointBytes: 16 << 10, LockTimeout: 5 * time.Second, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	accts, err := workload.InstallBanking(db, windowAccounts, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return db, accts
}

// transfers runs n debit/credit pairs from 8 goroutines; the background
// checkpointer (CheckpointBytes) trims the log while they commit.
func transfers(t *testing.T, db *core.DB, accts []txn.OID, n int, seed int64) {
	t.Helper()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < n/workers; i++ {
				from := rng.Intn(len(accts))
				to := (from + 1 + rng.Intn(len(accts)-1)) % len(accts)
				amt := strconv.Itoa(1 + rng.Intn(9))
				err := db.RunWithRetry(core.RetryPolicy{}, func(tx *core.Txn) error {
					if _, err := tx.Exec(accts[from], "debit", amt); err != nil {
						return err
					}
					_, err := tx.Exec(accts[to], "credit", amt)
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(seed*100 + int64(w))))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func totalBalance(t *testing.T, db *core.DB, accts []txn.OID) int64 {
	t.Helper()
	tx := db.Begin()
	var sum int64
	for _, a := range accts {
		v, err := tx.Exec(a, "balance")
		if err != nil {
			t.Fatal(err)
		}
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += b
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestCheckpointBoundsWALWindow: between checkpoints the window holds at
// most what was logged since the last one, and after a checkpoint with
// nothing in flight it is down to the newest record — the same after 20k
// transfers as after 2k, while the log itself grew tenfold.
func TestCheckpointBoundsWALWindow(t *testing.T) {
	db, accts := openWindowDB(t)
	const rounds, perRound = 20, 1000
	var lenAt2k, lenAt20k int
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		before := db.WAL().LastLSN()
		transfers(t, db, accts, perRound, int64(r))
		logged := int(db.WAL().LastLSN() - before)
		if got := db.WAL().Len(); got > logged+1 {
			t.Fatalf("round %d: window holds %d records, only %d were logged since the last checkpoint", r, got, logged)
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		switch r {
		case 2:
			lenAt2k = db.WAL().Len()
		case rounds:
			lenAt20k = db.WAL().Len()
		}
	}
	if lenAt2k > 1 || lenAt20k > 1 {
		t.Fatalf("window after a quiescent checkpoint: %d records at 2k transfers, %d at 20k; want the newest record only", lenAt2k, lenAt20k)
	}
	if last := db.WAL().LastLSN(); last < 20*perRound {
		t.Fatalf("log ends at LSN %d, fewer records than transfers", last)
	}
	if got, want := totalBalance(t, db, accts), int64(windowAccounts*1_000_000); got != want {
		t.Fatalf("balances sum to %d, want %d", got, want)
	}
}

// TestAbortAcrossCheckpointsRestoresPages: a transaction that wrote pages
// and debited an account stays open across three checkpoints, each of which
// trims everything its undo chain does not pin; its abort then restores
// every page it wrote and compensates the debit.
func TestAbortAcrossCheckpointsRestoresPages(t *testing.T) {
	db, accts := openWindowDB(t)
	pages := make([]txn.OID, 4)
	init := db.Begin()
	for i := range pages {
		pages[i] = db.AllocPage()
		if _, err := init.Exec(pages[i], "write", "init-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	long := db.Begin()
	for i, pg := range pages {
		if _, err := long.Exec(pg, "write", "long-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := long.Exec(accts[0], "debit", "1000"); err != nil {
		t.Fatal(err)
	}
	firstLong := db.WAL().LastLSN()
	for r := 1; r <= 3; r++ {
		transfers(t, db, accts, 400, int64(r))
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if held, last := db.WAL().Len(), db.WAL().LastLSN(); uint64(held) >= last || uint64(held) < last-firstLong {
		t.Fatalf("window holds %d of %d records; want every record since the open transaction began (LSN %d) and nothing older than it needs", held, last, firstLong)
	}
	if err := long.Abort(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin()
	for i, pg := range pages {
		v, err := check.Exec(pg, "read")
		if err != nil {
			t.Fatal(err)
		}
		if want := "init-" + strconv.Itoa(i); v != want {
			t.Fatalf("page %v after abort = %q, want %q", pg, v, want)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := totalBalance(t, db, accts), int64(windowAccounts*1_000_000); got != want {
		t.Fatalf("balances sum to %d after the abort, want %d", got, want)
	}
}
