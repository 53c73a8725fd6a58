package recovery

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestStreamedRecoveryUndoesLongLoser: a loser whose first record precedes
// 5,000 committed transfers pins the window its undo needs through the
// whole streaming pass, while the transfers committed before it leave
// memory. RecoverDir on the directory and Recover on the crash image taken
// at the same point both roll it back, agree page for page and on the
// winners and losers; and once the recovered engine checkpoints, its
// window shrinks to the newest record.
func TestStreamedRecoveryUndoesLongLoser(t *testing.T) {
	const accounts, workers, funding, transfers = 8, 8, 1000, 5000
	dir := t.TempDir()
	opts := core.Options{Durability: storage.GroupCommit, WALDir: dir, DisableTrace: true}
	ap := &acctPages{}
	reg := func(d *core.DB) error { return registerAcct(d, ap, accounts) }
	db, err := core.OpenDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := reg(db); err != nil {
		t.Fatal(err)
	}
	fund(t, db, accounts, funding)
	pg := db.AllocPage()
	put := db.Begin()
	if _, err := put.Exec(pg, "write", "committed"); err != nil {
		t.Fatal(err)
	}
	if err := put.Commit(); err != nil {
		t.Fatal(err)
	}

	run := func(n int, seed int64) {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(rr *rand.Rand) {
				defer wg.Done()
				for i := 0; i < n/workers; i++ {
					if err := transferRetry(db, rr, accounts-1); err != nil {
						errs <- err
						return
					}
				}
			}(rand.New(rand.NewSource(seed + int64(g))))
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	run(2000, 100)

	// The loser moves money out of the last account (a logical intent) and
	// overwrites a page (a physical before-image); the transfers use the
	// other accounts only.
	loserFirst := db.WAL().LastLSN() + 1
	loser := db.Begin()
	if _, err := loser.Exec(acctOID, "add", fmt.Sprint(accounts-1), "-500"); err != nil {
		t.Fatal(err)
	}
	if _, err := loser.Exec(pg, "write", "loser"); err != nil {
		t.Fatal(err)
	}
	run(transfers, 200)

	crashDir := t.TempDir()
	copyWALDir(t, dir, crashDir)
	disk, wal := db.CrashImage()
	dbMem, repMem, err := Recover(disk, wal, core.Options{DisableTrace: true}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbMem.Close()
	dbFile, repFile, err := RecoverDir(crashDir, core.Options{Durability: storage.GroupCommit, WALDir: crashDir, DisableTrace: true}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbFile.Close()

	if fmt.Sprint(repFile.Losers) != fmt.Sprint([]string{loser.ID()}) {
		t.Fatalf("file losers = %v, want [%s]", repFile.Losers, loser.ID())
	}
	if fmt.Sprint(repMem.Losers) != fmt.Sprint(repFile.Losers) || fmt.Sprint(repMem.Winners) != fmt.Sprint(repFile.Winners) {
		t.Fatalf("recovery paths disagree:\nmem:  winners %d losers %v\nfile: winners %d losers %v",
			len(repMem.Winners), repMem.Losers, len(repFile.Winners), repFile.Losers)
	}
	if len(repFile.Winners) < transfers {
		t.Fatalf("%d winners, want at least the %d transfers", len(repFile.Winners), transfers)
	}
	// Replay dropped what no chain pinned: the committed transfers before
	// the loser, not one record from its first on.
	for _, d := range []*core.DB{dbMem, dbFile} {
		if got, want := d.WAL().Len(), int(d.WAL().LastLSN()-loserFirst+1); got != want {
			t.Fatalf("window after recovery holds %d records, want the %d from the loser's first (LSN %d) on", got, want, loserFirst)
		}
	}
	if mem, file := pageState(t, dbMem), pageState(t, dbFile); mem != file {
		t.Fatalf("recovered pages differ:\nmem:\n%s\nfile:\n%s", mem, file)
	}
	check := dbFile.Begin()
	if v, err := check.Exec(pg, "read"); err != nil || v != "committed" {
		t.Fatalf("loser's page = %q (%v), want the committed image", v, err)
	}
	if v, err := check.Exec(acctOID, "bal", fmt.Sprint(accounts-1)); err != nil || v != fmt.Sprint(funding) {
		t.Fatalf("loser's account = %s (%v), want %d", v, err, funding)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(t, dbFile, accounts); got != accounts*funding {
		t.Fatalf("balances sum to %d, want %d", got, accounts*funding)
	}
	if _, err := dbFile.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := dbFile.WAL().Len(); got != 1 {
		t.Fatalf("window after a quiescent checkpoint holds %d records, want 1", got)
	}
}
