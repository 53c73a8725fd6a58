package recovery

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// acctPages binds account indices to pages, the durability tests' catalog.
// Like regPages, the SAME bindings must be used before and after a crash.
type acctPages struct {
	pages []txn.OID
}

var acctOID = txn.OID{Type: "acct", Name: "ACCT"}

// registerAcct installs a bank-account type: "add" applies a signed delta
// to one account (keyed, so different accounts commute), compensated by
// the opposite delta; "bal" reads a balance. An empty page is balance 0.
func registerAcct(db *core.DB, ap *acctPages, n int) error {
	if ap.pages == nil {
		for i := 0; i < n; i++ {
			ap.pages = append(ap.pages, db.AllocPage())
		}
	}
	page := func(params []string) (txn.OID, error) {
		i, err := strconv.Atoi(params[0])
		if err != nil || i < 0 || i >= len(ap.pages) {
			return txn.OID{}, fmt.Errorf("acct: bad account %q", params[0])
		}
		return ap.pages[i], nil
	}
	typ := &core.ObjectType{
		Name:     "acct",
		Spec:     commut.KeyedSpec([]string{"bal"}, []string{"add"}),
		ReadOnly: map[string]bool{"bal": true},
		Methods: map[string]core.MethodFunc{
			"add": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg, err := page(params)
				if err != nil {
					return "", err
				}
				delta, err := strconv.Atoi(params[1])
				if err != nil {
					return "", err
				}
				old, err := c.Call(pg, "readx")
				if err != nil {
					return "", err
				}
				bal := 0
				if old != "" {
					if bal, err = strconv.Atoi(old); err != nil {
						return "", err
					}
				}
				if _, err := c.Call(pg, "write", strconv.Itoa(bal+delta)); err != nil {
					return "", err
				}
				return old, nil
			},
			"bal": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg, err := page(params)
				if err != nil {
					return "", err
				}
				v, err := c.Call(pg, "read")
				if err != nil {
					return "", err
				}
				if v == "" {
					v = "0"
				}
				return v, nil
			},
		},
		Compensate: map[string]core.CompensateFunc{
			"add": func(params []string, result string) (string, []string, bool) {
				delta, err := strconv.Atoi(params[1])
				if err != nil {
					return "", nil, false
				}
				return "add", []string{params[0], strconv.Itoa(-delta)}, true
			},
		},
	}
	return db.RegisterType(typ)
}

// fund credits every account in one committed transaction.
func fund(t *testing.T, db *core.DB, n, amount int) {
	t.Helper()
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Exec(acctOID, "add", strconv.Itoa(i), strconv.Itoa(amount)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// transferRetry moves amt between two random accounts, retrying on
// deadlock/timeout aborts.
func transferRetry(db *core.DB, rr *rand.Rand, n int) error {
	from, to := rr.Intn(n), rr.Intn(n)
	for to == from {
		to = rr.Intn(n)
	}
	amt := rr.Intn(20) + 1
	// Touch accounts in index order: "add" is keyed-commutative, so the
	// order is semantically free, and ordered acquisition avoids deadlock
	// livelock between opposite-direction transfers.
	d1, d2 := -amt, amt
	if to < from {
		from, to, d1, d2 = to, from, d2, d1
	}
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(rr.Intn(1000)) * time.Microsecond)
		}
		tx := db.Begin()
		if _, err = tx.Exec(acctOID, "add", strconv.Itoa(from), strconv.Itoa(d1)); err != nil {
			_ = tx.Abort()
			continue
		}
		if _, err = tx.Exec(acctOID, "add", strconv.Itoa(to), strconv.Itoa(d2)); err != nil {
			_ = tx.Abort()
			continue
		}
		if err = tx.Commit(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("transfer gave up: %w", err)
}

func sumBalances(t *testing.T, db *core.DB, n int) int {
	t.Helper()
	tx := db.Begin()
	total := 0
	for i := 0; i < n; i++ {
		v, err := tx.Exec(acctOID, "bal", strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		total += b
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return total
}

// pageState flushes the pool and serializes every disk page — the
// byte-level identity the idempotence tests compare.
func pageState(t *testing.T, db *core.DB) string {
	t.Helper()
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	disk, _ := db.CrashImage()
	var sb strings.Builder
	for pid := storage.PageID(1); int(pid) <= disk.NumPages(); pid++ {
		v, err := disk.Read(pid)
		if err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		fmt.Fprintf(&sb, "%d=%q\n", pid, v)
	}
	return sb.String()
}

// TestCrashImageAtomicity is the satellite regression test for the
// CrashImage race: snapshots are hammered while transfers run under a
// 2-frame pool (every access evicts), and every snapshot must recover to a
// money-conserving state. Before the snapshot barrier — and before
// LogUpdate moved inside the frame latch — an eviction could flush a page
// between the page write and its log append, yielding images whose disk
// showed effects the log never heard of.
func TestCrashImageAtomicity(t *testing.T) {
	const accounts, workers, funding = 6, 4, 1000
	ap := &acctPages{}
	db := core.Open(core.Options{
		PoolCapacity: 2,
		LockTimeout:  2 * time.Second,
		DisableTrace: true,
	})
	if err := registerAcct(db, ap, accounts); err != nil {
		t.Fatal(err)
	}
	fund(t, db, accounts, funding)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				if err := transferRetry(db, rr, accounts); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	type image struct {
		disk *storage.MemStore
		wal  *storage.WAL
	}
	var images []image
	for i := 0; i < 15; i++ {
		disk, wal := db.CrashImage()
		images = append(images, image{disk, wal})
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	for i, img := range images {
		db2, _, err := Recover(img.disk, img.wal, core.Options{DisableTrace: true}, func(d *core.DB) error {
			return registerAcct(d, ap, accounts)
		})
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if got := sumBalances(t, db2, accounts); got != accounts*funding {
			t.Fatalf("image %d: total %d, want %d", i, got, accounts*funding)
		}
	}
}

// TestRecoveryIdempotenceRandomized: on randomized workloads with in-flight
// losers, (a) two recoveries from clones of the same crash image agree on
// the report and the byte-level page state, and (b) crashing immediately
// after a recovery and recovering again changes nothing — the
// crash-during-recovery contract behind the compensations'
// consume-the-intent discards.
func TestRecoveryIdempotenceRandomized(t *testing.T) {
	keys := []string{"a", "b", "c"}
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", p, seed), func(t *testing.T) {
				rr := rand.New(rand.NewSource(seed))
				rp := &regPages{}
				db := core.Open(core.Options{Protocol: p, LockTimeout: 500 * time.Millisecond})
				if err := registerKV(db, rp); err != nil {
					t.Fatal(err)
				}
				for i, n := 0, rr.Intn(15)+5; i < n; i++ {
					put(t, db, keys[rr.Intn(3)], fmt.Sprintf("v%d-%d", seed, i))
				}
				// Leave in-flight transactions behind; a put that loses a lock
				// race is aborted instead (a completed abort is also a valid
				// pre-crash state).
				for l, n := 0, rr.Intn(3)+1; l < n; l++ {
					tx := db.Begin()
					live := false
					for i, n := 0, rr.Intn(3)+1; i < n; i++ {
						if _, err := tx.Exec(kvOID, "put", keys[rr.Intn(3)], fmt.Sprintf("loser%d-%d", l, i)); err != nil {
							break
						}
						live = true
					}
					if !live {
						_ = tx.Abort()
					}
				}
				disk, wal := db.CrashImage()

				reg := func(d *core.DB) error { return registerKV(d, rp) }
				db1, rep1, err := Recover(disk.Clone(), wal.Clone(), core.Options{Protocol: p}, reg)
				if err != nil {
					t.Fatal(err)
				}
				db2, rep2, err := Recover(disk.Clone(), wal.Clone(), core.Options{Protocol: p}, reg)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(rep1.Winners) != fmt.Sprint(rep2.Winners) || fmt.Sprint(rep1.Losers) != fmt.Sprint(rep2.Losers) {
					t.Fatalf("reports diverge:\n%+v\n%+v", rep1, rep2)
				}
				s1, s2 := pageState(t, db1), pageState(t, db2)
				if s1 != s2 {
					t.Fatalf("page state diverges:\n%s\nvs\n%s", s1, s2)
				}

				// (b) Crash right after recovery, without flushing: the second
				// pass must find no work and leave the pages untouched.
				disk3, wal3 := db1.CrashImage()
				db3, rep3, err := Recover(disk3, wal3, core.Options{Protocol: p}, reg)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep3.Losers) != 0 {
					t.Fatalf("second recovery found losers: %+v", rep3)
				}
				if s3 := pageState(t, db3); s3 != s1 {
					t.Fatalf("re-recovery changed pages:\n%s\nvs\n%s", s3, s1)
				}
			})
		}
	}
}

func copyWALDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenDurableRecoverDir: the basic durable round trip — commit through
// segment files, close, restart from the directory alone.
func TestOpenDurableRecoverDir(t *testing.T) {
	for _, mode := range []storage.Durability{storage.SyncOnCommit, storage.GroupCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := core.Options{Durability: mode, WALDir: dir, WALSegmentSize: 512}
			rp := &regPages{}
			db, err := core.OpenDurable(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := registerKV(db, rp); err != nil {
				t.Fatal(err)
			}
			put(t, db, "a", "persisted")
			put(t, db, "b", "also")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// OpenDurable must refuse to clobber the existing log.
			if _, err := core.OpenDurable(opts); err == nil {
				t.Fatal("OpenDurable over a non-empty dir must fail")
			}

			db2, rep, err := RecoverDir(dir, opts, func(d *core.DB) error {
				return registerKV(d, rp)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if len(rep.Winners) != 2 {
				t.Fatalf("winners = %v", rep.Winners)
			}
			if got := get(t, db2, "a"); got != "persisted" {
				t.Fatalf("a = %q", got)
			}
			if got := get(t, db2, "b"); got != "also" {
				t.Fatalf("b = %q", got)
			}
			// The recovered engine keeps appending durably to the same files.
			put(t, db2, "a", "again")
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			db3, _, err := RecoverDir(dir, opts, func(d *core.DB) error {
				return registerKV(d, rp)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db3.Close()
			if got := get(t, db3, "a"); got != "again" {
				t.Fatalf("after second restart a = %q", got)
			}
		})
	}
}

// TestDifferentialCrashMatrix is the acceptance check: recovery from the
// segment files must agree with recovery from an atomic in-memory
// CrashImage. Part one snapshots the directory mid-run at random moments
// (a simulated SIGKILL) and requires a money-conserving recovery; part two
// quiesces commits, leaves in-flight losers, and requires the two recovery
// paths to agree on winners and committed balances.
func TestDifferentialCrashMatrix(t *testing.T) {
	const accounts, workers, funding, transfers = 8, 4, 1000, 20
	for round := int64(0); round < 3; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			opts := core.Options{
				Durability:     storage.GroupCommit,
				WALDir:         dir,
				WALSegmentSize: 1024,
				LockTimeout:    2 * time.Second,
				DisableTrace:   true,
			}
			ap := &acctPages{}
			db, err := core.OpenDurable(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := registerAcct(db, ap, accounts); err != nil {
				t.Fatal(err)
			}
			fund(t, db, accounts, funding)

			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(round*100 + int64(g)))
					for i := 0; i < transfers; i++ {
						if err := transferRetry(db, rr, accounts); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}

			// Part one: copy the live directory mid-run — the moment is as
			// random as scheduling makes it — and recover the copy.
			rr := rand.New(rand.NewSource(round))
			time.Sleep(time.Duration(rr.Intn(20)+1) * time.Millisecond)
			midDir := filepath.Join(t.TempDir(), "mid")
			copyWALDir(t, dir, midDir)
			dbMid, _, err := RecoverDir(midDir, core.Options{Durability: storage.GroupCommit, WALDir: midDir, DisableTrace: true},
				func(d *core.DB) error { return registerAcct(d, ap, accounts) })
			if err != nil {
				t.Fatalf("mid-run recovery: %v", err)
			}
			if got := sumBalances(t, dbMid, accounts); got != accounts*funding && got != 0 {
				t.Fatalf("mid-run recovery total %d, want %d or 0", got, accounts*funding)
			}
			dbMid.Close()

			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}

			// Leave in-flight losers: their records may or may not have hit
			// the files, so the two paths may disagree on the loser LIST —
			// but never on winners or committed state.
			for l := 0; l < 2; l++ {
				tx := db.Begin()
				if _, err := tx.Exec(acctOID, "add", strconv.Itoa(l), "7"); err != nil {
					_ = tx.Abort()
				}
			}

			copy2 := filepath.Join(t.TempDir(), "crash")
			copyWALDir(t, dir, copy2)
			disk, wal := db.CrashImage()

			reg := func(d *core.DB) error { return registerAcct(d, ap, accounts) }
			dbMem, repMem, err := Recover(disk, wal, core.Options{DisableTrace: true}, reg)
			if err != nil {
				t.Fatal(err)
			}
			dbFile, repFile, err := RecoverDir(copy2, core.Options{Durability: storage.GroupCommit, WALDir: copy2, DisableTrace: true}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer dbFile.Close()
			if fmt.Sprint(repMem.Winners) != fmt.Sprint(repFile.Winners) {
				t.Fatalf("winners diverge:\nmem:  %v\nfile: %v", repMem.Winners, repFile.Winners)
			}
			for i := 0; i < accounts; i++ {
				tx1, tx2 := dbMem.Begin(), dbFile.Begin()
				v1, err1 := tx1.Exec(acctOID, "bal", strconv.Itoa(i))
				v2, err2 := tx2.Exec(acctOID, "bal", strconv.Itoa(i))
				_ = tx1.Commit()
				_ = tx2.Commit()
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if v1 != v2 {
					t.Fatalf("account %d: mem=%s file=%s", i, v1, v2)
				}
			}
			if got := sumBalances(t, dbFile, accounts); got != accounts*funding {
				t.Fatalf("file recovery total %d, want %d", got, accounts*funding)
			}
			db.Close()
		})
	}
}
