package core_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestPageAliasRefused: "Page01" and "Page1" would reach one frame while
// the lock table saw two resources, so a writer of the alias could commit
// under another transaction's X lock and that transaction's abort would
// wipe the committed write. Dispatch refuses the alias before any lock is
// taken or any record logged; two writers of the canonical name still
// conflict.
func TestPageAliasRefused(t *testing.T) {
	for _, p := range lockProtocols {
		t.Run(p.String(), func(t *testing.T) {
			db := core.Open(core.Options{Protocol: p, LockTimeout: 20 * time.Millisecond})
			page := db.AllocPage()
			alias := txn.OID{Type: core.PageType, Name: strings.Replace(page.Name, "Page", "Page0", 1)}

			t1 := db.Begin()
			if _, err := t1.Exec(page, "write", "t1"); err != nil {
				t.Fatal(err)
			}
			locks, lsn := db.LockTable(), db.WAL().LastLSN()
			t2 := db.Begin()
			if _, err := t2.Exec(alias, "write", "t2"); !errors.Is(err, core.ErrBadPageName) {
				t.Fatalf("write %s = %v, want ErrBadPageName", alias.Name, err)
			}
			if got := db.LockTable(); got != locks {
				t.Fatalf("the refused alias changed the lock table:\nbefore %s\nafter  %s", locks, got)
			}
			if got := db.WAL().LastLSN(); got != lsn {
				t.Fatalf("the refused alias logged records %d..%d", lsn+1, got)
			}
			if _, err := t2.Exec(page, "write", "t2"); !errors.Is(err, cc.ErrTimeout) {
				t.Fatalf("second writer of %s = %v, want a lock wait timeout", page.Name, err)
			}
			if err := t2.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := t1.Abort(); err != nil {
				t.Fatal(err)
			}
			t3 := db.Begin()
			if got, err := t3.Exec(page, "read"); err != nil || got != "" {
				t.Fatalf("read after both aborts = %q, %v; want the empty page", got, err)
			}
			if err := t3.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzPageName: PageID accepts exactly the names PageOID renders, and a
// name table renders prefix+decimal across its block boundaries and past
// its end.
func FuzzPageName(f *testing.F) {
	for _, s := range []string{"Page0", "Page1", "Page01", "Page", "Page+1", "Page-1",
		"Page1023", "Page1024", "Page18446744073709551615", "Page18446744073709551616",
		"Page 1", "page1", "Node1"} {
		f.Add(s, uint64(len(s)*1000))
	}
	f.Add("", uint64(1<<20-1))
	f.Add("", uint64(1<<20))
	f.Add("", ^uint64(0))
	names := core.NewNames("Item")
	f.Fuzz(func(t *testing.T, name string, p uint64) {
		pid := storage.PageID(p)
		want := "Item" + strconv.FormatUint(p, 10)
		if got := names.Of(pid); got != want {
			t.Fatalf("Names.Of(%d) = %q, want %q", p, got, want)
		}
		oid := core.PageOID(pid)
		if back, err := core.PageID(oid); err != nil || back != pid {
			t.Fatalf("PageID(PageOID(%d)) = %d, %v", p, back, err)
		}
		got, err := core.PageID(txn.OID{Type: core.PageType, Name: name})
		digits, isPage := strings.CutPrefix(name, "Page")
		n, perr := strconv.ParseUint(digits, 10, 64)
		canonical := isPage && perr == nil && strconv.FormatUint(n, 10) == digits
		if canonical != (err == nil) {
			t.Fatalf("PageID(%q) = %d, %v; canonical %v", name, got, err, canonical)
		}
		if err != nil && !errors.Is(err, core.ErrBadPageName) {
			t.Fatalf("PageID(%q) error %v is not ErrBadPageName", name, err)
		}
		if canonical && (uint64(got) != n || core.PageOID(got).Name != name) {
			t.Fatalf("PageID(%q) = %d, renders back as %q", name, got, core.PageOID(got).Name)
		}
		if _, err := core.PageID(txn.OID{Type: "node", Name: name}); err == nil {
			t.Fatalf("PageID accepted a %q of another type", name)
		}
	})
}

// TestNamesConcurrentFill: goroutines racing to fill the same blocks all
// read the names of the block that was published.
func TestNamesConcurrentFill(t *testing.T) {
	names := core.NewNames("Node")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*1024; i++ {
				p := uint64(i*7+g) % (3 * 1024)
				if got, want := names.Of(storage.PageID(p)), "Node"+strconv.FormatUint(p, 10); got != want {
					t.Errorf("Of(%d) = %q, want %q", p, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLiveTraceWhilePagesRun snapshots a live trace from another goroutine
// while its transaction's page reads and writes run, sequentially and in
// parallel branches. A page action's id is rendered only where it is read,
// so the snapshot must render it without writing the record, and the
// dispatching goroutine must stop writing it once the record is published:
// the race detector checks both. Every page span's id must be its parent's
// id and a child number.
func TestLiveTraceWhilePagesRun(t *testing.T) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true,
		Tracer: span.NewTracer(span.Options{})})
	pages := make([]txn.OID, 4)
	for i := range pages {
		pages[i] = db.AllocPage()
	}
	tx := db.Begin()
	tt := tx.Trace()
	if tt == nil {
		t.Fatal("the transaction must be traced")
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ { // two readers: neither may write the record
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, sp := range tt.Snapshot().Spans {
					if sp.Kind != span.KMethod || !strings.HasPrefix(sp.Object, "Page") {
						continue
					}
					n, ok := strings.CutPrefix(sp.ID, sp.Parent+".")
					if _, err := strconv.Atoi(n); !ok || err != nil {
						t.Errorf("page span id %q under %q", sp.ID, sp.Parent)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p := pages[i%len(pages)]
		if _, err := tx.Exec(p, "write", "v"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(p, "read"); err != nil {
			t.Fatal(err)
		}
		calls := make([]core.ParCall, len(pages))
		for j, q := range pages {
			calls[j] = core.ParCall{Obj: q, Method: "read"}
		}
		if _, err := tx.ExecParallel(calls); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
