package recovery

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/btree"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/storage"
	"repro/internal/txn"
)

// regPages carries the page bindings a register type closure needs; the
// SAME bindings must be used before and after the crash (in a real system
// they would live in a catalog page — here the test passes them along).
type regPages struct {
	pages map[string]txn.OID
}

func registerKV(db *core.DB, rp *regPages) error {
	if rp.pages == nil {
		rp.pages = map[string]txn.OID{}
		for _, k := range []string{"a", "b", "c"} {
			rp.pages[k] = db.AllocPage()
		}
	}
	typ := &core.ObjectType{
		Name:     "kv",
		Spec:     commut.KeyedSpec([]string{"get"}, []string{"put"}),
		ReadOnly: map[string]bool{"get": true},
		Methods: map[string]core.MethodFunc{
			"put": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg := rp.pages[params[0]]
				old, err := c.Call(pg, "readx")
				if err != nil {
					return "", err
				}
				if _, err := c.Call(pg, "write", params[1]); err != nil {
					return "", err
				}
				return old, nil
			},
			"get": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(rp.pages[params[0]], "read")
			},
		},
		Compensate: map[string]core.CompensateFunc{
			"put": func(params []string, result string) (string, []string, bool) {
				return "put", []string{params[0], result}, true
			},
		},
	}
	return db.RegisterType(typ)
}

var kvOID = txn.OID{Type: "kv", Name: "KV"}

func get(t *testing.T, db *core.DB, key string) string {
	t.Helper()
	tx := db.Begin()
	v, err := tx.Exec(kvOID, "get", key)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	return v
}

func put(t *testing.T, db *core.DB, key, val string) {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.Exec(kvOID, "put", key, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedSurvivesCrash(t *testing.T) {
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			rp := &regPages{}
			db := core.Open(core.Options{Protocol: p})
			if err := registerKV(db, rp); err != nil {
				t.Fatal(err)
			}
			put(t, db, "a", "durable")
			// Crash WITHOUT flushing the buffer pool: the disk image is
			// stale, redo must reconstruct the committed write.
			disk, wal := db.CrashImage()

			db2, rep, err := Recover(disk, wal, core.Options{Protocol: p}, func(d *core.DB) error {
				return registerKV(d, rp)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Winners) == 0 || rep.Redone == 0 {
				t.Fatalf("report = %+v", rep)
			}
			if got := get(t, db2, "a"); got != "durable" {
				t.Fatalf("after recovery a=%q, want durable", got)
			}
		})
	}
}

func TestInFlightRolledBackPhysical(t *testing.T) {
	// Under 2PL the loser's undo is purely physical.
	rp := &regPages{}
	db := core.Open(core.Options{Protocol: core.Protocol2PLPage})
	if err := registerKV(db, rp); err != nil {
		t.Fatal(err)
	}
	put(t, db, "a", "committed")

	// An in-flight transaction writes but never commits.
	tx := db.Begin()
	if _, err := tx.Exec(kvOID, "put", "a", "uncommitted"); err != nil {
		t.Fatal(err)
	}
	disk, wal := db.CrashImage()

	db2, rep, err := Recover(disk, wal, core.Options{Protocol: core.Protocol2PLPage}, func(d *core.DB) error {
		return registerKV(d, rp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losers) != 1 || rep.PhysicalUndos == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.AnalysisTime <= 0 || rep.RedoTime <= 0 || rep.UndoTime <= 0 {
		t.Fatalf("report lacks phase timings: %+v", rep)
	}
	phases := map[string]bool{}
	for _, e := range db2.Obs().Recorder().Tail(0) {
		if e.Kind == "recovery.phase" {
			phases[e.Object] = true
		}
	}
	for _, p := range []string{"analysis", "redo", "undo"} {
		if !phases[p] {
			t.Fatalf("flight recorder missing recovery phase %q: %v", p, phases)
		}
	}
	if got := get(t, db2, "a"); got != "committed" {
		t.Fatalf("after recovery a=%q, want committed", got)
	}
}

func TestInFlightRolledBackLogically(t *testing.T) {
	// Under open nesting the loser's completed subtransactions are undone
	// by replaying the logged compensation intents.
	rp := &regPages{}
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested})
	if err := registerKV(db, rp); err != nil {
		t.Fatal(err)
	}
	put(t, db, "a", "a0")
	put(t, db, "b", "b0")

	tx := db.Begin()
	if _, err := tx.Exec(kvOID, "put", "a", "a1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(kvOID, "put", "b", "b1"); err != nil {
		t.Fatal(err)
	}
	// Crash before commit: both puts completed as subtransactions whose
	// page locks are long released — physical undo alone would be unsound,
	// the logged intents carry the logical undo.
	disk, wal := db.CrashImage()

	db2, rep, err := Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
		return registerKV(d, rp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogicalUndos != 2 {
		t.Fatalf("logical undos = %d, want 2 (report %+v)", rep.LogicalUndos, rep)
	}
	if got := get(t, db2, "a"); got != "a0" {
		t.Fatalf("a=%q, want a0", got)
	}
	if got := get(t, db2, "b"); got != "b0" {
		t.Fatalf("b=%q, want b0", got)
	}
}

func TestCompletedAbortNotReundone(t *testing.T) {
	// A transaction that aborted (and compensated) BEFORE the crash is not
	// a loser: re-running its compensations would corrupt state.
	rp := &regPages{}
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested})
	if err := registerKV(db, rp); err != nil {
		t.Fatal(err)
	}
	put(t, db, "a", "a0")
	tx := db.Begin()
	if _, err := tx.Exec(kvOID, "put", "a", "aborted"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	put(t, db, "a", "final") // a later committed write

	disk, wal := db.CrashImage()
	db2, rep, err := Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
		return registerKV(d, rp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losers) != 0 {
		t.Fatalf("losers = %v, want none", rep.Losers)
	}
	if got := get(t, db2, "a"); got != "final" {
		t.Fatalf("a=%q, want final", got)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	// Crashing again right after recovery and recovering again must land
	// in the same state (recovery's own actions are logged).
	rp := &regPages{}
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested})
	if err := registerKV(db, rp); err != nil {
		t.Fatal(err)
	}
	put(t, db, "a", "a0")
	tx := db.Begin()
	_, _ = tx.Exec(kvOID, "put", "a", "loser")
	disk, wal := db.CrashImage()

	db2, _, err := Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
		return registerKV(d, rp)
	})
	if err != nil {
		t.Fatal(err)
	}
	disk2, wal2 := db2.CrashImage()
	db3, rep3, err := Recover(disk2, wal2, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
		return registerKV(d, rp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Losers) != 0 {
		t.Fatalf("second recovery found losers: %v", rep3.Losers)
	}
	if got := get(t, db3, "a"); got != "a0" {
		t.Fatalf("a=%q, want a0", got)
	}
}

// BenchmarkRecovery measures restart recovery cost against log size (R1 in
// DESIGN.md §3): n committed single-put transactions plus one in-flight
// loser, then analysis + redo + undo.
func BenchmarkRecovery(b *testing.B) {
	opts := core.Options{Protocol: core.ProtocolOpenNested}
	keys := []string{"a", "b", "c"}
	for _, n := range []int{50, 200, 1000} {
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rp := &regPages{}
				db := core.Open(opts)
				if err := registerKV(db, rp); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					tx := db.Begin()
					if _, err := tx.Exec(kvOID, "put", keys[j%len(keys)], fmt.Sprintf("v%d", j)); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				loser := db.Begin()
				_, _ = loser.Exec(kvOID, "put", "a", "loser")
				disk, wal := db.CrashImage()
				b.StartTimer()

				_, rep, err := Recover(disk, wal, opts, func(d *core.DB) error { return registerKV(d, rp) })
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Losers) != 1 {
					b.Fatalf("losers = %v", rep.Losers)
				}
			}
		})
	}
}

// TestEncyclopediaCrashRecovery runs the full application stack: committed
// encyclopedia inserts survive, an in-flight multi-object insert (index +
// list + item) is fully undone on BOTH access paths.
func TestEncyclopediaCrashRecovery(t *testing.T) {
	build := func(opts core.Options) (*core.DB, *enc.Encyclopedia, error) {
		db := core.Open(opts)
		trees, err := btree.Install(db)
		if err != nil {
			return nil, nil, err
		}
		lists, err := list.Install(db)
		if err != nil {
			return nil, nil, err
		}
		encs, err := enc.Install(db, trees, lists)
		if err != nil {
			return nil, nil, err
		}
		e, err := encs.New("Enc", 4, 4)
		if err != nil {
			return nil, nil, err
		}
		return db, e, nil
	}

	db, e, err := build(core.Options{Protocol: core.ProtocolOpenNested})
	if err != nil {
		t.Fatal(err)
	}
	// Committed content.
	tx := db.Begin()
	if _, err := tx.Exec(e.OID(), "insert", "KEEP", "survives"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// In-flight insert at crash time.
	tx2 := db.Begin()
	if _, err := tx2.Exec(e.OID(), "insert", "GONE", "vanishes"); err != nil {
		t.Fatal(err)
	}
	disk, wal := db.CrashImage()

	// Recovery must rebuild with the SAME structural metadata. The module
	// instances (root pids, list head) are runtime state; the application
	// re-creates them from its catalog — here by re-running the same
	// installation sequence against the recovered store, which yields the
	// same page ids because allocation is deterministic.
	var e2 *enc.Encyclopedia
	db2, rep, err := Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
		trees, err := btree.Install(d)
		if err != nil {
			return err
		}
		lists, err := list.Install(d)
		if err != nil {
			return err
		}
		encs, err := enc.Install(d, trees, lists)
		if err != nil {
			return err
		}
		e2, err = encs.Attach("Enc", 4, 4, 1, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losers) != 1 || rep.LogicalUndos == 0 {
		t.Fatalf("report = %+v", rep)
	}

	check := db2.Begin()
	keep, err := check.Exec(e2.OID(), "search", "KEEP")
	if err != nil {
		t.Fatal(err)
	}
	gone, err := check.Exec(e2.OID(), "search", "GONE")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := check.Exec(e2.OID(), "readSeq")
	if err != nil {
		t.Fatal(err)
	}
	_ = check.Commit()

	if keep != "survives" {
		t.Fatalf("KEEP = %q", keep)
	}
	if gone != "" {
		t.Fatalf("GONE survived the crash: %q", gone)
	}
	if strings.Contains(seq, "GONE") {
		t.Fatalf("GONE still in the list: %q", seq)
	}
	if !strings.Contains(seq, "KEEP=survives") {
		t.Fatalf("KEEP missing from the list: %q", seq)
	}
}

// Property: random committed/in-flight mixes recover to exactly the
// committed prefix.
func TestPropertyCrashRecoveryMatchesCommitted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rp := &regPages{}
		db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, LockTimeout: 2 * time.Second})
		if err := registerKV(db, rp); err != nil {
			return false
		}
		model := map[string]string{"a": "", "b": "", "c": ""}
		keys := []string{"a", "b", "c"}
		// Committed transactions.
		for i := 0; i < 3+r.Intn(5); i++ {
			tx := db.Begin()
			ok := true
			staged := map[string]string{}
			for j := 0; j < 1+r.Intn(3); j++ {
				k := keys[r.Intn(3)]
				v := fmt.Sprintf("v%d-%d", i, j)
				if _, err := tx.Exec(kvOID, "put", k, v); err != nil {
					ok = false
					break
				}
				staged[k] = v
			}
			if !ok {
				_ = tx.Abort()
				continue
			}
			if r.Intn(4) == 0 {
				_ = tx.Abort() // aborted pre-crash: no effect
			} else {
				if tx.Commit() != nil {
					return false
				}
				for k, v := range staged {
					model[k] = v
				}
			}
		}
		// One in-flight loser.
		loser := db.Begin()
		for j := 0; j < 1+r.Intn(3); j++ {
			_, _ = loser.Exec(kvOID, "put", keys[r.Intn(3)], "loser")
		}
		disk, wal := db.CrashImage()
		db2, _, err := Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, func(d *core.DB) error {
			return registerKV(d, rp)
		})
		if err != nil {
			return false
		}
		for _, k := range keys {
			tx := db2.Begin()
			got, err := tx.Exec(kvOID, "get", k)
			_ = tx.Commit()
			if err != nil || got != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverParentFormatLog recovers a hand-built log in the format
// engines wrote before intents named their action: every intent is owned
// by its transaction root and carries its superseded children in Refs, and
// an earlier, interrupted recovery left a compensation transaction (T10)
// whose discard consumed a loser's intent across roots.
func TestRecoverParentFormatLog(t *testing.T) {
	const sep = "\x1f"
	note := func(key, val string) string { return strings.Join([]string{"kv", "KV", "put", key, val}, sep) }
	records := []storage.Record{
		// T1 committed put(a, a0).
		{LSN: 1, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T1.1.2"), Page: 1, Before: "", After: "a0"},
		{LSN: 2, Kind: storage.RecIntent, Owner: storage.ParseOwner("T1"), Note: note("a", ""), Refs: []uint64{1}},
		{LSN: 3, Kind: storage.RecCommit, Owner: storage.ParseOwner("T1")},
		// T2, a loser: put(a, a1) and put(b, b1) completed, put(b, b2) was
		// cut short after its page write.
		{LSN: 4, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T2.1.2"), Page: 1, Before: "a0", After: "a1"},
		{LSN: 5, Kind: storage.RecIntent, Owner: storage.ParseOwner("T2"), Note: note("a", "a0"), Refs: []uint64{4}},
		{LSN: 6, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T2.2.2"), Page: 2, Before: "", After: "b1"},
		{LSN: 7, Kind: storage.RecIntent, Owner: storage.ParseOwner("T2"), Note: note("b", ""), Refs: []uint64{6}},
		// T3, a loser whose undo an earlier recovery already ran: T10's
		// compensation consumed T3's intent in its own discard.
		{LSN: 8, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T3.1.2"), Page: 3, Before: "", After: "c1"},
		{LSN: 9, Kind: storage.RecIntent, Owner: storage.ParseOwner("T3"), Note: note("c", ""), Refs: []uint64{8}},
		{LSN: 10, Kind: storage.RecCompensation, Owner: storage.ParseOwner("T10"), Note: "KV.put(c,)"},
		{LSN: 11, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T10.1.2"), Page: 3, Before: "c1", After: ""},
		{LSN: 12, Kind: storage.RecDiscard, Owner: storage.ParseOwner("T10"), Refs: []uint64{11, 9}},
		{LSN: 13, Kind: storage.RecCommit, Owner: storage.ParseOwner("T10")},
		{LSN: 14, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T2.3.2"), Page: 2, Before: "b1", After: "b2"},
		// T4 aborted before the crash: neither a winner nor a loser.
		{LSN: 15, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T4.1.2"), Page: 3, Before: "", After: "x"},
		{LSN: 16, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T4:undo"), Page: 3, Before: "x", After: "", CLR: true},
		{LSN: 17, Kind: storage.RecDiscard, Owner: storage.ParseOwner("T4"), Refs: []uint64{15}},
		{LSN: 18, Kind: storage.RecAbort, Owner: storage.ParseOwner("T4")},
	}
	disk := storage.NewMemStore(0)
	rp := &regPages{pages: map[string]txn.OID{}}
	for _, k := range []string{"a", "b", "c"} {
		rp.pages[k] = core.PageOID(disk.Allocate())
	}
	reg := func(d *core.DB) error { return registerKV(d, rp) }
	db, rep, err := Recover(disk, storage.NewWALFromRecords(records), core.Options{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Winners) != "[T1 T10]" || fmt.Sprint(rep.Losers) != "[T2 T3]" ||
		rep.PhysicalUndos != 1 || rep.LogicalUndos != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for k, want := range map[string]string{"a": "a0", "b": "", "c": ""} {
		if got := get(t, db, k); got != want {
			t.Fatalf("%s = %q, want %q", k, got, want)
		}
	}
	disk2, wal2 := db.CrashImage()
	if _, rep2, err := Recover(disk2, wal2, core.Options{}, reg); err != nil || len(rep2.Losers) != 0 {
		t.Fatalf("second recovery: %+v, %v", rep2, err)
	}
}
