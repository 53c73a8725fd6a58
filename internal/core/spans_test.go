package core

import (
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/commut"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestMethodSpansRecorded: every dispatch of a sampled transaction becomes
// a KMethod span carrying object, method, and commutativity class — the
// lock mode the protocol took for it, rendered when the trace is read. The
// page-level protocols lock no object, so reg.set runs under no class.
func TestMethodSpansRecorded(t *testing.T) {
	cases := []struct {
		p                ProtocolKind
		set, read, write string
	}{
		{ProtocolOpenNested, "sem:set(v1)", "sem:read()", "sem:write(v1)"},
		{Protocol2PLPage, "", "S", "X"},
		{Protocol2PLObject, "X", "S", "X"},
		{ProtocolClosedNested, "", "S", "X"},
	}
	for _, c := range cases {
		t.Run(c.p.String(), func(t *testing.T) {
			db := Open(Options{Protocol: c.p})
			reg := registerRegType(t, db)
			tx := db.Begin()
			if _, err := tx.Exec(reg, "set", "v1"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tr := db.Spans()
			if tr == nil {
				t.Fatal("engine must create a tracer by default")
			}
			snap := tr.Lookup(tx.ID()).Snapshot()
			if snap.Status != span.StatusCommitted {
				t.Fatalf("status = %s", snap.Status)
			}
			want := map[string]string{"set": c.set, "read": c.read, "write": c.write}
			for i := range snap.Spans {
				m := snap.Spans[i]
				if m.Kind != span.KMethod {
					continue
				}
				class, ok := want[m.Method]
				if !ok || m.Class != class || m.Name != m.Object+"."+m.Method {
					t.Errorf("method span %s.%s: class %q, want %q: %+v", m.Object, m.Method, m.Class, class, m)
				}
				if m.Method == "set" && m.Object != reg.Name {
					t.Errorf("set span must carry its dispatch: %+v", m)
				}
				delete(want, m.Method)
			}
			if len(want) != 0 {
				t.Fatalf("no method span for %v: %+v", want, snap.Spans)
			}
		})
	}
}

func TestDisableSpans(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested, DisableSpans: true})
	reg := registerRegType(t, db)
	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Spans() != nil {
		t.Fatal("DisableSpans must leave the tracer nil")
	}
}

// TestDeadlockVictimProvenance reruns the deadlock scenario of
// TestDeadlockVictimAborts and asserts the victim's trace explains the
// abort: a lock span whose terminal edge names the surviving peer.
func TestDeadlockVictimProvenance(t *testing.T) {
	db := Open(Options{Protocol: Protocol2PLPage})
	regA := registerRegType(t, db)
	pageB := db.AllocPage()
	typB := &ObjectType{
		Name:     "regB",
		Spec:     commut.NewMatrix().SetConflicts("set", "set"),
		ReadOnly: map[string]bool{},
		Methods: map[string]MethodFunc{
			"set": func(c *Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(pageB, "write", params[0])
			},
		},
	}
	if err := db.RegisterType(typB); err != nil {
		t.Fatal(err)
	}
	regB := txn.OID{Type: "regB", Name: "RB"}

	t1, t2 := db.Begin(), db.Begin()
	if _, err := t1.Exec(regA, "set", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(regB, "set", "2"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = t1.Exec(regB, "set", "1b")
		if errs[0] != nil {
			_ = t1.Abort()
		} else {
			_ = t1.Commit()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		_, errs[1] = t2.Exec(regA, "set", "2a")
		if errs[1] != nil {
			_ = t2.Abort()
		} else {
			_ = t2.Commit()
		}
	}()
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("exactly one transaction must be the victim: %v", errs)
	}
	victim, survivor := t1, t2
	if errs[1] != nil {
		victim, survivor = t2, t1
	}

	snap := db.Spans().Lookup(victim.ID()).Snapshot()
	if snap.Status != span.StatusAborted {
		t.Fatalf("victim trace status = %s", snap.Status)
	}
	root := snap.Spans[0]
	if len(root.Edges) == 0 {
		t.Fatalf("aborted root must carry a provenance edge: %+v", root)
	}
	e := root.Edges[0]
	if e.Kind != span.EdgeVictimOf && e.Kind != span.EdgeTimeout {
		t.Fatalf("abort explanation must be victim-of or timeout: %+v", e)
	}
	if e.PeerRoot != survivor.ID() {
		t.Fatalf("edge must name the surviving peer %s: %+v", survivor.ID(), e)
	}
	var lock *span.Span
	for i := range snap.Spans {
		if snap.Spans[i].Kind == span.KLock {
			lock = &snap.Spans[i]
		}
	}
	if lock == nil || lock.Err == "" {
		t.Fatalf("victim must carry a failed lock span: %+v", snap.Spans)
	}
}

// TestGroupCommitSpan: a durable commit records a KWAL span carrying the
// fsync batch it rode.
func TestGroupCommitSpan(t *testing.T) {
	db, err := OpenDurable(Options{
		Protocol:   ProtocolOpenNested,
		Durability: storage.GroupCommit,
		WALDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := registerRegType(t, db)
	tx := db.Begin()
	if _, err := tx.Exec(reg, "set", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := db.Spans().Lookup(tx.ID()).Snapshot()
	var ws *span.Span
	for i := range snap.Spans {
		if snap.Spans[i].Kind == span.KWAL {
			ws = &snap.Spans[i]
		}
	}
	if ws == nil {
		t.Fatalf("durable commit must record a group-commit span: %+v", snap.Spans)
	}
	if ws.N < 1 || ws.Note == "" {
		t.Fatalf("group-commit span must carry batch info: %+v", ws)
	}
}

// TestDispatchAllocs pins what a traced dispatch allocates inside one open
// transaction. Exec of reg.get is two dispatches — get and its page read:
// each takes an action record (from the chain the transaction took, or a
// new one), and neither renders its id, since nothing reads it: get's lock
// owner is its node in the action tree, and the method spans keep their
// child-number paths by value until the trace is read. The method span
// lives inside the action until End copies it into the trace's reused
// buffer, and the pool's LRU lives inside its frames, so neither adds an
// allocation. Exec of reg.set(v) — set, a page read and a page write —
// copies its one parameter into the action, so neither Exec's nor Call's
// variadic slice leaves the caller's stack.
func TestDispatchAllocs(t *testing.T) {
	db := Open(Options{Protocol: ProtocolOpenNested, DisableTrace: true})
	reg := registerRegType(t, db)
	tx := db.Begin()
	defer tx.Commit()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tx.Exec(reg, "get"); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / 2; per > 1.0 {
		t.Fatalf("traced dispatch = %.1f allocs, want <= 1.0", per)
	}
	// set: three actions, set's id (its intent names it) and the write's
	// (its WAL record names it), the compensation's parameters and intent
	// note, and the WAL's live-undo bookkeeping.
	v := "v"
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := tx.Exec(reg, "set", v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Fatalf("Exec(reg.set) = %.1f allocs, want <= 9", allocs)
	}
	if tx.Trace() == nil {
		t.Fatal("the transaction must be traced")
	}
}

// TestRuntimeActionSize pins the action's footprint: a dispatch that finds
// no record to reuse allocates one, its held list keeps 8-byte lock
// handles inline, not 32-byte object ids, and it keeps its tree node (a
// parent pointer and a child number), not its rendered id. Race builds
// add a word for the recycle guard.
func TestRuntimeActionSize(t *testing.T) {
	want := uintptr(280)
	if raceEnabled {
		want += 8
	}
	if n := unsafe.Sizeof(runtimeAction{}); n > want {
		t.Fatalf("runtimeAction is %d B, want <= %d", n, want)
	}
}

// TestRetainedTraceOutlivesLaterTxns: a retained trace renders its dispatch
// spans from value records copied when each dispatch ended, while the
// action records themselves are zeroed and reused by later transactions.
// So its snapshot must not move while later transactions run and a
// collection passes — under every locking protocol.
func TestRetainedTraceOutlivesLaterTxns(t *testing.T) {
	for _, p := range []ProtocolKind{ProtocolOpenNested, Protocol2PLPage, Protocol2PLObject, ProtocolClosedNested} {
		t.Run(p.String(), func(t *testing.T) {
			db := Open(Options{Protocol: p, DisableTrace: true,
				Tracer: span.NewTracer(span.Options{Retain: 4096})})
			reg := registerRegType(t, db)
			run := func(v string) string {
				tx := db.Begin()
				if _, err := tx.Exec(reg, "set", v); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Exec(reg, "get"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				return tx.ID()
			}
			id := run("first")
			want := db.Spans().Lookup(id).Snapshot()
			if len(want.Spans) < 5 {
				t.Fatalf("trace has %d spans, want the root and 4 dispatches: %+v", len(want.Spans), want.Spans)
			}
			for i := 0; i < 2000; i++ {
				run(strconv.Itoa(i))
			}
			runtime.GC()
			if got := db.Spans().Lookup(id).Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("retained trace changed:\nbefore %+v\nafter  %+v", want, got)
			}
		})
	}
}
