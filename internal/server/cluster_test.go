package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testClusterServer starts a server over a fresh N-partition mem-only
// cluster with the banking type installed on every partition (accounts
// Acct0..7, 1000 each — the router decides which partition's copy a name
// actually reaches).
func testClusterServer(t *testing.T, n int, eopts core.Options, sopts Options) (*Server, string) {
	t.Helper()
	c, err := partition.Open(partition.Options{
		N:      n,
		Engine: eopts,
		Obs:    obs.New(),
		Register: func(i int, db *core.DB) error {
			_, err := workload.InstallBanking(db, 8, 1000)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCluster(c, sopts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr
}

// acctOn returns an account name (from the installed Acct0..7) routed to
// the given partition, and one routed anywhere else.
func acctOn(t *testing.T, n, p int) (same, other string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("Acct%d", i)
		if partition.RouteName(name, n) == p {
			if same == "" {
				same = name
			}
		} else if other == "" {
			other = name
		}
	}
	if same == "" || other == "" {
		t.Skipf("Acct0..7 do not cover partition %d of %d and a neighbor", p, n)
	}
	return same, other
}

// TestClusterPinAndWrongPartition: on a multi-partition server the first
// object access pins the transaction; a later access routed elsewhere is
// refused with the typed wrong-partition code and the transaction stays
// usable on its own partition.
func TestClusterPinAndWrongPartition(t *testing.T) {
	const n = 4
	srv, addr := testClusterServer(t, n, core.Options{MaxInflight: 4}, Options{})
	conn := dial(t, addr)

	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	pin := "Acct0"
	p := partition.RouteName(pin, n)
	_, other := acctOn(t, n, p)

	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: pin, Method: "credit", Params: []string{"5"}})
	// The pin consumed exactly one slot, on the pinned partition.
	if got := srv.Cluster().Part(p).Health().Inflight; got != 1 {
		t.Fatalf("pinned partition inflight = %d, want 1", got)
	}
	if got := srv.Cluster().Health().Inflight; got != 1 {
		t.Fatalf("cluster inflight = %d, want 1", got)
	}

	mustFail(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: other, Method: "credit", Params: []string{"5"}}, wire.CodeWrongPartition)

	// The refusal did not kill the transaction: same-partition work and
	// commit still succeed.
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: pin, Method: "balance"})
	mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})

	// And the committed credit landed on the routed partition only.
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: pin, Method: "balance"}); bal != "1005" {
		t.Fatalf("balance = %s, want 1005", bal)
	}
	mustOK(t, conn, wire.Msg{Type: wire.MsgAbort})
	if got := srv.Cluster().Health().Inflight; got != 0 {
		t.Fatalf("cluster inflight after quiesce = %d, want 0", got)
	}
}

// TestClusterEmptyTxnConsumesNoSlot: BEGIN on a multi-partition cluster is
// pending until the first object access; committing (or aborting) without
// one must admit nowhere.
func TestClusterEmptyTxnConsumesNoSlot(t *testing.T) {
	srv, addr := testClusterServer(t, 2, core.Options{MaxInflight: 1}, Options{})
	conn := dial(t, addr)

	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustFail(t, conn, wire.Msg{Type: wire.MsgBegin}, wire.CodeTxnOpen)
	if got := srv.Cluster().Health().Inflight; got != 0 {
		t.Fatalf("pending BEGIN consumed a slot: inflight = %d", got)
	}
	mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustOK(t, conn, wire.Msg{Type: wire.MsgAbort})
	if got := srv.Cluster().Health().Inflight; got != 0 {
		t.Fatalf("empty txns leaked slots: inflight = %d", got)
	}
}

// TestClusterDisconnectReleasesPinnedSlot: the no-slot-leak invariant per
// partition — a client dying mid-transaction returns the slot to the
// partition it was pinned to.
func TestClusterDisconnectReleasesPinnedSlot(t *testing.T) {
	const n = 4
	srv, addr := testClusterServer(t, n, core.Options{MaxInflight: 1}, Options{})
	conn := dial(t, addr)

	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "debit", Params: []string{"10"}})
	p := partition.RouteName("Acct0", n)
	if got := srv.Cluster().Part(p).Health().Inflight; got != 1 {
		t.Fatalf("pinned partition inflight = %d, want 1", got)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Cluster().Health().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pinned slot leaked after disconnect: inflight = %d",
				srv.Cluster().Health().Inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// The rolled-back debit is invisible and the slot reusable (MaxInflight
	// is 1 per partition).
	conn2 := dial(t, addr)
	mustOK(t, conn2, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn2, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "balance"}); bal != "1000" {
		t.Fatalf("balance after disconnected debit = %s, want 1000", bal)
	}
	mustOK(t, conn2, wire.Msg{Type: wire.MsgCommit})
}

// TestClusterStatsAggregate: STATS on a multi-partition server reports
// cluster-wide sums and the partition count.
func TestClusterStatsAggregate(t *testing.T) {
	const n = 4
	srv, addr := testClusterServer(t, n, core.Options{}, Options{})
	conn := dial(t, addr)

	// Touch at least two different partitions.
	for _, name := range []string{"Acct0", "Acct1", "Acct2", "Acct3"} {
		mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
		mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
			ObjName: name, Method: "credit", Params: []string{"1"}})
		mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})
	}
	var stats StatsReply
	if err := json.Unmarshal([]byte(mustOK(t, conn, wire.Msg{Type: wire.MsgStats})), &stats); err != nil {
		t.Fatalf("STATS payload: %v", err)
	}
	if stats.Partitions != n {
		t.Fatalf("STATS partitions = %d, want %d", stats.Partitions, n)
	}
	var want int64
	for i := 0; i < n; i++ {
		want += srv.Cluster().Part(i).Stats().TxnsCommitted
	}
	if stats.Engine.TxnsCommitted != want {
		t.Fatalf("STATS committed = %d, want partition sum %d", stats.Engine.TxnsCommitted, want)
	}
}

// TestQueuedFrameBehindCommitGetsNoTxn is the deterministic half of the
// finish()-vs-queue ordering regression: frames pipelined behind a COMMIT
// run after finish() has cleared the session, so they must be refused with
// CodeNoTxn — never executed against the released slot's transaction.
func TestQueuedFrameBehindCommitGetsNoTxn(t *testing.T) {
	_, addr := testServer(t, core.Options{MaxInflight: 1}, Options{})
	conn := dial(t, addr)

	// Pipeline the whole batch without reading responses: the reader
	// goroutine queues INVOKE (seq 4, 5) behind COMMIT (seq 3).
	batch := []wire.Msg{
		{Seq: 1, Type: wire.MsgBegin},
		{Seq: 2, Type: wire.MsgInvoke, ObjType: workload.AccountType,
			ObjName: "Acct0", Method: "credit", Params: []string{"7"}},
		{Seq: 3, Type: wire.MsgCommit},
		{Seq: 4, Type: wire.MsgInvoke, ObjType: workload.AccountType,
			ObjName: "Acct0", Method: "credit", Params: []string{"9999"}},
		{Seq: 5, Type: wire.MsgPageWrite, Page: 1, Params: []string{"junk"}},
	}
	for _, m := range batch {
		if _, err := conn.Write(wire.AppendMsg(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	for i, wantCode := range []wire.ErrCode{wire.CodeOK, wire.CodeOK, wire.CodeOK,
		wire.CodeNoTxn, wire.CodeNoTxn} {
		resp, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if resp.Seq != uint64(i+1) {
			t.Fatalf("response %d has Seq %d — pipeline order broken", i+1, resp.Seq)
		}
		if wantCode == wire.CodeOK {
			if resp.Type != wire.MsgResult {
				t.Fatalf("seq %d: error %v: %s", resp.Seq, resp.Code, resp.Result)
			}
		} else if resp.Type != wire.MsgError || resp.Code != wantCode {
			t.Fatalf("seq %d: got type=%v code=%v, want %v", resp.Seq, resp.Type, resp.Code, wantCode)
		}
	}
	// Only the pre-commit credit is visible.
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "balance"}); bal != "1007" {
		t.Fatalf("balance = %s, want 1007 (queued frames must not execute)", bal)
	}
	mustOK(t, conn, wire.Msg{Type: wire.MsgAbort})
}

// TestQueuedFramesBehindCommitThenDisconnect is the racing half: a session
// that pipelines work behind a COMMIT and disconnects immediately must
// never let the queued frames (or the cleanup path) touch the admission
// slot COMMIT released — the slot count returns to zero every round, with
// the race detector watching finish() vs. the queued-request handler.
func TestQueuedFramesBehindCommitThenDisconnect(t *testing.T) {
	srv, addr := testServer(t, core.Options{MaxInflight: 1}, Options{})
	db := srv.DB()
	for round := 0; round < 40; round++ {
		conn := dial(t, addr)
		batch := []wire.Msg{
			{Seq: 1, Type: wire.MsgBegin},
			{Seq: 2, Type: wire.MsgInvoke, ObjType: workload.AccountType,
				ObjName: "Acct3", Method: "credit", Params: []string{"1"}},
			{Seq: 3, Type: wire.MsgCommit},
			{Seq: 4, Type: wire.MsgInvoke, ObjType: workload.AccountType,
				ObjName: "Acct3", Method: "credit", Params: []string{"1"}},
			{Seq: 5, Type: wire.MsgCommit},
		}
		for _, m := range batch {
			if _, err := conn.Write(wire.AppendMsg(nil, m)); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close() // disconnect with frames still queued, any time

		deadline := time.Now().Add(5 * time.Second)
		for db.Health().Inflight != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: slot not released: inflight = %d", round, db.Health().Inflight)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The engine is still fully usable on the single slot.
	conn := dial(t, addr)
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct3", Method: "balance"})
	mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})
}
