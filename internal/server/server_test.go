package server

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testServer starts a server over a fresh durable engine with the banking
// type installed.
func testServer(t *testing.T, copts core.Options, sopts Options) (*Server, string) {
	t.Helper()
	if copts.Durability == 0 {
		copts.Durability = storage.GroupCommit
	}
	if copts.WALDir == "" {
		copts.WALDir = t.TempDir()
	}
	db, err := core.OpenDurable(copts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.InstallBanking(db, 4, 1000); err != nil {
		t.Fatal(err)
	}
	srv := New(db, sopts)
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

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// call sends one request and reads its response, asserting Seq echo.
func call(t *testing.T, conn net.Conn, m wire.Msg) wire.Msg {
	t.Helper()
	m.Seq = uint64(time.Now().UnixNano()) // any correlation id works
	if _, err := conn.Write(wire.AppendMsg(nil, m)); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != m.Seq {
		t.Fatalf("response Seq %d for request Seq %d", resp.Seq, m.Seq)
	}
	return resp
}

func mustOK(t *testing.T, conn net.Conn, m wire.Msg) string {
	t.Helper()
	resp := call(t, conn, m)
	if resp.Type != wire.MsgResult {
		t.Fatalf("%v: remote error %v: %s", m.Type, resp.Code, resp.Result)
	}
	return resp.Result
}

func mustFail(t *testing.T, conn net.Conn, m wire.Msg, code wire.ErrCode) {
	t.Helper()
	resp := call(t, conn, m)
	if resp.Type != wire.MsgError || resp.Code != code {
		t.Fatalf("%v: got type=%v code=%v result=%q, want error code %v",
			m.Type, resp.Type, resp.Code, resp.Result, code)
	}
}

// TestSessionLifecycle drives one session end to end over real TCP:
// begin/invoke/commit, state machine violations as typed errors, commit
// durability visible to the next transaction, stats and ping.
func TestSessionLifecycle(t *testing.T) {
	srv, addr := testServer(t, core.Options{MaxInflight: 4}, Options{})
	conn := dial(t, addr)

	if got := mustOK(t, conn, wire.Msg{Type: wire.MsgPing, Result: "echo"}); got != "echo" {
		t.Fatalf("ping echoed %q", got)
	}

	// Invocations and commit/abort outside a transaction are typed refusals.
	mustFail(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "balance"}, wire.CodeNoTxn)
	mustFail(t, conn, wire.Msg{Type: wire.MsgCommit}, wire.CodeNoTxn)
	mustFail(t, conn, wire.Msg{Type: wire.MsgAbort}, wire.CodeNoTxn)

	txid := mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	if txid == "" {
		t.Fatal("BEGIN returned empty transaction id")
	}
	mustFail(t, conn, wire.Msg{Type: wire.MsgBegin}, wire.CodeTxnOpen)
	mustFail(t, conn, wire.Msg{Type: wire.MsgInvoke}, wire.CodeBadRequest)
	mustFail(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "nosuch"}, wire.CodeUnknownMethod)
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "credit", Params: []string{"250"}})
	mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})

	// A fresh transaction sees the committed balance.
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "balance"}); bal != "1250" {
		t.Fatalf("balance after committed credit = %s, want 1250", bal)
	}
	// Aborting rolls back.
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "debit", Params: []string{"1000"}})
	mustOK(t, conn, wire.Msg{Type: wire.MsgAbort})
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct0", Method: "balance"}); bal != "1250" {
		t.Fatalf("balance after aborted debit = %s, want 1250", bal)
	}
	mustOK(t, conn, wire.Msg{Type: wire.MsgAbort})

	var stats StatsReply
	if err := json.Unmarshal([]byte(mustOK(t, conn, wire.Msg{Type: wire.MsgStats})), &stats); err != nil {
		t.Fatalf("STATS payload: %v", err)
	}
	if stats.Engine.TxnsCommitted == 0 || stats.Protocol == "" {
		t.Fatalf("STATS reply looks empty: %+v", stats)
	}
	_ = srv
}

// TestPageSession: raw page reads and writes over the wire.
func TestPageSession(t *testing.T) {
	srv, addr := testServer(t, core.Options{}, Options{})
	pg := srv.DB().AllocPage()
	id, err := core.PageID(pg)
	if err != nil {
		t.Fatalf("page OID %v: %v", pg, err)
	}
	pid := uint64(id)
	conn := dial(t, addr)
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustFail(t, conn, wire.Msg{Type: wire.MsgPageWrite, Page: pid}, wire.CodeBadRequest)
	mustOK(t, conn, wire.Msg{Type: wire.MsgPageWrite, Page: pid, Params: []string{"hello"}})
	if got := mustOK(t, conn, wire.Msg{Type: wire.MsgPageRead, Page: pid}); got != "hello" {
		t.Fatalf("page read %q, want hello", got)
	}
	mustOK(t, conn, wire.Msg{Type: wire.MsgCommit})
}

// TestDisconnectReleasesSlot is the slot-leak regression: a client that
// dies mid-transaction must have its transaction aborted and its admission
// slot returned, and its locks must not strand other sessions.
func TestDisconnectReleasesSlot(t *testing.T) {
	srv, addr := testServer(t, core.Options{MaxInflight: 1}, Options{})
	db := srv.DB()

	conn := dial(t, addr)
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})
	mustOK(t, conn, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct1", Method: "debit", Params: []string{"500"}})
	if got := db.Health().Inflight; got != 1 {
		t.Fatalf("inflight with one open session txn = %d, want 1", got)
	}
	conn.Close() // die mid-transaction, slot held

	deadline := time.Now().Add(5 * time.Second)
	for db.Health().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slot leaked after disconnect: inflight = %d", db.Health().Inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// MaxInflight is 1: a second session can only begin if the dead
	// session's slot was really released, and only read Acct1 if its locks
	// were really dropped by the abort.
	conn2 := dial(t, addr)
	mustOK(t, conn2, wire.Msg{Type: wire.MsgBegin})
	if bal := mustOK(t, conn2, wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
		ObjName: "Acct1", Method: "balance"}); bal != "1000" {
		t.Fatalf("balance after disconnected debit = %s, want rollback to 1000", bal)
	}
	mustOK(t, conn2, wire.Msg{Type: wire.MsgCommit})
}

// TestDisconnectCancelsParkedAdmission: a session waiting in the admission
// queue whose client disconnects must leave the queue promptly (via
// AdmitCtx) rather than hold a position for the full admission timeout.
func TestDisconnectCancelsParkedAdmission(t *testing.T) {
	srv, addr := testServer(t, core.Options{
		MaxInflight:      1,
		AdmissionTimeout: 30 * time.Second,
	}, Options{})
	db := srv.DB()

	holder := dial(t, addr)
	mustOK(t, holder, wire.Msg{Type: wire.MsgBegin})

	waiter := dial(t, addr)
	if _, err := waiter.Write(wire.AppendMsg(nil, wire.Msg{Seq: 1, Type: wire.MsgBegin})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the BEGIN park in the admission queue
	waiter.Close()

	// The holder can finish and the engine drains to zero without waiting
	// out the 30s admission timeout.
	mustOK(t, holder, wire.Msg{Type: wire.MsgAbort})
	deadline := time.Now().Add(5 * time.Second)
	for db.Health().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("parked admission not cancelled: inflight = %d", db.Health().Inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainShutdown: Shutdown stops accepting, aborts in-flight sessions
// (releasing their slots), and closes the engine; the whole sequence is
// idempotent.
func TestDrainShutdown(t *testing.T) {
	srv, addr := testServer(t, core.Options{MaxInflight: 8}, Options{})
	db := srv.DB()

	conns := make([]net.Conn, 3)
	for i := range conns {
		conns[i] = dial(t, addr)
		mustOK(t, conns[i], wire.Msg{Type: wire.MsgBegin})
		mustOK(t, conns[i], wire.Msg{Type: wire.MsgInvoke, ObjType: workload.AccountType,
			ObjName: "Acct2", Method: "credit", Params: []string{"1"}})
	}
	if got := db.Health().Inflight; got != 3 {
		t.Fatalf("inflight = %d, want 3", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !db.Closed() {
		t.Fatal("engine not closed after Shutdown")
	}
	if got := db.Health().Inflight; got != 0 {
		t.Fatalf("leaked admission slots after Shutdown: %d", got)
	}
	// In-flight sessions were cut.
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadMsg(c); err == nil {
			t.Fatal("session conn still alive after Shutdown")
		}
	}
	// New connections are refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestIdleReap: a silent session is cut after IdleTimeout, counted on
// server.sessions_reaped, and its open transaction aborted.
func TestIdleReap(t *testing.T) {
	srv, addr := testServer(t, core.Options{
		MaxInflight: 2,
		Obs:         obs.New(),
	}, Options{IdleTimeout: 100 * time.Millisecond})
	db := srv.DB()

	conn := dial(t, addr)
	mustOK(t, conn, wire.Msg{Type: wire.MsgBegin})

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadMsg(conn); err == nil {
		t.Fatal("idle session was not cut")
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Health().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaped session leaked its slot: inflight = %d", db.Health().Inflight)
		}
		time.Sleep(time.Millisecond)
	}
	if n := db.Obs().Counter("server.sessions_reaped").Load(); n != 1 {
		t.Fatalf("server.sessions_reaped = %d, want 1", n)
	}
}

// TestBadFrameCutsSession: garbage on the wire disconnects that session
// (and counts it) without harming the listener.
func TestBadFrameCutsSession(t *testing.T) {
	srv, addr := testServer(t, core.Options{Obs: obs.New()}, Options{})
	conn := dial(t, addr)
	if _, err := conn.Write([]byte("this is not a frame, not even close.")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := wire.ReadMsg(conn); err != nil {
			break // session cut
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.DB().Obs().Counter("server.frame_errors").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server.frame_errors never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	// The listener survived: a fresh session works end to end.
	conn2 := dial(t, addr)
	mustOK(t, conn2, wire.Msg{Type: wire.MsgBegin})
	mustOK(t, conn2, wire.Msg{Type: wire.MsgAbort})
}

// TestPipelinedFramesInOneWrite: two frames arriving in one segment are
// both answered, in order — the session's buffered reader must not drop
// the second frame it pulled in with the first.
func TestPipelinedFramesInOneWrite(t *testing.T) {
	_, addr := testServer(t, core.Options{}, Options{})
	conn := dial(t, addr)
	buf := wire.AppendMsg(nil, wire.Msg{Seq: 1, Type: wire.MsgPing, Result: "one"})
	buf = wire.AppendMsg(buf, wire.Msg{Seq: 2, Type: wire.MsgPing, Result: "two"})
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, want := range []string{"one", "two"} {
		resp, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if resp.Seq != uint64(i+1) || resp.Result != want {
			t.Fatalf("reply %d = seq %d %q, want seq %d %q", i+1, resp.Seq, resp.Result, i+1, want)
		}
	}
}

// TestFrameSplitAtEveryOffset: a frame that arrives in two pieces, cut at
// any byte, still decodes — for a frame smaller than the session's read
// buffer at every offset, and for one larger than it at offsets around the
// buffer's size.
func TestFrameSplitAtEveryOffset(t *testing.T) {
	_, addr := testServer(t, core.Options{}, Options{})
	conn := dial(t, addr)
	type cut struct {
		result string
		at     int
	}
	var cuts []cut
	smallLen := len(wire.AppendMsg(nil, wire.Msg{Type: wire.MsgPing, Result: "split"}))
	for at := 1; at < smallLen; at++ {
		cuts = append(cuts, cut{"split", at})
	}
	large := strings.Repeat("L", 10000)
	for _, at := range []int{1, 8, 9, 4095, 4096, 4097, 8192, 10000} {
		cuts = append(cuts, cut{large, at})
	}
	for i, c := range cuts {
		seq := uint64(i + 1)
		frame := wire.AppendMsg(nil, wire.Msg{Seq: seq, Type: wire.MsgPing, Result: c.result})
		if _, err := conn.Write(frame[:c.at]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let the first piece arrive on its own
		if _, err := conn.Write(frame[c.at:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("%d-byte frame cut at %d: %v", len(frame), c.at, err)
		}
		if resp.Seq != seq || resp.Result != c.result {
			t.Fatalf("%d-byte frame cut at %d: reply seq %d, want %d", len(frame), c.at, resp.Seq, seq)
		}
	}
}

// TestAppendDuration: the session span's note renders durations exactly as
// time.Duration.String does, across every unit and rounding boundary.
func TestAppendDuration(t *testing.T) {
	ds := []time.Duration{0, 1, 999, 1000, 1001, 1500, 999999, time.Millisecond,
		1234567, 999999999, time.Second, 1500 * time.Millisecond, 59*time.Second + 999*time.Millisecond,
		time.Minute, time.Minute + 1, time.Hour, time.Hour + time.Second, 100*time.Hour + 7*time.Minute,
		-1, -1500 * time.Microsecond, -time.Hour, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Int63n(int64(2 * time.Hour)))
		ds = append(ds, d, d.Round(time.Microsecond), d.Round(time.Millisecond), time.Duration(rng.Int63()))
	}
	for _, d := range ds {
		if got := string(appendDuration([]byte("x"), d)); got != "x"+d.String() {
			t.Fatalf("appendDuration(%d) = %q, want %q", int64(d), got[1:], d.String())
		}
	}
}
