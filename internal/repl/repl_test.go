package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wire"
	"repro/internal/workload"
)

const testAccounts = 4

// bankEngine is the promotion hook the tests (and cmd/oodbd) use: fresh
// directories get a funded banking schema, restarts recover it.
func bankEngine(dir string, fresh bool) (*core.DB, error) {
	opts := core.Options{Durability: storage.GroupCommit, WALDir: dir}
	if fresh {
		db, err := core.OpenDurable(opts)
		if err != nil {
			return nil, err
		}
		if _, err := workload.InstallBanking(db, testAccounts, 0); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}
	db, _, err := recovery.RecoverDir(dir, opts, func(db *core.DB) error {
		_, rerr := workload.RegisterBanking(db, testAccounts)
		return rerr
	})
	return db, err
}

func acct(i int) txn.OID {
	return txn.OID{Type: workload.AccountType, Name: fmt.Sprintf("Acct%d", i)}
}

// freeAddrs reserves k distinct loopback addresses. The listeners are
// closed before returning, so a parallel process could steal a port —
// acceptable in tests.
func freeAddrs(t testing.TB, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func testConfig(t testing.TB, id, dir string) Config {
	return Config{
		ID:              id,
		Dir:             dir,
		Advertise:       "client-" + id,
		OpenEngine:      bankEngine,
		ElectionTimeout: 60 * time.Millisecond,
		Heartbeat:       15 * time.Millisecond,
		AckTimeout:      500 * time.Millisecond,
		Durability:      storage.GroupCommit,
		Logf:            t.Logf,
	}
}

// startCluster boots k nodes wired to each other and registers cleanup.
func startCluster(t testing.TB, k int) []*Node { return startClusterWith(t, k, nil) }

// startClusterWith is startCluster with tweak applied to node i's
// configuration before it opens (nil: none).
func startClusterWith(t testing.TB, k int, tweak func(i int, cfg *Config)) []*Node {
	t.Helper()
	addrs := freeAddrs(t, k)
	nodes := make([]*Node, k)
	for i := 0; i < k; i++ {
		cfg := testConfig(t, fmt.Sprintf("n%d", i), t.TempDir())
		cfg.Addr = addrs[i]
		for j := 0; j < k; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, Peer{ID: fmt.Sprintf("n%d", j), Addr: addrs[j]})
			}
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		n, err := Open(cfg)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return nodes
}

// waitLeader blocks until some node is a fully promoted leader (engine
// open, cluster available).
func waitLeader(t testing.TB, nodes []*Node) *Node {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			if _, ok := n.LeaderCluster(); ok {
				return n
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		if n != nil {
			t.Logf("status: %+v err=%v", n.Status(), n.Err())
		}
	}
	t.Fatal("no leader elected")
	return nil
}

func credit(t testing.TB, n *Node, account int, amount int64) error {
	t.Helper()
	db := n.DB()
	if db == nil {
		return errors.New("not leader")
	}
	tx := db.Begin()
	if _, err := tx.Exec(acct(account), "credit", strconv.FormatInt(amount, 10)); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func balance(t *testing.T, n *Node, account int) int64 {
	t.Helper()
	db := n.DB()
	if db == nil {
		t.Fatal("balance: not leader")
	}
	tx := db.Begin()
	defer tx.Abort()
	s, err := tx.Exec(acct(account), "balance")
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("balance %q: %v", s, err)
	}
	return v
}

func TestSingleNodeSelfElectsAndCommitsDurably(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, "solo", dir)
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ld := waitLeader(t, []*Node{n})
	for i := 0; i < 5; i++ {
		if err := credit(t, ld, 0, 1); err != nil {
			t.Fatalf("credit %d: %v", i, err)
		}
	}
	if got := balance(t, ld, 0); got != 5 {
		t.Fatalf("balance = %d, want 5", got)
	}
	term1 := n.Term()
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart over the same directory: promotion recovers the log.
	n2, err := Open(testConfig(t, "solo", dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	ld = waitLeader(t, []*Node{n2})
	if got := balance(t, ld, 0); got != 5 {
		t.Fatalf("post-restart balance = %d, want 5", got)
	}
	if n2.Term() <= term1 {
		t.Fatalf("restart term %d did not advance past %d", n2.Term(), term1)
	}
}

func TestThreeNodeReplicationAndFailover(t *testing.T) {
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	const acked = 10
	for i := 0; i < acked; i++ {
		if err := credit(t, ld, 1, 1); err != nil {
			t.Fatalf("credit %d: %v", i, err)
		}
	}
	oldTerm := ld.Term()

	// Kill the leader; the survivors must elect and keep every acked commit.
	for i, n := range nodes {
		if n == ld {
			n.Close()
			nodes[i] = nil
		}
	}
	ld2 := waitLeader(t, nodes)
	if ld2.Term() <= oldTerm {
		t.Fatalf("new term %d not past old %d", ld2.Term(), oldTerm)
	}
	if got := balance(t, ld2, 1); got != acked {
		t.Fatalf("post-failover balance = %d, want %d (acked commits lost)", got, acked)
	}
	// And the new leader still replicates: another commit must succeed.
	if err := credit(t, ld2, 1, 1); err != nil {
		t.Fatalf("post-failover credit: %v", err)
	}
}

// TestLeaderReportsApplied: after a burst, a leader's Applied is its
// commit index — its engine produced every committed entry — so no
// follower reads as further along than the leader.
func TestLeaderReportsApplied(t *testing.T) {
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	for i := 0; i < 10; i++ {
		if err := credit(t, ld, 1, 1); err != nil {
			t.Fatalf("credit %d: %v", i, err)
		}
	}
	st := ld.Status()
	if st.Applied != st.CommitIndex || st.CommitIndex == 0 {
		t.Fatalf("leader status %+v: applied must equal a non-zero commit index", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, f := range followers(nodes, ld) {
		for f.Status().Applied < st.CommitIndex && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if fa, la := f.Status().Applied, ld.Status().Applied; fa == 0 || fa > la {
			t.Fatalf("%s applied %d, leader %d", f.cfg.ID, fa, la)
		}
	}
}

func TestFollowerCatchesUpAndServesStandbyReads(t *testing.T) {
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	for i := 0; i < 6; i++ {
		if err := credit(t, ld, 2, 1); err != nil {
			t.Fatalf("credit: %v", err)
		}
	}
	st := ld.Status()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		if n == ld {
			continue
		}
		for {
			fs := n.Status()
			if fs.Applied >= st.CommitIndex && fs.LagEntries == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %s stuck at %+v (leader %+v)", fs.Node, fs, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The standby image must hold committed data: some page carries the
		// final balance of account 2.
		found := false
		for pg := uint64(1); pg < 64 && !found; pg++ {
			if data, ok := n.StandbyRead(pg); ok && data == "6" {
				found = true
			}
		}
		if !found {
			t.Fatalf("follower %s standby holds no page with balance 6", n.cfg.ID)
		}
	}
}

// frameParams encodes records as wire-ready frames.
func frameParams(recs ...storage.Record) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = string(storage.EncodeRecordFrame(nil, rec))
	}
	return out
}

func upd(lsn uint64, page storage.PageID, after string) storage.Record {
	return storage.Record{LSN: lsn, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T1"), Page: page, After: after}
}

// passiveFollower opens a node that will never start an election.
func passiveFollower(t *testing.T, dir string) *Node {
	t.Helper()
	cfg := testConfig(t, "passive", dir)
	cfg.ElectionTimeout = 10 * time.Minute
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// serve handles m as a connection's handler does, building the reply in
// a block of its own.
func (n *Node) serve(m wire.Msg) wire.Msg { return n.handleRPC(m, new(wire.ReplExt)) }

func TestFollowerAppendCommitStandby(t *testing.T) {
	n := passiveFollower(t, t.TempDir())
	req := wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 1, From: "ldr", Addr: "ldr-client", EntryTerm: 1,
	}, Params: frameParams(upd(1, 1, "hello"), upd(2, 2, "world"))}
	resp := n.serve(req)
	if !resp.Repl.OK() || resp.Repl.Match != 2 {
		t.Fatalf("append ack = %+v", resp.Repl)
	}
	if got := n.Status(); got.Role != "follower" || got.LastLSN != 2 || got.Leader != "ldr-client" {
		t.Fatalf("status = %+v", got)
	}
	if _, ok := n.StandbyRead(1); ok {
		t.Fatal("uncommitted entry visible on standby")
	}

	// A heartbeat carrying the commit index applies into the standby.
	hb := wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 1, From: "ldr", PrevLSN: 2, PrevTerm: 1, Commit: 2,
	}}
	resp = n.serve(hb)
	if !resp.Repl.OK() || resp.Repl.Match != 2 {
		t.Fatalf("heartbeat ack = %+v", resp.Repl)
	}
	if data, ok := n.StandbyRead(1); !ok || data != "hello" {
		t.Fatalf("standby page 1 = %q/%v, want hello", data, ok)
	}
	if data, ok := n.StandbyRead(2); !ok || data != "world" {
		t.Fatalf("standby page 2 = %q/%v, want world", data, ok)
	}

	// Stale-term traffic is refused.
	resp = n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{Term: 0, From: "old"}})
	if resp.Repl.OK() {
		t.Fatal("stale-term append accepted")
	}
}

// TestReplExchangeAllocs: in steady state a replication exchange
// allocates only what the message read costs. A follower handles a
// pre-read append of k records (updates and intents with Refs), committing
// and applying them, and replies into a reused block for less than 0.1
// objects amortized: the entry log's chunks and the Refs slab are shared
// by hundreds of records. A leader applies a steady-state ack to its
// match and commit index for none.
func TestReplExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const k, msgs = 4, 400
	var stream []byte
	for i := range msgs {
		prev := uint64(i * k)
		recs := make([]storage.Record, k)
		for j := range recs {
			lsn := prev + uint64(j) + 1
			if j%2 == 0 {
				recs[j] = upd(lsn, storage.PageID(1+j), "v"+strconv.Itoa(i))
			} else {
				recs[j] = storage.Record{LSN: lsn, Kind: storage.RecIntent, Owner: storage.ParseOwner("T1.2"),
					Note: "undo", Refs: []uint64{lsn - 1, lsn - 2}}
			}
		}
		stream = wire.AppendMsg(stream, wire.Msg{Seq: uint64(i), Type: wire.MsgReplAppend,
			Params: frameParams(recs...), Repl: &wire.ReplExt{Term: 1, From: "ldr", Addr: "ldr-client",
				PrevLSN: prev, PrevTerm: min(prev, 1), EntryTerm: 1, Commit: prev + k}})
	}
	var in []wire.Msg // read as a connection reads them, each with a block of its own
	for r := bytes.NewReader(stream); r.Len() > 0; {
		m, err := wire.ReadMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, m)
	}

	n := passiveFollower(t, t.TempDir())
	reply := new(wire.ReplExt)
	i := 0
	handle := func() {
		resp := n.handleRPC(in[i], reply)
		if want := uint64(i+1) * k; !resp.Repl.OK() || resp.Repl.Match != want {
			t.Fatalf("append %d: ack %+v, want a success matching %d", i, resp.Repl, want)
		}
		i++
	}
	for range 8 { // the term and fence persist, the first chunks
		handle()
	}
	// testing.AllocsPerRun rounds down to whole objects; an amortized
	// figure needs the fraction.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i < msgs {
		handle()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(msgs-8)
	t.Logf("a follower handles a %d-record append for %.3f objects", k, allocs)
	if allocs >= 0.1 {
		t.Errorf("a follower handles a %d-record append for %.2f objects, want < 0.1", k, allocs)
	}
	if got, ok := n.StandbyRead(1); !ok || got != "v"+strconv.Itoa(msgs-1) {
		t.Fatalf("standby page 1 = %q, %v after the appends", got, ok)
	}

	ld := &Node{quorum: 2, role: RoleLeader, term: 1, fences: []fence{{Term: 1, First: 1}},
		match: map[string]uint64{"f1": 0, "f2": 0}, next: map[string]uint64{"f1": 1, "f2": 1}}
	ld.cond = sync.NewCond(&ld.mu)
	ack := &wire.ReplExt{Term: 1, Flags: wire.ReplFlagOK, From: "f1"}
	f1 := Peer{ID: "f1"}
	if allocs := testing.AllocsPerRun(100, func() {
		ld.lastLSN += k
		ld.want = ld.lastLSN
		prevNext := ack.Match + 1
		ack.Match = ld.lastLSN
		if deposed, more := ld.ackedLocked(f1, ack, prevNext); deposed || more {
			t.Fatalf("ack of %d: deposed %v, more %v", ack.Match, deposed, more)
		}
	}); allocs != 0 {
		t.Errorf("a leader applies an ack for %.1f objects, want 0", allocs)
	}
	if ld.commitIndex != ld.lastLSN || ld.next["f1"] != ld.lastLSN+1 {
		t.Fatalf("after the acks commit %d, next %d; want %d, %d", ld.commitIndex, ld.next["f1"], ld.lastLSN, ld.lastLSN+1)
	}
}

func TestFollowerConflictTruncationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	n := passiveFollower(t, dir)
	// Term-1 history: three entries, the first committed.
	resp := n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 1, From: "a", EntryTerm: 1, Commit: 1,
	}, Params: frameParams(upd(1, 1, "keep"), upd(2, 1, "stale-2"), upd(3, 1, "stale-3"))})
	if !resp.Repl.OK() || resp.Repl.Match != 3 {
		t.Fatalf("seed ack = %+v", resp.Repl)
	}
	// A term-2 leader overwrites LSN 2.. with its own history.
	resp = n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 2, From: "b", PrevLSN: 1, PrevTerm: 1, EntryTerm: 2, Commit: 4,
	}, Params: frameParams(upd(2, 1, "new-2"), upd(3, 1, "new-3"), upd(4, 1, "new-4"))})
	if !resp.Repl.OK() || resp.Repl.Match != 4 {
		t.Fatalf("overwrite ack = %+v", resp.Repl)
	}
	n.mu.Lock()
	gotTerm := n.termOfLocked(2)
	gotAfter := n.entries.at(2).rec.After
	n.mu.Unlock()
	if gotTerm != 2 || gotAfter != "new-2" {
		t.Fatalf("entry 2 = term %d after %q, want term 2 after new-2", gotTerm, gotAfter)
	}
	if data, ok := n.StandbyRead(1); !ok || data != "new-4" {
		t.Fatalf("standby = %q/%v, want new-4", data, ok)
	}
	n.Close()

	// The truncation and the term fences must be durable.
	n2 := passiveFollower(t, dir)
	n2.mu.Lock()
	defer n2.mu.Unlock()
	if n2.lastLSN != 4 || n2.termOfLocked(4) != 2 || n2.termOfLocked(1) != 1 {
		t.Fatalf("restart state: last=%d t4=%d t1=%d", n2.lastLSN, n2.termOfLocked(4), n2.termOfLocked(1))
	}
	if n2.entries.at(3).rec.After != "new-3" {
		t.Fatalf("restart entry 3 = %q", n2.entries.at(3).rec.After)
	}
}

func TestSnapshotInstallSeedsFreshFollower(t *testing.T) {
	// Build a real checkpoint by running an engine elsewhere.
	src := t.TempDir()
	db, err := bankEngine(src, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(acct(3), "credit", "1"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.Close()
	snap, path, err := checkpoint.Latest(src)
	if err != nil {
		t.Fatalf("latest: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	n := passiveFollower(t, t.TempDir())
	resp := n.serve(wire.Msg{Type: wire.MsgReplSnapshot, Repl: &wire.ReplExt{
		Term: 3, From: "ldr", PrevLSN: snap.LSN, PrevTerm: 3,
	}, Params: []string{string(raw)}})
	if !resp.Repl.OK() || resp.Repl.Match != snap.LSN {
		t.Fatalf("install ack = %+v (snap lsn %d)", resp.Repl, snap.LSN)
	}
	st := n.Status()
	if st.LastLSN != snap.LSN || st.Applied != snap.LSN {
		t.Fatalf("post-install status = %+v", st)
	}
	// The log restarts just past the barrier.
	resp = n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 3, From: "ldr", PrevLSN: snap.LSN, PrevTerm: 3, EntryTerm: 3,
	}, Params: frameParams(upd(snap.LSN+1, 1, "past-barrier"))})
	if !resp.Repl.OK() || resp.Repl.Match != snap.LSN+1 {
		t.Fatalf("post-install append ack = %+v", resp.Repl)
	}
	// A stale re-send of the same snapshot is acknowledged, not reinstalled.
	resp = n.serve(wire.Msg{Type: wire.MsgReplSnapshot, Repl: &wire.ReplExt{
		Term: 3, From: "ldr", PrevLSN: snap.LSN, PrevTerm: 3,
	}, Params: []string{string(raw)}})
	if !resp.Repl.OK() {
		t.Fatalf("stale install ack = %+v", resp.Repl)
	}
}

func TestVoteRestriction(t *testing.T) {
	n := passiveFollower(t, t.TempDir())
	resp := n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 2, From: "a", EntryTerm: 2,
	}, Params: frameParams(upd(1, 1, "x"), upd(2, 1, "y"))})
	if !resp.Repl.OK() {
		t.Fatalf("seed: %+v", resp.Repl)
	}
	// A candidate whose log ends before ours is refused...
	resp = n.serve(wire.Msg{Type: wire.MsgReplVote, Repl: &wire.ReplExt{
		Term: 3, From: "short", PrevLSN: 1, PrevTerm: 2,
	}})
	if resp.Repl.OK() {
		t.Fatal("granted vote to a shorter log")
	}
	// ...even though the term bumped; an equal log is granted (same term,
	// and the earlier refusal recorded no vote).
	resp = n.serve(wire.Msg{Type: wire.MsgReplVote, Repl: &wire.ReplExt{
		Term: 3, From: "equal", PrevLSN: 2, PrevTerm: 2,
	}})
	if !resp.Repl.OK() {
		t.Fatalf("refused vote for an up-to-date log: %+v", resp.Repl)
	}
	// One vote per term: a second candidate in the same term is refused.
	resp = n.serve(wire.Msg{Type: wire.MsgReplVote, Repl: &wire.ReplExt{
		Term: 3, From: "rival", PrevLSN: 9, PrevTerm: 3,
	}})
	if resp.Repl.OK() {
		t.Fatal("double vote in one term")
	}
}

func TestIsolatedLeaderAbdicatesAndRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second partition test")
	}
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	if err := credit(t, ld, 0, 1); err != nil {
		t.Fatal(err)
	}

	// Partition the leader: its next commit must fail typed (NotLeader, so
	// clients redirect) once it has waited AckTimeout for quorum, and the
	// majority must elect a replacement.
	ld.SetIsolated(true)
	start := time.Now()
	err := credit(t, ld, 0, 1)
	took := time.Since(start)
	if err == nil {
		t.Fatal("commit succeeded on an isolated leader")
	}
	if !errors.Is(err, wire.ErrNotLeader) && !errors.Is(err, storage.ErrWALPoisoned) {
		t.Fatalf("isolated commit error = %v, want NotLeader/Poisoned", err)
	}
	// The upper bound is loose on purpose: the race step runs packages in
	// parallel on shared CPUs.
	if ack := ld.cfg.AckTimeout; took < ack || took > 2*ack {
		t.Fatalf("isolated commit failed after %v, want between %v and %v", took, ack, 2*ack)
	}
	ld2 := waitLeader(t, followers(nodes, ld))
	if err := credit(t, ld2, 0, 1); err != nil {
		t.Fatalf("majority-side credit: %v", err)
	}

	// Heal: the deposed leader must rejoin as a follower and catch up.
	ld.SetIsolated(false)
	deadline := time.Now().Add(10 * time.Second)
	want := ld2.Status().CommitIndex
	for {
		st := ld.Status()
		if st.Role == "follower" && st.Term >= ld2.Term() && st.Applied >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deposed leader stuck: %+v (want term %d applied %d)", st, ld2.Term(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := balance(t, ld2, 0); got != 2 {
		t.Fatalf("balance = %d, want 2 (isolated-side ack must not surface)", got)
	}
}

// TestSlowAppendKeepsLeader: a follower whose append handler outlasts its
// election timeout must not elect itself the moment the append returns.
// The timer fires while the handler holds the node mutex; the tick that
// then runs has just heard from the leader.
func TestSlowAppendKeepsLeader(t *testing.T) {
	nodes := startCluster(t, 3)
	leader := waitLeader(t, nodes)
	time.Sleep(100 * time.Millisecond) // every follower learns the term
	term := leader.Status().Term

	if err := fault.Default.ArmString("repl.append=delay(250ms);count=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Default.Disarm("repl.append") })
	deadline := time.Now().Add(5 * time.Second)
	for fpReplAppend.Armed() {
		if time.Now().After(deadline) {
			t.Fatal("no follower ran an append")
		}
		time.Sleep(time.Millisecond)
	}
	// The delayed append, the stale tick behind it and a few heartbeats.
	time.Sleep(500 * time.Millisecond)
	for _, n := range nodes {
		if st := n.Status(); st.Term != term {
			t.Fatalf("%s moved from term %d to %d after a slow append", st.Node, term, st.Term)
		}
	}
	if leader.Role() != RoleLeader {
		t.Fatalf("leader %s lost its role", leader.Status().Node)
	}
}
