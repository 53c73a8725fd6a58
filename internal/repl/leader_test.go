package repl

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// waitFenced blocks until ld has committed the fence entry of its term,
// so promotion no longer demands anything on its own.
func waitFenced(t testing.TB, ld *Node) {
	t.Helper()
	db := ld.DB()
	if db == nil {
		t.Fatal("waitFenced: not leader")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var fence uint64
		for _, rec := range db.WAL().Records() {
			if rec.Owner.String() == "repl:fence" {
				fence = rec.LSN
			}
		}
		ld.mu.Lock()
		done := fence >= ld.fences[len(ld.fences)-1].First && ld.commitIndex >= fence
		ld.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never committed its fence: %+v", ld.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// followers returns the nodes other than ld.
func followers(nodes []*Node, ld *Node) []*Node {
	var out []*Node
	for _, n := range nodes {
		if n != ld {
			out = append(out, n)
		}
	}
	return out
}

// fsyncs reports how many times a follower's own log has fsync'd.
func fsyncs(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fw.Fsyncs()
}

// waitHolds blocks until every node's log reaches lsn.
func waitHolds(t testing.TB, nodes []*Node, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for n.Status().LastLSN < lsn {
			if time.Now().After(deadline) {
				t.Fatalf("%s holds %d, want %d", n.cfg.ID, n.Status().LastLSN, lsn)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestRecordsShipOnDemand(t *testing.T) {
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	waitFenced(t, ld)
	fs := followers(nodes, ld)

	// An open transaction's records stay on the leader: no committer waits
	// on them, so neither appends nor heartbeats ship them.
	before := ld.Status().LastLSN
	tx := ld.DB().Begin()
	if _, err := tx.Exec(acct(0), "credit", "5"); err != nil {
		t.Fatal(err)
	}
	if ld.Status().LastLSN <= before {
		t.Fatal("Exec logged nothing")
	}
	time.Sleep(3 * ld.cfg.Heartbeat)
	for _, f := range fs {
		if got := f.Status().LastLSN; got > before {
			t.Fatalf("%s holds lsn %d of an open transaction (leader was at %d before it)", f.cfg.ID, got, before)
		}
	}
	// Nobody waits on them, so they are not replication lag.
	if lag := ld.Status().LagEntries; lag != 0 {
		t.Fatalf("leader lag = %d with only undemanded records pending", lag)
	}

	// Its commit demands them from both followers.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitHolds(t, fs, ld.Status().LastLSN)

	// Sequential commits cost each follower at most one fsync apiece.
	const commits = 100
	start := make([]int64, len(fs))
	for i, f := range fs {
		start[i] = fsyncs(f)
	}
	for i := 0; i < commits; i++ {
		if err := credit(t, ld, i%testAccounts, 1); err != nil {
			t.Fatalf("credit %d: %v", i, err)
		}
	}
	for i, f := range fs {
		if d := fsyncs(f) - start[i]; d > commits+2 {
			t.Errorf("%s fsync'd %d times for %d commits", f.cfg.ID, d, commits)
		}
	}
}

func TestAdvanceCommitQuorumMath(t *testing.T) {
	oneTerm := []fence{{Term: 1, First: 1}}
	twoTerms := []fence{{Term: 1, First: 1}, {Term: 2, First: 6}}
	cases := []struct {
		name   string
		local  uint64   // the leader's durable position
		match  []uint64 // the followers' match indexes
		fences []fence
		term   uint64
		commit uint64 // commit index before
		want   uint64 // commit index after
	}{
		{"1 node: its own position", 7, nil, oneTerm, 1, 0, 7},
		{"3 nodes: the median", 9, []uint64{5, 3}, oneTerm, 1, 0, 5},
		{"3 nodes: leader fsync behind", 2, []uint64{6, 8}, oneTerm, 1, 0, 6},
		{"3 nodes: one follower down", 9, []uint64{0, 4}, oneTerm, 1, 0, 4},
		{"3 nodes: both followers down", 9, []uint64{0, 0}, oneTerm, 1, 0, 0},
		{"5 nodes: third highest", 10, []uint64{9, 3, 7, 1}, oneTerm, 1, 0, 7},
		{"5 nodes: two down", 10, []uint64{9, 0, 0, 8}, oneTerm, 1, 0, 8},
		{"5 nodes: three down", 10, []uint64{9, 0, 0, 0}, oneTerm, 1, 0, 0},
		{"never backwards", 3, []uint64{2, 1}, oneTerm, 1, 5, 5},
		{"prior-term entry not committed directly", 7, []uint64{5, 4}, twoTerms, 2, 0, 0},
		{"prior-term entry commits under a current-term one", 7, []uint64{6, 2}, twoTerms, 2, 0, 6},
		{"5 nodes: prior-term quorum waits", 9, []uint64{5, 5, 9, 1}, twoTerms, 2, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := &Node{quorum: (len(tc.match)+1)/2 + 1, role: RoleLeader, term: tc.term,
				fences: tc.fences, lastLSN: tc.local, commitIndex: tc.commit,
				match: make(map[string]uint64, len(tc.match))}
			n.cond = sync.NewCond(&n.mu)
			for i, m := range tc.match {
				n.match[strconv.Itoa(i)] = m
			}
			n.advanceCommitLocked()
			if n.commitIndex != tc.want {
				t.Fatalf("commit index = %d, want %d", n.commitIndex, tc.want)
			}
			allocs := testing.AllocsPerRun(100, func() {
				n.commitIndex = tc.commit
				n.advanceCommitLocked()
			})
			if allocs != 0 {
				t.Fatalf("advanceCommitLocked allocates %.1f times", allocs)
			}
		})
	}
}

// BenchmarkQuorumCommit prices one sequential quorum commit through a
// 3-node loopback cluster, and how many follower fsyncs it costs.
func BenchmarkQuorumCommit(b *testing.B) {
	nodes := startCluster(b, 3)
	ld := waitLeader(b, nodes)
	waitFenced(b, ld)
	fs := followers(nodes, ld)
	var start int64
	for _, f := range fs {
		start += fsyncs(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := credit(b, ld, i%testAccounts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var end int64
	for _, f := range fs {
		end += fsyncs(f)
	}
	b.ReportMetric(float64(end-start)/float64(b.N), "follower-fsyncs/op")
}

// TestPromotionRefusesEntryCacheHole: recovery appends a loser's undo
// records above the follower log's last entry, and a checkpoint taken
// before the engine is handed back trims them from the engine's in-memory
// WAL. A leader seeded from that window would have a hole in its entry
// cache, so the node refuses to lead, falls back to follower, and leads on
// the next election, when recovery has nothing left to append.
func TestPromotionRefusesEntryCacheHole(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(testConfig(t, "solo", dir))
	if err != nil {
		t.Fatal(err)
	}
	ld := waitLeader(t, []*Node{n})
	if err := credit(t, ld, 0, 5); err != nil {
		t.Fatal(err)
	}
	loser := ld.DB().Begin()
	if _, err := loser.Exec(acct(0), "credit", "100"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var opens int
	var refused []string
	cfg := testConfig(t, "solo", dir)
	cfg.OpenEngine = func(dir string, fresh bool) (*core.DB, error) {
		db, err := bankEngine(dir, fresh)
		if err != nil {
			return nil, err
		}
		if _, err := db.Checkpoint(); err != nil {
			db.Close()
			return nil, err
		}
		mu.Lock()
		opens++
		mu.Unlock()
		return db, nil
	}
	cfg.Logf = func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "promotion failed") {
			mu.Lock()
			refused = append(refused, msg)
			mu.Unlock()
		}
		t.Logf(format, args...)
	}
	n2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	ld = waitLeader(t, []*Node{n2})
	mu.Lock()
	if opens < 2 || len(refused) == 0 || !strings.Contains(refused[0], "window starts at") {
		t.Fatalf("engine opened %d times, refusals %q; want a refused promotion before the lead", opens, refused)
	}
	mu.Unlock()
	if err := credit(t, ld, 0, 1); err != nil {
		t.Fatalf("credit after the refused promotion: %v", err)
	}
	if got := balance(t, ld, 0); got != 6 {
		t.Fatalf("balance = %d, want 6 (the loser's credit undone)", got)
	}
}
