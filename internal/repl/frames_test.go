package repl

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/storage"
	"repro/internal/wire"
)

// rawFrames reads the segment files of dir as they lie on disk and returns
// every record frame by LSN, byte for byte, nothing decoded or re-encoded.
// A torn tail of the last segment ends the read.
func rawFrames(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	segs, err := storage.WALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string)
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			payload, n, err := frame.Parse(data, 8, 1<<24)
			if err != nil {
				break
			}
			out[binary.LittleEndian.Uint64(payload)] = string(data[:n])
			data = data[n:]
		}
	}
	return out
}

// sameBytes closes every node and checks that each pair of logs holds the
// same bytes at every LSN both hold, and that each log shares at least
// want LSNs with the first.
func sameBytes(t *testing.T, nodes []*Node, want int) {
	t.Helper()
	var logs []map[uint64]string
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, rawFrames(t, n.cfg.Dir))
	}
	for i := 1; i < len(logs); i++ {
		shared := 0
		for lsn, f := range logs[0] {
			g, ok := logs[i][lsn]
			if !ok {
				continue
			}
			shared++
			if g != f {
				t.Fatalf("lsn %d: %s holds %x, %s holds %x", lsn, nodes[0].cfg.ID, f, nodes[i].cfg.ID, g)
			}
		}
		if shared < want {
			t.Fatalf("%s and %s share %d LSNs, want at least %d", nodes[0].cfg.ID, nodes[i].cfg.ID, shared, want)
		}
	}
}

// orderedCluster starts three nodes whose election timeouts fix the
// succession: n0 leads, n1 takes over if n0 dies, and n2 never stands, so
// cutting n2 off and healing it causes no election.
func orderedCluster(t *testing.T) (n0, n1, n2 *Node) {
	nodes := startClusterWith(t, 3, func(i int, cfg *Config) {
		cfg.ElectionTimeout = []time.Duration{60 * time.Millisecond, 300 * time.Millisecond, time.Hour}[i]
	})
	if ld := waitLeader(t, nodes); ld != nodes[0] {
		t.Fatalf("%s leads, want n0", ld.cfg.ID)
	}
	return nodes[0], nodes[1], nodes[2]
}

// reencodedBy reads n's count of entries shipped without a cached frame.
func reencodedBy(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reencoded
}

// TestFollowerSegmentsAreLeaderBytes: over the LSNs they share, each
// follower's segment files hold exactly the leader's bytes.
func TestFollowerSegmentsAreLeaderBytes(t *testing.T) {
	nodes := startCluster(t, 3)
	ld := waitLeader(t, nodes)
	for i := 0; i < 40; i++ {
		if err := credit(t, ld, i%testAccounts, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	waitHolds(t, followers(nodes, ld), ld.Status().LastLSN)
	sameBytes(t, append([]*Node{ld}, followers(nodes, ld)...), 100)
}

// TestLeaderDropsFramesByRule: a leader keeps the frame it encoded for a
// record only while some peer's match is below it and it is within
// maxAppendBatch of the commit index. Frames below framesFrom, views of
// the messages the node received as a follower, are left alone.
func TestLeaderDropsFramesByRule(t *testing.T) {
	cases := []struct {
		name       string
		match      []uint64
		commit     uint64
		last       uint64
		framesFrom uint64
		keepFrom   uint64 // the lowest LSN at or above framesFrom still framed
	}{
		{"the slowest peer's match", []uint64{10, 5}, 10, 20, 1, 6},
		{"every peer holds everything", []uint64{20, 20}, 20, 20, 1, 21},
		{"a peer far behind", []uint64{290, 100}, 300, 310, 1, 172},
		{"a peer down", []uint64{300, 0}, 300, 310, 1, 172},
		{"no peers", nil, 20, 20, 1, 21},
		{"follower-era views stay", []uint64{40, 40}, 40, 60, 30, 41},
		{"nothing committed", []uint64{0, 0}, 0, 9, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := &Node{role: RoleLeader, commitIndex: tc.commit, lastLSN: tc.last,
				framesFrom: tc.framesFrom, match: make(map[string]uint64)}
			for i, m := range tc.match {
				n.match[fmt.Sprint("p", i)] = m
			}
			for lsn := uint64(1); lsn <= tc.last; lsn++ {
				n.entries.Put(lsn, entry{rec: storage.Record{LSN: lsn}, frame: fmt.Sprint("f", lsn)})
			}
			n.dropFramesLocked()
			for lsn := uint64(1); lsn <= tc.last; lsn++ {
				framed := n.entries.at(lsn).frame != ""
				if want := lsn < tc.framesFrom || lsn >= tc.keepFrom; framed != want {
					t.Fatalf("lsn %d framed = %v, want %v", lsn, framed, want)
				}
			}
			if n.framesFrom != max(tc.keepFrom, tc.framesFrom) {
				t.Fatalf("framesFrom = %d, want %d", n.framesFrom, tc.keepFrom)
			}
		})
	}
}

// waitAcked blocks until ld's match for each of fs reaches lsn.
func waitAcked(t *testing.T, ld *Node, fs []*Node, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, f := range fs {
		for {
			ld.mu.Lock()
			m := ld.match[f.cfg.ID]
			ld.mu.Unlock()
			if m >= lsn {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the leader's match for %s is %d, want %d", f.cfg.ID, m, lsn)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// checkFrameRule checks ld's frame cache against the rule, in the running
// cluster: from framesFrom on, an entry keeps its frame exactly when a
// peer's match is below it and it is no more than maxAppendBatch below the
// commit index. It returns how many entries hold a frame.
func checkFrameRule(t *testing.T, ld *Node) int {
	t.Helper()
	ld.mu.Lock()
	defer ld.mu.Unlock()
	minMatch := ld.lastLSN
	for _, m := range ld.match {
		minMatch = min(minMatch, m)
	}
	framed := 0
	for lsn := ld.framesFrom; lsn <= ld.lastLSN; lsn++ {
		e := ld.entries.at(lsn)
		if e == nil {
			t.Fatalf("no entry at %d", lsn)
		}
		want := lsn > minMatch && lsn+maxAppendBatch >= ld.commitIndex
		if got := e.frame != ""; got != want {
			t.Fatalf("lsn %d framed = %v, want %v (min match %d, commit %d)", lsn, got, want, minMatch, ld.commitIndex)
		}
		if e.frame != "" {
			framed++
			if e.frame != string(storage.EncodeRecordFrame(nil, e.rec)) {
				t.Fatalf("lsn %d: the cached frame is not the record's", lsn)
			}
		}
	}
	return framed
}

// TestIsolatedFollowerCatchesUpReencoded: a follower cut off until the
// leader has dropped the frames it lacks catches up through the re-encode
// path, and its log is still the leader's bytes.
func TestIsolatedFollowerCatchesUpReencoded(t *testing.T) {
	ld, other, cut := orderedCluster(t)
	waitFenced(t, ld)
	fs := []*Node{other, cut}
	if err := credit(t, ld, 0, 1); err != nil {
		t.Fatal(err)
	}
	waitAcked(t, ld, fs, ld.Status().LastLSN)
	if n := checkFrameRule(t, ld); n != 0 {
		t.Fatalf("%d frames kept with every record acked by every peer", n)
	}

	isolated, start := reencodedBy(ld), time.Now()
	cut.SetIsolated(true)
	behind := cut.Status().LastLSN
	for ld.Status().CommitIndex < behind+3*maxAppendBatch {
		if err := credit(t, ld, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	waitAcked(t, ld, fs[:1], ld.Status().LastLSN)
	if n := checkFrameRule(t, ld); n == 0 || n > maxAppendBatch+1 {
		t.Fatalf("%d frames kept for a peer far behind, want 1..%d", n, maxAppendBatch+1)
	}
	ld.mu.Lock()
	dropped := ld.entries.at(behind+1).frame == ""
	ld.mu.Unlock()
	if !dropped {
		t.Fatalf("the frame of lsn %d, more than %d below the commit index, is still cached", behind+1, maxAppendBatch)
	}

	// While cut off, the follower took nothing, so every entry of its
	// catch-up ships after the heal, the dropped ones re-encoded; the
	// first batch it takes may have been built just before. (Sends that
	// fail re-encode too, so this is a floor.)
	var want uint64
	ld.mu.Lock()
	for lsn := behind + 1; lsn <= ld.lastLSN; lsn++ {
		if ld.entries.at(lsn).frame == "" {
			want++
		}
	}
	ld.mu.Unlock()
	// While the follower is unreachable, its peer loop backs off to the
	// heartbeat: each failed call built (and re-encoded) one batch.
	before := reencodedBy(ld)
	isolation := time.Since(start)
	if got, limit := before-isolated, (uint64(isolation/ld.cfg.Heartbeat)+2)*maxAppendBatch; got > limit {
		t.Fatalf("the leader re-encoded %d entries for a follower cut off for %v, want at most %d (one batch per %v heartbeat, and two)",
			got, isolation, limit, ld.cfg.Heartbeat)
	}
	t.Logf("cut off for %v: %d entries re-encoded", isolation, before-isolated)
	cut.SetIsolated(false)
	if err := credit(t, ld, 2, 1); err != nil {
		t.Fatal(err)
	}
	waitHolds(t, []*Node{cut}, ld.Status().LastLSN)
	if got := reencodedBy(ld) - before; got+maxAppendBatch < want || want < maxAppendBatch {
		t.Fatalf("the leader re-encoded %d entries for the follower, want %d of the %d it lacked (at least %d)",
			got, want, ld.Status().LastLSN-behind, maxAppendBatch)
	}
	if ld.Role() != RoleLeader || ld.Term() != 1 {
		t.Fatalf("leadership changed: %+v", ld.Status())
	}
	sameBytes(t, []*Node{ld, other, cut}, 3*maxAppendBatch)
}

// TestPromotedFollowerShipsViewFrames: a follower promoted after the
// leader dies ships the records the third node lacks as the frames it
// received, without encoding them, and the third node's log is still the
// dead leader's bytes.
func TestPromotedFollowerShipsViewFrames(t *testing.T) {
	ld, next, lagging := orderedCluster(t)
	waitFenced(t, ld)
	fs := []*Node{next, lagging}
	if err := credit(t, ld, 0, 1); err != nil {
		t.Fatal(err)
	}
	waitHolds(t, fs, ld.Status().LastLSN)

	lagging.SetIsolated(true)
	from := lagging.Status().LastLSN + 1
	for i := 0; i < 20; i++ {
		if err := credit(t, ld, i%testAccounts, 1); err != nil {
			t.Fatal(err)
		}
	}
	to := ld.Status().LastLSN
	waitHolds(t, []*Node{next}, to)
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	next.mu.Lock()
	for lsn := from; lsn <= to; lsn++ {
		if e := next.entries.at(lsn); e == nil || e.frame != string(storage.EncodeRecordFrame(nil, e.rec)) {
			next.mu.Unlock()
			t.Fatalf("follower entry %d holds no frame, or not its record's", lsn)
		}
	}
	next.mu.Unlock()

	lagging.SetIsolated(false)
	if got := waitLeader(t, []*Node{next, lagging}); got != next {
		t.Fatalf("%s leads; only %s holds every committed record", got.cfg.ID, next.cfg.ID)
	}
	before := reencodedBy(next)
	if err := credit(t, next, 3, 1); err != nil {
		t.Fatal(err)
	}
	waitHolds(t, []*Node{lagging}, next.Status().LastLSN)
	if n := reencodedBy(next) - before; n != 0 {
		t.Fatalf("the promoted follower re-encoded %d entries; it holds every frame it received", n)
	}
	sameBytes(t, []*Node{next, lagging}, int(to-from+1))
	// The dead leader's log, closed above, holds the same bytes too.
	dead, kept := rawFrames(t, ld.cfg.Dir), rawFrames(t, lagging.cfg.Dir)
	for lsn := from; lsn <= to; lsn++ {
		if dead[lsn] != kept[lsn] {
			t.Fatalf("lsn %d: the dead leader and the caught-up follower differ", lsn)
		}
	}
}

// TestAppendRefusesBadFrames: handleAppend acks false for an entry that is
// not exactly one well-formed frame of the next LSN, and keeps nothing of
// the refused message.
func TestAppendRefusesBadFrames(t *testing.T) {
	good := string(storage.EncodeRecordFrame(nil, upd(1, 1, "hello")))
	// refit rewrites a frame's checksum over its (edited) payload.
	refit := func(f string) string {
		dst, start := frame.Begin(nil)
		return string(frame.End(append(dst, f[frame.HeaderSize:]...), start))
	}
	withLength := func(f string, n uint32) string {
		b := []byte(f)
		binary.LittleEndian.PutUint32(b, n)
		return string(b)
	}
	flip := func(f string, at int) string {
		b := []byte(f)
		b[at] ^= 0x10
		return string(b)
	}
	cases := []struct {
		name   string
		params []string
	}{
		{"bad checksum", []string{flip(good, 5)}},
		{"flipped payload", []string{flip(good, len(good)-1)}},
		{"length past the entry", []string{withLength(good, uint32(len(good)))}},
		{"length short of the entry", []string{withLength(good, uint32(len(good)-frame.HeaderSize-1))}},
		{"length below a record", []string{withLength(good, 3)}},
		{"header only", []string{good[:frame.HeaderSize]}},
		{"empty", []string{""}},
		{"trailing bytes after the frame", []string{good + "x"}},
		{"two frames in one entry", []string{good + good}},
		{"trailing bytes in the payload", []string{refit(good + "x")}},
		{"wrong lsn", frameParams(upd(2, 1, "hello"))},
		{"gap after a good entry", append([]string{good}, frameParams(upd(3, 1, "x"))...)},
		{"good entry, then a bad one", []string{good, flip(string(storage.EncodeRecordFrame(nil, upd(2, 1, "y"))), 6)}},
	}
	n := passiveFollower(t, t.TempDir())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
				Term: 1, From: "ldr", EntryTerm: 1,
			}, Params: tc.params})
			if resp.Repl.OK() {
				t.Fatalf("ack = %+v, want a refusal", resp.Repl)
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.lastLSN != 0 || n.entries.at(1) != nil {
				t.Fatalf("a refused append left lsn %d", n.lastLSN)
			}
			for _, r := range n.recs[:cap(n.recs)] {
				if r.LSN != 0 {
					t.Fatalf("the decode buffer still holds lsn %d", r.LSN)
				}
			}
		})
	}
	resp := n.serve(wire.Msg{Type: wire.MsgReplAppend, Repl: &wire.ReplExt{
		Term: 1, From: "ldr", EntryTerm: 1,
	}, Params: []string{good}})
	if !resp.Repl.OK() || resp.Repl.Match != 1 {
		t.Fatalf("good append after the refusals: %+v", resp.Repl)
	}
}
