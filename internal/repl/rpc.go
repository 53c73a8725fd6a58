package repl

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ackLocked builds a MsgReplAck in out, carrying this node's term and the
// given success/match/hint fields.
func (n *Node) ackLocked(out *wire.ReplExt, ok bool, match, hint uint64) wire.Msg {
	*out = wire.ReplExt{Term: n.term, From: n.cfg.ID, Match: match, Hint: hint}
	if ok {
		out.Flags |= wire.ReplFlagOK
	}
	return wire.Msg{Type: wire.MsgReplAck, Repl: out}
}

// handleRPC dispatches one replication request to its handler, which
// builds the reply's block in out: the caller owns out and reuses it once
// the reply is sent.
func (n *Node) handleRPC(m wire.Msg, out *wire.ReplExt) wire.Msg {
	switch m.Type {
	case wire.MsgReplVote:
		return n.handleVote(m, out)
	case wire.MsgReplAppend:
		return n.handleAppend(m, out)
	case wire.MsgReplSnapshot:
		return n.handleSnapshot(m, out)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ackLocked(out, false, 0, 0)
}

// handleVote implements RequestVote: one vote per term, persisted before
// it is granted, and only for candidates whose log is at least as
// up-to-date — the restriction that makes a quorum-acked entry present on
// every electable node.
func (n *Node) handleVote(m wire.Msg, out *wire.ReplExt) wire.Msg {
	re := m.Repl
	n.mu.Lock()
	defer n.mu.Unlock()
	if re == nil || n.closed || n.failed != nil {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term < n.term {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term > n.term {
		n.term = re.Term
		n.votedFor = ""
		n.persistLocked()
		n.stepToFollowerLocked()
	}
	lastTerm := n.lastTermLocked()
	upToDate := re.PrevTerm > lastTerm || (re.PrevTerm == lastTerm && re.PrevLSN >= n.lastLSN)
	if (n.votedFor == "" || n.votedFor == re.From) && upToDate {
		n.votedFor = re.From
		n.persistLocked()
		n.resetElectionTimerLocked()
		n.logf("repl: %s: vote for %s in term %d", n.cfg.ID, re.From, n.term)
		return n.ackLocked(out, true, 0, 0)
	}
	return n.ackLocked(out, false, 0, 0)
}

// handleAppend implements AppendEntries: term and log-consistency checks,
// conflict truncation of a divergent suffix, durable append (fsync before
// ack — Match is a durability promise, not a buffer position), and commit
// advance into the warm standby.
func (n *Node) handleAppend(m wire.Msg, out *wire.ReplExt) wire.Msg {
	re := m.Repl
	n.mu.Lock()
	defer n.mu.Unlock()
	if re == nil || n.closed || n.failed != nil {
		return n.ackLocked(out, false, 0, 0)
	}
	if err := fpReplAppend.Inject(); err != nil {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term < n.term {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term > n.term {
		n.term = re.Term
		n.votedFor = ""
		n.persistLocked()
	}
	if n.role != RoleFollower {
		// A candidate (or a stale leader that somehow shares the term)
		// concedes to the live leader.
		n.stepToFollowerLocked()
	}
	n.heardFromLocked(re)
	n.resetElectionTimerLocked()
	defer func() { n.heardAt = time.Now() }()
	if n.rebuilding || n.fw == nil {
		// Mid-demotion: the log is being re-read; ask the leader to retry
		// the same position later.
		return n.ackLocked(out, false, 0, re.PrevLSN+1)
	}

	// Log consistency.
	switch {
	case re.PrevLSN > n.lastLSN:
		return n.ackLocked(out, false, 0, n.lastLSN+1)
	case re.PrevLSN < n.snapLSN:
		// Everything at or below the snapshot barrier is committed and
		// immutable, so it agrees with the leader by construction; report
		// that position and let the leader realign. (Not lastLSN — the
		// suffix beyond the barrier is unverified against this leader.)
		return n.ackLocked(out, true, n.snapLSN, 0)
	case re.PrevLSN > 0 && n.termOfLocked(re.PrevLSN) != re.PrevTerm:
		hint := re.PrevLSN
		if hint <= n.snapLSN {
			hint = n.snapLSN + 1
		}
		return n.ackLocked(out, false, 0, hint)
	}

	// Decode and sanity-check the batch: each entry exactly one frame,
	// contiguous from PrevLSN+1. The records are views of the message.
	recs := n.recs[:0]
	defer n.releaseRecsLocked(&recs)
	for i, p := range m.Params {
		rec, size, err := storage.DecodeRecordFrameString(p, &n.refs)
		if err != nil || size != len(p) || rec.LSN != re.PrevLSN+1+uint64(i) {
			return n.ackLocked(out, false, 0, 0)
		}
		recs = append(recs, rec)
	}

	// Skip duplicates; truncate on the first term conflict (never past the
	// commit index — a committed entry conflicting is a protocol violation
	// we latch as node failure rather than corrupt the log).
	appendFrom := len(recs)
	for i, rec := range recs {
		if rec.LSN > n.lastLSN {
			appendFrom = i
			break
		}
		if n.termOfLocked(rec.LSN) != re.EntryTerm {
			if err := n.truncateSuffixLocked(rec.LSN - 1); err != nil {
				n.failLocked(err)
				return n.ackLocked(out, false, 0, 0)
			}
			appendFrom = i
			break
		}
	}
	if newRecs := recs[appendFrom:]; len(newRecs) > 0 {
		first := newRecs[0].LSN
		if n.termOfLocked(first) != re.EntryTerm {
			n.addFenceLocked(re.EntryTerm, first)
			n.persistLocked()
		}
		// Append each frame as it was received: the follower's segment
		// holds the leader's bytes, and its entry keeps the frame to ship
		// should this node lead.
		for i, rec := range newRecs {
			frame := m.Params[appendFrom+i]
			n.fw.AppendFrame(rec.LSN, frame)
			n.entries.Put(rec.LSN, entry{term: re.EntryTerm, rec: rec, frame: frame})
		}
		n.lastLSN = newRecs[len(newRecs)-1].LSN
		// Fsync before acking: Match is the durability promise quorum
		// commits are built on.
		if err := n.fw.WaitDurable(n.lastLSN); err != nil {
			n.logf("repl: %s: follower fsync failed: %v", n.cfg.ID, err)
			return n.ackLocked(out, false, 0, 0)
		}
	}

	// Match covers exactly the verified prefix: PrevLSN plus this batch.
	// Never lastLSN — an untruncated suffix beyond the batch may still
	// diverge from this leader and must not count toward its quorum.
	match := re.PrevLSN + uint64(len(recs))
	if c := min(re.Commit, match); c > n.commitIndex {
		n.commitIndex = c
		n.applyCommittedLocked()
		n.cond.Broadcast()
	}
	return n.ackLocked(out, true, match, 0)
}

// releaseRecsLocked hands handleAppend's decode buffer back, cleared: a
// record left in it would pin its append message after the message's
// entries were skipped or refused.
func (n *Node) releaseRecsLocked(recs *[]storage.Record) {
	clear(*recs)
	n.recs = (*recs)[:0]
}

// truncateSuffixLocked discards every log record above keep — the
// follower's conflict resolution when its unreplicated suffix diverges
// from the new leader's history.
func (n *Node) truncateSuffixLocked(keep uint64) error {
	if keep < n.commitIndex {
		return errors.New("repl: leader demands truncation below the commit index")
	}
	_ = n.fw.Close()
	n.fw = nil
	if err := storage.TruncateWALAbove(n.cfg.Dir, keep); err != nil {
		return err
	}
	for len(n.fences) > 0 && n.fences[len(n.fences)-1].First > keep {
		n.fences = n.fences[:len(n.fences)-1]
	}
	n.persistLocked()
	n.entries.CutAbove(keep)
	n.lastLSN = keep
	fw, err := storage.OpenFileWAL(n.cfg.Dir, n.fwOptions(), nil)
	if err != nil {
		return err
	}
	n.fw = fw
	n.logf("repl: %s: truncated divergent suffix above %d", n.cfg.ID, keep)
	return nil
}

// handleSnapshot implements InstallSnapshot: replace the whole local log
// with the leader's checkpoint file — the catch-up path for a follower
// whose log trails the leader's entry cache floor.
func (n *Node) handleSnapshot(m wire.Msg, out *wire.ReplExt) wire.Msg {
	re := m.Repl
	n.mu.Lock()
	defer n.mu.Unlock()
	if re == nil || n.closed || n.failed != nil || len(m.Params) != 1 {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term < n.term {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.Term > n.term {
		n.term = re.Term
		n.votedFor = ""
		n.persistLocked()
	}
	if n.role != RoleFollower {
		n.stepToFollowerLocked()
	}
	n.heardFromLocked(re)
	n.resetElectionTimerLocked()
	defer func() { n.heardAt = time.Now() }()
	if n.rebuilding || n.fw == nil {
		return n.ackLocked(out, false, 0, 0)
	}
	if re.PrevLSN <= n.lastLSN {
		// Already covered; report the committed prefix (the only part of
		// the local log known to agree with any leader).
		return n.ackLocked(out, true, n.commitIndex, 0)
	}

	// Validate before destroying anything: write to a temp name and prove
	// it loads as a checkpoint.
	raw := []byte(m.Params[0])
	tmp := filepath.Join(n.cfg.Dir, "repl-snapshot.tmp")
	if err := writeFileSync(tmp, raw); err != nil {
		n.failLocked(err)
		return n.ackLocked(out, false, 0, 0)
	}
	snap, err := checkpoint.Load(tmp)
	if err != nil || snap.LSN != re.PrevLSN {
		os.Remove(tmp)
		n.logf("repl: %s: rejected snapshot install: %v", n.cfg.ID, err)
		return n.ackLocked(out, false, 0, 0)
	}

	// Install: drop the old log wholesale, land the checkpoint under its
	// real name, and restart the log just past the barrier.
	_ = n.fw.Close()
	n.fw = nil
	segs, err := storage.WALSegments(n.cfg.Dir)
	if err != nil {
		n.failLocked(err)
		return n.ackLocked(out, false, 0, 0)
	}
	for _, seg := range segs {
		if err := os.Remove(filepath.Join(n.cfg.Dir, seg.Name)); err != nil {
			n.failLocked(err)
			return n.ackLocked(out, false, 0, 0)
		}
	}
	final := filepath.Join(n.cfg.Dir, checkpoint.FileName(snap.LSN))
	if err := os.Rename(tmp, final); err != nil {
		n.failLocked(err)
		return n.ackLocked(out, false, 0, 0)
	}
	if err := storage.SyncDir(n.cfg.Dir); err != nil {
		n.failLocked(err)
		return n.ackLocked(out, false, 0, 0)
	}
	n.snapLSN, n.snapTerm = snap.LSN, re.PrevTerm
	if re.PrevTerm == 0 {
		n.fences = nil
	} else {
		n.fences = []fence{{Term: re.PrevTerm, First: snap.LSN}}
	}
	n.persistLocked()
	n.entries = entryLog{}
	n.firstLSN = snap.LSN + 1
	n.lastLSN = snap.LSN
	if n.commitIndex < snap.LSN {
		n.commitIndex = snap.LSN
	}
	n.standby = storage.NewMemStoreFromSnapshot(snap.Pages, snap.NextPage, snap.PageSize)
	n.applied = snap.LSN
	fw, err := storage.OpenFileWAL(n.cfg.Dir, n.fwOptions(), nil)
	if err != nil {
		n.failLocked(err)
		return n.ackLocked(out, false, 0, 0)
	}
	n.fw = fw
	n.logf("repl: %s: installed snapshot at %d/t%d", n.cfg.ID, n.snapLSN, n.snapTerm)
	return n.ackLocked(out, true, n.lastLSN, 0)
}

// heardFromLocked records re's sender as the leader. The two names are
// clones wire.ReadMsgBuf made, never views of the message, so keeping
// them pins no append batch or snapshot.
func (n *Node) heardFromLocked(re *wire.ReplExt) {
	n.leaderID, n.leaderAddr = re.From, re.Addr
}
