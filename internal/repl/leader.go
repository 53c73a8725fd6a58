package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/partition"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/wire"
)

// maxAppendBatch caps the records carried by one AppendEntries message —
// catch-up proceeds in bounded frames instead of one giant message.
const maxAppendBatch = 128

// errDeposed is what a deposed (or majority-partitioned) leader's parked
// committers receive: it wraps storage.ErrWALPoisoned so the engine
// enters its established degraded mode locally, AND wire.ErrNotLeader so
// the server maps it to CodeNotLeader and the client redirects instead of
// declaring the commit in doubt.
var errDeposed = fmt.Errorf("repl: leadership lost while awaiting quorum: %w (%w)",
	storage.ErrWALPoisoned, wire.ErrNotLeader)

// becomeLeaderLocked switches to the leader role: fence the new term,
// start the per-peer replication loops (heartbeats flow immediately, so
// rivals stand down while the engine opens), and kick the promotion
// goroutine that opens/recovers the engine over the durable log.
func (n *Node) becomeLeaderLocked() {
	n.setRoleLocked(RoleLeader)
	n.leaderID = n.cfg.ID
	n.leaderAddr = n.cfg.Advertise
	if n.timer != nil {
		n.timer.Stop()
	}
	// Persist this term's fence before any entry can be appended under it:
	// a crash mid-promotion must not leave new-term entries claiming an
	// old term after restart.
	if n.termOfLocked(n.lastLSN+1) != n.term {
		n.addFenceLocked(n.term, n.lastLSN+1)
		n.persistLocked()
	}
	n.match = make(map[string]uint64, len(n.cfg.Peers))
	n.next = make(map[string]uint64, len(n.cfg.Peers))
	n.wake = make(map[string]chan struct{}, len(n.cfg.Peers))
	n.want = 0
	n.framesFrom = n.lastLSN + 1
	epoch := n.epoch
	for _, p := range n.cfg.Peers {
		n.match[p.ID] = 0
		n.next[p.ID] = n.lastLSN + 1
		ch := make(chan struct{}, 1)
		n.wake[p.ID] = ch
		n.wg.Add(1)
		go n.peerLoop(epoch, p, ch)
	}
	n.wg.Add(1)
	go n.promote(epoch, n.term)
}

// promote is the heavy half of taking leadership, run off the node mutex:
// close the follower's log handle, open (or recover) the engine over the
// same directory, interpose the quorum sink on its FileWAL, and append
// the no-op fence entry that lets prior-term entries commit (Raft's
// current-term commit rule). Promotion IS recovery — the replayed suffix
// is exactly the node's durable log, so "recovered ≥ acked" holds across
// the failover by construction.
func (n *Node) promote(epoch, term uint64) {
	defer n.wg.Done()
	start := time.Now()
	n.mu.Lock()
	if n.epoch != epoch || n.closed {
		n.mu.Unlock()
		return
	}
	fw := n.fw
	n.fw = nil
	n.standby = nil
	fresh := n.lastLSN == 0 && n.snapLSN == 0
	n.mu.Unlock()

	if fw != nil {
		_ = fw.Close() // release the directory for the engine's own FileWAL
	}
	db, err := n.cfg.OpenEngine(n.cfg.Dir, fresh)
	// The entry cache needs every record recovery appended (loser aborts,
	// CLRs), but a checkpoint since OpenEngine may have trimmed them from
	// the engine's WAL window: replication would stall at the hole.
	var recs []storage.Record
	if err == nil {
		recs = db.WAL().Records()
		n.mu.Lock()
		last := n.lastLSN
		n.mu.Unlock()
		if end := db.WAL().LastLSN(); end-uint64(len(recs)) > last {
			_ = db.Close()
			err = fmt.Errorf("recovered log holds LSNs %d..%d but its window starts at %d", last+1, end, end+1-uint64(len(recs)))
		}
	}
	if err != nil {
		n.logf("repl: %s: promotion failed: %v", n.cfg.ID, err)
		n.mu.Lock()
		if n.epoch == epoch && !n.closed {
			// Fall back to follower; if the disk state is unreadable the
			// reload latches the failure.
			n.stepToFollowerLocked()
			if !n.rebuilding && n.fw == nil {
				if lerr := n.loadDiskStateLocked(); lerr != nil {
					n.failLocked(lerr)
				}
			}
		}
		n.mu.Unlock()
		return
	}

	sink := &quorumSink{n: n, epoch: epoch}
	db.WAL().WrapSink(func(inner storage.DurableSink) storage.DurableSink {
		sink.inner = inner
		if f, ok := inner.(*storage.FileWAL); ok {
			sink.fw = f
		}
		return sink
	})

	n.mu.Lock()
	if n.epoch != epoch || n.closed {
		n.mu.Unlock()
		_ = db.Close() // leadership lost while opening; nothing references db yet
		return
	}
	for _, rec := range recs {
		if n.entries.at(rec.LSN) == nil {
			n.entries.Put(rec.LSN, entry{term: n.termOfLocked(rec.LSN), rec: rec})
		}
		if rec.LSN > n.lastLSN {
			n.lastLSN = rec.LSN
		}
		if n.firstLSN == 0 || rec.LSN < n.firstLSN {
			n.firstLSN = rec.LSN
		}
	}
	// Frames below here, if any, are views of the append messages this
	// node received as a follower, which its records pin anyway: only
	// the frames this leader encodes are a second copy to drop.
	n.framesFrom = max(n.framesFrom, n.lastLSN+1)
	n.db = db
	n.sink = sink
	n.cluster = partition.Single(db)
	n.mu.Unlock()

	// The no-op fence entry: replicating one current-term entry is what
	// allows commitIndex to advance over the recovered prior-term suffix.
	fence := db.WAL().LogAbort(storage.ParseOwner("repl:fence"))
	db.Spans().RecordEngine(span.Span{
		ID: fmt.Sprintf("repl/promote-t%d", term), Kind: span.KRepl,
		Name: "repl: promote to leader", Start: start, End: time.Now(),
		N: int64(term), Note: n.cfg.ID,
	})
	n.logf("repl: %s: leading term %d from lsn %d", n.cfg.ID, term, fence)
	// No committer waits on the fence, so wait on it here, as a commit
	// would: demand it from the followers, fsync it locally, await quorum.
	// Without the local fsync a leader with one follower down could never
	// commit it while idle. An error means leadership already ended.
	_ = db.WAL().WaitDurable(fence)
}

// quorumSink wraps the engine's FileWAL behind the DurableSink seam:
// Append additionally feeds the replicator's entry cache; WaitDurable
// returns only once the record is BOTH locally fsync'd and quorum-acked.
// On a single-node cluster the quorum is the local fsync, so the hook
// adds two mutex rounds per commit — the disarmed-overhead budget.
type quorumSink struct {
	n     *Node
	epoch uint64
	inner storage.DurableSink
	fw    *storage.FileWAL
	enc   storage.RecordEncoder // guarded by the engine WAL's mutex
}

// Append runs under the engine WAL's mutex: encode the record's frame
// once, and hand that one string to the local FileWAL, which writes it to
// the segment as it is, and to the replicated entry cache, which ships it
// to the followers. Nothing ships until a commit waits.
func (s *quorumSink) Append(rec storage.Record) {
	frame := s.enc.Frame(rec)
	switch {
	case s.fw != nil:
		s.fw.AppendFrame(rec.LSN, frame)
	case s.inner != nil:
		s.inner.Append(rec)
	}
	s.n.appendLocal(s.epoch, rec, frame)
}

// WaitDurable demands lsn from the followers first, so their append and
// fsync overlap the local one, then blocks for local durability, then for
// quorum.
func (s *quorumSink) WaitDurable(lsn uint64) error {
	s.n.demand(s.epoch, lsn)
	if s.inner != nil {
		if err := s.inner.WaitDurable(lsn); err != nil {
			return err
		}
	}
	return s.n.waitQuorum(s.epoch, lsn)
}

func (s *quorumSink) Close() error {
	if s.inner != nil {
		return s.inner.Close()
	}
	return nil
}

// BatchInfo forwards the group-commit span's flush attribution.
func (s *quorumSink) BatchInfo(lsn uint64) (storage.BatchInfo, bool) {
	if bi, ok := s.inner.(interface {
		BatchInfo(lsn uint64) (storage.BatchInfo, bool)
	}); ok {
		return bi.BatchInfo(lsn)
	}
	return storage.BatchInfo{}, false
}

// Poisoned surfaces deposal as the sticky degraded state the engine
// already understands, alongside any real FileWAL poison.
func (s *quorumSink) Poisoned() error {
	s.n.mu.Lock()
	stale := s.n.epoch != s.epoch
	s.n.mu.Unlock()
	if stale {
		return errDeposed
	}
	if ps, ok := s.inner.(interface{ Poisoned() error }); ok {
		return ps.Poisoned()
	}
	return nil
}

// appendLocal caches a leader-appended record and its frame in the
// replicated log. Called under the engine WAL's mutex (lock order: WAL.mu
// then n.mu — nothing in the node calls engine WAL methods while holding
// n.mu).
func (n *Node) appendLocal(epoch uint64, rec storage.Record, frame string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch != epoch || n.closed {
		return
	}
	n.entries.Put(rec.LSN, entry{term: n.term, rec: rec, frame: frame})
	if n.firstLSN == 0 {
		n.firstLSN = rec.LSN
	}
	if rec.LSN > n.lastLSN {
		n.lastLSN = rec.LSN
	}
}

// demand records that a committer awaits quorum for lsn and wakes the
// peer loops to ship up to it.
func (n *Node) demand(epoch, lsn uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch != epoch || lsn <= n.want {
		return
	}
	n.want = lsn
	n.wakePeersLocked()
}

func (n *Node) wakePeersLocked() {
	for _, ch := range n.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// waitQuorum parks a committer until the commit index covers lsn. If the
// quorum stays unreachable past AckTimeout the node abdicates — a leader
// partitioned from the majority must stop acking and let the majority
// elect; its parked committers fail with the typed deposed error.
func (n *Node) waitQuorum(epoch, lsn uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advanceCommitLocked()
	if n.epoch == epoch && n.commitIndex >= lsn {
		return nil
	}
	var timedOut bool
	t := time.AfterFunc(n.cfg.AckTimeout, func() {
		n.mu.Lock()
		timedOut = true
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer t.Stop()
	for {
		if n.closed {
			return storage.ErrWALClosed
		}
		if n.epoch != epoch {
			return errDeposed
		}
		if n.commitIndex >= lsn {
			return nil
		}
		if timedOut {
			n.logf("repl: %s: no quorum for lsn %d within %v; abdicating term %d",
				n.cfg.ID, lsn, n.cfg.AckTimeout, n.term)
			n.stepToFollowerLocked()
			return errDeposed
		}
		n.cond.Wait()
	}
}

// advanceCommitLocked recomputes the commit index: the quorum'th-highest
// durable position across the leader (its FileWAL's durable LSN) and each
// peer's match index — advanced only onto current-term entries (a
// prior-term entry commits implicitly once a current-term one does;
// committing it directly is the Raft figure-8 unsoundness).
func (n *Node) advanceCommitLocked() {
	if n.role != RoleLeader {
		return
	}
	local := n.lastLSN
	if n.sink != nil && n.sink.fw != nil {
		local = n.sink.fw.DurableLSN()
	}
	var buf [8]uint64
	ms := append(buf[:0], local)
	for _, m := range n.match {
		ms = append(ms, m)
	}
	slices.Sort(ms)
	q := ms[len(ms)-n.quorum]
	if q > n.commitIndex && n.termOfLocked(q) == n.term {
		n.commitIndex = q
		n.cond.Broadcast()
		n.wakePeersLocked() // piggyback the new commit index promptly
	}
	n.dropFramesLocked()
}

// dropFramesLocked drops the cached frames of the records every peer
// holds (its match passed them) and of those more than maxAppendBatch
// below the commit index: a peer that far behind is catching up, and
// re-encodes what it ships (buildAppendLocked). So the leader keeps a
// second copy of a record's bytes, beside the record itself, only while
// a peer within one batch of the commit index may still need it.
func (n *Node) dropFramesLocked() {
	upTo := n.lastLSN // no peers: nobody needs a frame
	for _, m := range n.match {
		upTo = min(upTo, m)
	}
	if n.commitIndex > maxAppendBatch {
		upTo = max(upTo, n.commitIndex-maxAppendBatch-1)
	}
	for ; n.framesFrom <= upTo; n.framesFrom++ {
		if e := n.entries.at(n.framesFrom); e != nil {
			e.frame = ""
		}
	}
}

// peerLoop replicates to one follower for one leadership incarnation:
// batches from nextIndex, heartbeats when idle, snapshot install when the
// follower trails the entry cache floor. After a failed call it backs off
// to the heartbeat: commit wake-ups are ignored until a call succeeds, so
// an unreachable follower costs one batch per heartbeat, not one per
// commit.
func (n *Node) peerLoop(epoch uint64, p Peer, wakeCh chan struct{}) {
	defer n.wg.Done()
	hb := time.NewTimer(0) // send an immediate heartbeat on taking office
	defer hb.Stop()
	// Every append message is built into these, and every reply decoded
	// into ack: tr.call is synchronous, so the last message and its reply
	// are done with when the next is built.
	re, ack := new(wire.ReplExt), new(wire.ReplExt)
	params := make([]string, 0, maxAppendBatch)
	failed := false
	for {
		if failed {
			<-hb.C
		} else {
			select {
			case <-wakeCh:
			case <-hb.C:
			}
		}
		hb.Reset(n.cfg.Heartbeat)
		for {
			n.mu.Lock()
			if n.epoch != epoch || n.closed {
				n.mu.Unlock()
				return
			}
			req, needSnap := n.buildAppendLocked(p, re, params)
			prevNext := n.next[p.ID]
			commit := n.commitIndex
			n.mu.Unlock()
			if needSnap {
				req2, ok := n.buildSnapshot(commit)
				if !ok {
					break // no installable snapshot yet; retry next tick
				}
				req = req2
			}
			resp, err := n.tr.call(p, req, ack)
			clear(req.Params) // the shipped frames may be dropped from the cache
			if failed = err != nil || resp.Repl == nil; failed {
				break
			}
			n.mu.Lock()
			if n.epoch != epoch || n.closed {
				n.mu.Unlock()
				return
			}
			deposed, more := n.ackedLocked(p, ack, prevNext)
			n.mu.Unlock()
			if deposed {
				return
			}
			if !more {
				break
			}
		}
	}
}

// ackedLocked applies p's reply to an append built from nextIndex
// prevNext: a higher term deposes this leader; a success advances p's
// match and the commit index; a rejection backs p's nextIndex up along
// the follower's hint. more reports that the next batch is due at once:
// a success with more demanded, or a rejection that made progress (one
// that did not, because the follower is rebuilding or hinted the position
// just tried, waits for the next tick).
func (n *Node) ackedLocked(p Peer, ack *wire.ReplExt, prevNext uint64) (deposed, more bool) {
	if ack.Term > n.term {
		n.bumpTermLocked(ack.Term)
		return true, false
	}
	if ack.OK() {
		if ack.Match > n.match[p.ID] {
			n.match[p.ID] = ack.Match
		}
		n.next[p.ID] = n.match[p.ID] + 1
		n.advanceCommitLocked()
		return false, min(n.want, n.lastLSN) >= n.next[p.ID]
	}
	hint := ack.Hint
	if hint == 0 || hint > prevNext {
		hint = prevNext
		if hint > 1 {
			hint--
		}
	}
	n.next[p.ID] = hint
	return false, hint < prevNext
}

// buildAppendLocked assembles the next AppendEntries for p into re and
// params' array: a batch of entries from nextIndex up to the highest LSN
// a committer waits for (never spanning a term boundary), or a pure
// heartbeat when the follower holds everything demanded. An entry ships
// as its cached frame, and is encoded only when that was dropped.
// needSnap reports that the follower trails the entry cache floor and
// must be seeded by snapshot.
func (n *Node) buildAppendLocked(p Peer, re *wire.ReplExt, params []string) (wire.Msg, bool) {
	next := n.next[p.ID]
	if next < n.firstLSN || next <= n.snapLSN {
		return wire.Msg{}, true
	}
	*re = wire.ReplExt{
		Term:     n.term,
		From:     n.cfg.ID,
		Commit:   n.commitIndex,
		Addr:     n.cfg.Advertise,
		PrevLSN:  next - 1,
		PrevTerm: n.termOfLocked(next - 1),
	}
	m := wire.Msg{Type: wire.MsgReplAppend, Repl: re}
	last := min(n.want, n.lastLSN)
	if next > last {
		return m, false // heartbeat
	}
	re.EntryTerm = n.termOfLocked(next)
	m.Params = params[:0]
	for lsn := next; lsn <= last && len(m.Params) < maxAppendBatch; lsn++ {
		e := n.entries.at(lsn)
		if e == nil || e.term != re.EntryTerm {
			break
		}
		frame := e.frame
		if frame == "" {
			frame = n.enc.Frame(e.rec)
			n.reencoded++
		}
		m.Params = append(m.Params, frame)
	}
	return m, false
}

// buildSnapshot reads the newest checkpoint at or below the commit index
// and packages it as an InstallSnapshot. Only committed state ships — a
// checkpoint beyond the commit index could cover entries a future leader
// is still entitled to truncate.
func (n *Node) buildSnapshot(commit uint64) (wire.Msg, bool) {
	infos, err := checkpoint.Scan(n.cfg.Dir)
	if err != nil {
		return wire.Msg{}, false
	}
	for i := len(infos) - 1; i >= 0; i-- {
		if infos[i].LSN > commit {
			continue
		}
		path := filepath.Join(n.cfg.Dir, infos[i].Name)
		if _, lerr := checkpoint.Load(path); lerr != nil {
			continue // torn file; try an older one
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			continue
		}
		n.mu.Lock()
		re := &wire.ReplExt{
			Term:     n.term,
			From:     n.cfg.ID,
			PrevLSN:  infos[i].LSN,
			PrevTerm: n.termOfLocked(infos[i].LSN),
			Commit:   n.commitIndex,
			Addr:     n.cfg.Advertise,
		}
		n.mu.Unlock()
		return wire.Msg{Type: wire.MsgReplSnapshot, Repl: re, Params: []string{string(raw)}}, true
	}
	return wire.Msg{}, false
}

// errIsolated marks traffic suppressed by SetIsolated (in-process
// partition simulation).
var errIsolated = errors.New("repl: node isolated (simulated partition)")
