// Package repl replicates the engine's write-ahead log across a small
// cluster: a minimal Raft-style consensus log whose entries are the
// engine's own WAL records. The leader's FileWAL keeps its role as the
// local durable sink; a quorumSink wraps it so WaitDurable — the single
// seam every commit already funnels through — returns only after a
// majority of replicas has appended AND fsync'd the record. That turns the
// engine's one-node "recovered ≥ acked" invariant into a cluster-wide one:
// any commit acked to a client survives the death of any minority of
// nodes, including the leader.
//
// The adaptation to the engine's log is deliberately thin:
//
//   - Log index = WAL LSN. The engine already assigns dense, contiguous
//     LSNs under the WAL mutex, so the replicated log needs no second
//     numbering scheme, and replicas' segment files are byte-identical:
//     a record crosses the cluster as one frame (storage.EncodeRecordFrame
//     bytes), encoded once on the leader for its own segment and its
//     followers' append messages, and appended by each follower as it
//     was received (FileWAL.AppendFrame), never re-encoded. An entry keeps
//     its frame: a follower's is a view of the append message its record
//     was decoded from, so a follower promoted to leader ships what it
//     received; a leader drops the frames it encoded once every peer holds
//     them or they fall maxAppendBatch below the commit index, and encodes
//     an entry again only for a peer that far behind.
//   - Per-entry terms are not stored in the records (the WAL codec stays
//     untouched); instead a node persists term *fences* — (term, firstLSN)
//     pairs in repl-state.json — and an entry's term is the newest fence at
//     or below its LSN. Append batches never span a term boundary, so one
//     EntryTerm per message suffices.
//   - A follower owns a plain FileWAL on its directory plus a warm standby
//     MemStore: committed update records are applied through the recovery
//     redo path (recovery.RedoPage), so follower reads serve the same
//     images a post-crash recovery would reconstruct.
//   - Promotion IS recovery: a follower that wins an election opens the
//     engine over its durable log via the configured OpenEngine hook
//     (recovery.RecoverDir underneath), replays its suffix, appends a
//     no-op fence entry to commit prior-term entries (Raft's figure-8
//     rule), and starts replicating to the others.
//
// Election safety is standard Raft: randomized timeouts, votes persisted
// before they are granted, and a candidate wins only if its (lastTerm,
// lastLSN) is at least as up-to-date as the voter's — which is exactly
// what makes "quorum-acked implies present on any electable node" a
// machine-checkable invariant (cmd/chaos' leader-kill round checks it).
package repl

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/lsnlog"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Role is a node's position in the cluster.
type Role int32

const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}

// Peer identifies one other cluster member.
type Peer struct {
	ID   string
	Addr string // replication transport address (not the client address)
}

// Config configures one replica.
type Config struct {
	// ID is this node's stable identity (e.g. "n0").
	ID string
	// Addr is the replication transport listen address. Empty binds an
	// ephemeral loopback port (tests); the bound address is Node.Addr().
	Addr string
	// Advertise is this node's CLIENT address — what redirect hints and
	// healthz report as the place to send writes when this node leads.
	Advertise string
	// Peers lists the other members (excluding this node). Empty means a
	// single-node cluster: quorum 1, self-electing, no replication traffic.
	Peers []Peer
	// Dir is the WAL segment directory this replica persists to. The
	// engine opens the same directory when this node is promoted.
	Dir string
	// OpenEngine opens (fresh=true) or recovers (fresh=false) the engine
	// over Dir at promotion. Nil uses a plain durable engine with no
	// registered types — real deployments (cmd/oodbd) install their schema
	// here.
	OpenEngine func(dir string, fresh bool) (*core.DB, error)

	// ElectionTimeout is the base election timeout; each reset draws
	// uniformly from [timeout, 2*timeout). Default 150ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's idle append interval. Default 40ms.
	Heartbeat time.Duration
	// AckTimeout bounds how long a leader's commit waits for quorum before
	// the node concludes it is partitioned from the majority and abdicates.
	// Default 2s.
	AckTimeout time.Duration
	// Durability is the follower FileWAL's mode (MemOnly is promoted to
	// GroupCommit, mirroring OpenFileWAL).
	Durability storage.Durability
	// SegmentSize caps follower segment files (0 = FileWAL default).
	SegmentSize int64
	// PageSize sizes the standby store when no checkpoint seeds it
	// (default storage.DefaultPageSize).
	PageSize int

	// Obs, when set, publishes repl.role / repl.term / repl.commit_index /
	// repl.lag_entries and records an EvReplRole flight-recorder event on
	// every role transition.
	Obs *obs.Registry
	// OnRole, when set, is called (under the node mutex — it must not call
	// back into the Node) on every role transition. cmd/chaos children use
	// it to report transitions on stdout.
	OnRole func(role Role, term uint64)
	// Logf receives diagnostic output (nil = silent).
	Logf func(format string, args ...any)
	// Seed fixes the election-timeout jitter source (0 = random seed).
	Seed int64
}

// fence marks "entries from First onward carry Term (until a later
// fence)". The fence list is persisted, so per-entry terms survive
// restarts without widening the WAL record codec.
type fence struct {
	Term  uint64 `json:"term"`
	First uint64 `json:"first"`
}

// hardState is the Raft-persistent part of a node, stored as
// repl-state.json next to the segments (temp+rename+fsync, like
// checkpoints).
type hardState struct {
	Term     uint64  `json:"term"`
	VotedFor string  `json:"voted_for"`
	SnapLSN  uint64  `json:"snap_lsn"`
	SnapTerm uint64  `json:"snap_term"`
	Fences   []fence `json:"fences"`
}

const hardStateFile = "repl-state.json"

// entry is one in-memory log entry: its term, its record, and the record's
// frame, the bytes it ships as. A follower's frame is the one it received
// and appended, a view of that append message, as its record's fields
// are. A leader's is the one its segment write was handed, a second copy
// of the record that dropFramesLocked drops once no peer is likely to
// need it; an entry without a frame (dropped, or recovered from disk) is
// encoded when it ships.
type entry struct {
	term  uint64
	rec   storage.Record
	frame string
}

// entryLog is a node's in-memory log: its entries by LSN, one object per
// lsnlog.Chunk entries where a map would allocate one per entry.
type entryLog struct{ lsnlog.Log[entry] }

// at returns the entry at lsn, or nil. The pointer is valid until the
// log is cut or reset.
func (l *entryLog) at(lsn uint64) *entry {
	if e := l.At(lsn); e != nil && e.rec.LSN == lsn {
		return e
	}
	return nil
}

// Node is one replica: follower, candidate, or leader.
type Node struct {
	cfg    Config
	quorum int

	mu   sync.Mutex
	cond *sync.Cond

	role     Role
	term     uint64
	votedFor string
	fences   []fence
	leaderID string
	// leaderAddr is the last known leader's CLIENT address (what
	// NotLeader redirects carry).
	leaderAddr string
	// heardAt is when the last append or snapshot from a valid leader
	// finished. An election timer that fires while one runs waits on mu;
	// it must not depose the leader just heard from.
	heardAt time.Time

	// Log state. entries holds every record from firstLSN..lastLSN;
	// records at or below snapLSN live only in the snapshot.
	entries     entryLog
	firstLSN    uint64
	lastLSN     uint64
	snapLSN     uint64
	snapTerm    uint64
	commitIndex uint64
	// recs is handleAppend's decode buffer, cleared after each message,
	// and refs the slab its records' Refs are carved from, in LSN order
	// (the lsnlog retention rule).
	recs []storage.Record
	refs lsnlog.Slab[uint64]

	// Follower state: the owned durable log, the warm standby image, and
	// the apply cursor into it.
	fw      *storage.FileWAL
	standby *storage.MemStore
	applied uint64
	// rebuilding is set while a deposed leader is closing its engine and
	// re-reading the directory; append/snapshot RPCs are refused (retry)
	// and elections are suppressed until the disk state is back.
	rebuilding bool

	// Leader state. want is the highest LSN a committer awaits quorum for:
	// entries ship when a commit waits on them, not when they are appended
	// (the FileWAL flusher's rule).
	db      *core.DB
	cluster *partition.Cluster
	sink    *quorumSink
	match   map[string]uint64
	next    map[string]uint64
	wake    map[string]chan struct{}
	want    uint64
	// framesFrom is the lowest LSN whose entry may still hold a frame this
	// leader encoded (dropFramesLocked); enc encodes the entries that
	// ship without one, and reencoded counts them.
	framesFrom uint64
	enc        storage.RecordEncoder
	reencoded  uint64

	// epoch increments on every role transition; goroutines spawned for
	// one incarnation (promotion, peer loops, vote fan-out) check it and
	// stand down when stale.
	epoch  uint64
	closed bool
	failed error

	timer    *time.Timer
	rnd      *mrand.Rand
	tr       *transport
	isolated atomic.Bool
	wg       sync.WaitGroup

	rec         *obs.FlightRecorder
	transitions *obs.Counter
}

// Open starts a replica: loads persisted state, opens the follower log,
// binds the replication listener, and begins running elections. A
// single-node cluster self-elects within one election timeout.
func Open(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("repl: Config.ID required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: Config.Dir required")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 40 * time.Millisecond
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.OpenEngine == nil {
		cfg.OpenEngine = defaultOpenEngine
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = int64(binary.LittleEndian.Uint64(b[:]))
		} else {
			seed = time.Now().UnixNano()
		}
	}
	n := &Node{
		cfg:    cfg,
		quorum: (len(cfg.Peers)+1)/2 + 1,
		rnd:    mrand.New(mrand.NewSource(seed)),
	}
	n.cond = sync.NewCond(&n.mu)
	if err := n.loadHardState(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	err := n.loadDiskStateLocked()
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	tr, err := newTransport(n, cfg.Addr)
	if err != nil {
		n.fw.Close()
		return nil, err
	}
	n.tr = tr
	n.publishObs()
	n.mu.Lock()
	n.timer = time.AfterFunc(n.electionDelayLocked(), n.electionTick)
	n.mu.Unlock()
	return n, nil
}

// defaultOpenEngine is the promotion hook when none is configured: a
// durable engine over dir with no registered object types.
func defaultOpenEngine(dir string, fresh bool) (*core.DB, error) {
	opts := core.Options{Durability: storage.GroupCommit, WALDir: dir}
	if fresh {
		return core.OpenDurable(opts)
	}
	db, _, err := recovery.RecoverDir(dir, opts, nil)
	return db, err
}

// Addr returns the bound replication transport address.
func (n *Node) Addr() string { return n.tr.addr }

// SetIsolated simulates a network partition in-process: while isolated
// the node neither sends nor answers replication traffic. cmd/chaos'
// repl-partition round drives this.
func (n *Node) SetIsolated(v bool) { n.isolated.Store(v) }

// Close shuts the replica down: stops timers and loops, closes the
// transport, and releases whichever of engine/follower log this node
// holds.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.epoch++
	if n.timer != nil {
		n.timer.Stop()
	}
	n.cond.Broadcast()
	db, fw := n.db, n.fw
	n.db, n.fw = nil, nil
	n.cluster = nil
	n.mu.Unlock()

	n.tr.close()
	n.wg.Wait()
	var err error
	if db != nil {
		err = db.Close()
	}
	if fw != nil {
		if cerr := fw.Close(); err == nil && !errors.Is(cerr, storage.ErrWALPoisoned) {
			err = cerr
		}
	}
	return err
}

// fwOptions is the follower log's FileWAL configuration.
func (n *Node) fwOptions() storage.FileWALOptions {
	return storage.FileWALOptions{SegmentSize: n.cfg.SegmentSize, Durability: n.cfg.Durability}
}

// loadHardState reads repl-state.json (absent = zero state).
func (n *Node) loadHardState() error {
	raw, err := os.ReadFile(filepath.Join(n.cfg.Dir, hardStateFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	var hs hardState
	if err := json.Unmarshal(raw, &hs); err != nil {
		return fmt.Errorf("repl: %s corrupt: %w", hardStateFile, err)
	}
	n.term, n.votedFor = hs.Term, hs.VotedFor
	n.snapLSN, n.snapTerm = hs.SnapLSN, hs.SnapTerm
	n.fences = hs.Fences
	return nil
}

// persistLocked writes the hard state with temp+rename+fsync — a vote or
// term bump must never outrun its durability (a node that re-votes after
// a crash can elect two leaders in one term).
func (n *Node) persistLocked() {
	hs := hardState{Term: n.term, VotedFor: n.votedFor,
		SnapLSN: n.snapLSN, SnapTerm: n.snapTerm, Fences: n.fences}
	raw, err := json.MarshalIndent(&hs, "", "  ")
	if err != nil {
		n.failLocked(fmt.Errorf("repl: encoding hard state: %w", err))
		return
	}
	path := filepath.Join(n.cfg.Dir, hardStateFile)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		n.failLocked(fmt.Errorf("repl: persisting hard state: %w", err))
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		n.failLocked(fmt.Errorf("repl: persisting hard state: %w", err))
		return
	}
	if err := storage.SyncDir(n.cfg.Dir); err != nil {
		n.failLocked(fmt.Errorf("repl: persisting hard state: %w", err))
	}
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadDiskStateLocked (re)builds follower state from the directory: the
// owned FileWAL, the entry cache, and the standby image seeded from the
// newest checkpoint. Called at Open and after a deposed leader's engine
// is closed.
func (n *Node) loadDiskStateLocked() error {
	var entries entryLog
	var first, last uint64
	fw, err := storage.OpenFileWAL(n.cfg.Dir, n.fwOptions(), func(rec storage.Record) error {
		entries.Put(rec.LSN, entry{term: n.termOfLocked(rec.LSN), rec: rec})
		if first == 0 {
			first = rec.LSN
		}
		last = rec.LSN
		return nil
	})
	if err != nil {
		return fmt.Errorf("repl: opening follower log: %w", err)
	}
	snap, _, err := checkpoint.Latest(n.cfg.Dir)
	if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		fw.Close()
		return fmt.Errorf("repl: scanning checkpoints: %w", err)
	}
	n.fw = fw
	n.entries = entries
	if snap != nil && snap.LSN > n.snapLSN {
		// The engine checkpointed beyond the last installed snapshot while
		// this node led; adopt the newer barrier.
		n.snapLSN = snap.LSN
		n.snapTerm = n.termOfLocked(snap.LSN)
	}
	if snap != nil {
		n.standby = storage.NewMemStoreFromSnapshot(snap.Pages, snap.NextPage, snap.PageSize)
		n.applied = snap.LSN
	} else {
		n.standby = storage.NewMemStore(n.cfg.PageSize)
		n.applied = 0
	}
	n.lastLSN = max(n.snapLSN, last)
	n.firstLSN = n.snapLSN + 1
	if first > 0 && first < n.firstLSN {
		n.firstLSN = first
	}
	if n.commitIndex < n.snapLSN {
		n.commitIndex = n.snapLSN
	}
	// Entries at or below an engine checkpoint barrier were applied into
	// the snapshot image already; anything between applied and commitIndex
	// replays through redo now (a restart forgets commitIndex, so this is
	// usually a no-op until the leader's first heartbeat).
	n.applyCommittedLocked()
	return nil
}

// termOfLocked maps an LSN to its term via the fence list. LSN 0 and
// entries predating replication (below every fence) are term 0.
func (n *Node) termOfLocked(lsn uint64) uint64 {
	if lsn == 0 {
		return 0
	}
	for i := len(n.fences) - 1; i >= 0; i-- {
		if n.fences[i].First <= lsn {
			return n.fences[i].Term
		}
	}
	return 0
}

// addFenceLocked registers "entries from first on carry term", replacing
// any fences at or above first (a conflict truncation rewrites history
// from that point). Caller persists.
func (n *Node) addFenceLocked(term, first uint64) {
	for len(n.fences) > 0 && n.fences[len(n.fences)-1].First >= first {
		n.fences = n.fences[:len(n.fences)-1]
	}
	if len(n.fences) > 0 && n.fences[len(n.fences)-1].Term == term {
		return
	}
	n.fences = append(n.fences, fence{Term: term, First: first})
}

func (n *Node) lastTermLocked() uint64 { return n.termOfLocked(n.lastLSN) }

// failLocked latches a node-fatal error (disk failures persisting state).
// The node stops participating: it refuses RPCs and elections.
func (n *Node) failLocked(err error) {
	if n.failed == nil {
		n.failed = err
		n.logf("repl: %s: failed: %v", n.cfg.ID, err)
	}
	n.cond.Broadcast()
}

// Err reports the latched node-fatal error, if any.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// setRoleLocked flips the role, bumps the epoch (standing down any
// goroutines of the old incarnation), and emits the transition to the
// flight recorder and the OnRole hook.
func (n *Node) setRoleLocked(r Role) {
	if n.role == r {
		return
	}
	n.role = r
	n.epoch++
	if n.rec != nil {
		n.rec.Record(obs.Event{Kind: obs.EvReplRole, Actor: n.cfg.ID, Note: r.String(), N: int64(n.term)})
	}
	if n.transitions != nil {
		n.transitions.Add(1)
	}
	if n.cfg.OnRole != nil {
		n.cfg.OnRole(r, n.term)
	}
	n.cond.Broadcast()
}

// electionDelayLocked draws the next randomized election timeout.
func (n *Node) electionDelayLocked() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rnd.Int63n(int64(base)))
}

func (n *Node) resetElectionTimerLocked() {
	if n.timer != nil {
		n.timer.Stop()
		n.timer.Reset(n.electionDelayLocked())
	}
}

// electionTick fires when no leader has been heard from for a full
// randomized timeout: become a candidate and solicit votes.
func (n *Node) electionTick() {
	n.mu.Lock()
	if n.closed || n.failed != nil || n.role == RoleLeader || n.rebuilding || n.isolated.Load() ||
		time.Since(n.heardAt) < n.cfg.ElectionTimeout {
		// A leader's liveness is judged by its own quorum acks, not this
		// timer; a rebuilding or isolated node would elect itself on state
		// it cannot defend; and a timer that fired while the leader's
		// append or snapshot held mu is stale. Re-arm and wait.
		if !n.closed {
			n.resetElectionTimerLocked()
		}
		n.mu.Unlock()
		return
	}
	n.term++
	n.votedFor = n.cfg.ID
	n.persistLocked()
	n.setRoleLocked(RoleCandidate)
	term := n.term
	lastLSN, lastTerm := n.lastLSN, n.lastTermLocked()
	n.resetElectionTimerLocked()
	n.mu.Unlock()

	n.logf("repl: %s: election for term %d (last %d/t%d)", n.cfg.ID, term, lastLSN, lastTerm)
	if n.quorum == 1 {
		n.maybeLead(term)
		return
	}
	var votes atomic.Int64
	votes.Store(1)
	for _, p := range n.cfg.Peers {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			req := wire.Msg{Type: wire.MsgReplVote, Repl: &wire.ReplExt{
				Term: term, From: n.cfg.ID, PrevLSN: lastLSN, PrevTerm: lastTerm}}
			resp, err := n.tr.call(p, req, nil)
			if err != nil || resp.Repl == nil {
				return
			}
			n.mu.Lock()
			if resp.Repl.Term > n.term {
				n.bumpTermLocked(resp.Repl.Term)
				n.mu.Unlock()
				return
			}
			n.mu.Unlock()
			if resp.Repl.OK() && resp.Repl.Term == term && votes.Add(1) == int64(n.quorum) {
				n.maybeLead(term)
			}
		}()
	}
}

// maybeLead promotes to leader if the election that gathered the quorum
// is still the live one.
func (n *Node) maybeLead(term uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.failed != nil || n.term != term || n.role != RoleCandidate {
		return
	}
	n.becomeLeaderLocked()
}

// bumpTermLocked adopts a higher term seen on any RPC: persist it and
// step down to follower (demoting through the engine teardown if this
// node was leading).
func (n *Node) bumpTermLocked(term uint64) {
	if term <= n.term {
		return
	}
	n.term = term
	n.votedFor = ""
	n.persistLocked()
	n.stepToFollowerLocked()
}

// stepToFollowerLocked moves to the follower role. A deposed leader
// additionally tears down its engine in the background and re-reads the
// directory as a plain follower log (rebuilding gates RPCs meanwhile).
func (n *Node) stepToFollowerLocked() {
	wasLeader := n.role == RoleLeader
	n.setRoleLocked(RoleFollower)
	n.resetElectionTimerLocked()
	if !wasLeader {
		return
	}
	n.leaderID, n.leaderAddr = "", ""
	db := n.db
	n.db, n.cluster, n.sink = nil, nil, nil
	n.match, n.next, n.wake = nil, nil, nil
	n.rebuilding = true
	n.cond.Broadcast() // parked quorum waiters see the epoch change and fail typed
	epoch := n.epoch
	n.wg.Add(1)
	go n.rebuildFollower(epoch, db)
}

// rebuildFollower closes a deposed leader's engine (flushing its local
// WAL) and restores follower disk state. Runs outside the node mutex —
// engine Close flushes through the quorum sink's inner FileWAL.
func (n *Node) rebuildFollower(epoch uint64, db *core.DB) {
	defer n.wg.Done()
	if db != nil {
		_ = db.Close()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rebuilding = false
	if n.closed || n.epoch != epoch {
		return
	}
	if err := n.loadDiskStateLocked(); err != nil {
		n.failLocked(err)
		return
	}
	n.logf("repl: %s: rejoined as follower at %d/t%d", n.cfg.ID, n.lastLSN, n.lastTermLocked())
}

// applyCommittedLocked advances the standby image to the commit index by
// replaying committed update records through the recovery redo path.
func (n *Node) applyCommittedLocked() {
	if n.standby == nil {
		return
	}
	for lsn := n.applied + 1; lsn <= n.commitIndex; lsn++ {
		if e := n.entries.at(lsn); e != nil && e.rec.Kind == storage.RecUpdate {
			if err := recovery.RedoPage(n.standby, e.rec.Page, e.rec.After); err != nil {
				n.logf("repl: %s: standby redo of lsn %d: %v", n.cfg.ID, lsn, err)
			}
		}
		n.applied = lsn
	}
}

// Status is the replication snapshot surfaced on /healthz and by tools.
type Status struct {
	Node        string `json:"node"`
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	CommitIndex uint64 `json:"commit_index"`
	LastLSN     uint64 `json:"last_lsn"`
	// Applied is the last entry this node's engine state reflects among
	// the committed ones: a follower's standby has applied every entry
	// through it, and a leader's engine produced every entry it logged, so
	// a leader reports its commit index.
	Applied uint64 `json:"applied"`
	// Leader is the current leader's client address ("" when unknown).
	Leader string `json:"leader,omitempty"`
	// LagEntries is how far this node trails: a follower's unapplied
	// committed suffix, a leader's unacked quorum window (the records a
	// committer waits on that no quorum holds yet; records no commit has
	// demanded are not counted).
	LagEntries uint64 `json:"lag_entries"`
}

// Status reports the node's replication state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Status{
		Node:        n.cfg.ID,
		Role:        n.role.String(),
		Term:        n.term,
		CommitIndex: n.commitIndex,
		LastLSN:     n.lastLSN,
		Applied:     n.applied,
		Leader:      n.leaderAddr,
	}
	if n.role == RoleLeader {
		s.Applied = n.commitIndex
		if w := min(n.want, n.lastLSN); w > n.commitIndex {
			s.LagEntries = w - n.commitIndex
		}
	} else if n.commitIndex > n.applied {
		s.LagEntries = n.commitIndex - n.applied
	}
	return s
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// LeaderCluster returns the single-partition cluster over the engine this
// node leads — the server's write path. False until a promotion has fully
// completed (engine open, sink wrapped).
func (n *Node) LeaderCluster() (*partition.Cluster, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader && n.cluster != nil {
		return n.cluster, true
	}
	return nil, false
}

// DB returns the engine this node leads (nil otherwise).
func (n *Node) DB() *core.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return n.db
	}
	return nil
}

// LeaderHint returns the best-known leader client address ("" when no
// leader is known — mid-election).
func (n *Node) LeaderHint() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderAddr
}

// StandbyRead serves a page from the follower's warm standby image —
// committed state only, the replication analogue of degraded-mode reads.
func (n *Node) StandbyRead(page uint64) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.standby == nil {
		return "", false
	}
	data, err := n.standby.Read(storage.PageID(page))
	if err != nil {
		return "", false
	}
	return data, true
}

// publishObs wires the replication gauges and the role-transition
// recorder into the registry.
func (n *Node) publishObs() {
	reg := n.cfg.Obs
	if reg == nil {
		return
	}
	n.rec = reg.Recorder()
	n.transitions = reg.Counter("repl.transitions")
	reg.PublishFunc("repl.role", func() any {
		return int64(n.Role())
	})
	reg.PublishFunc("repl.term", func() any {
		return int64(n.Term())
	})
	reg.PublishFunc("repl.commit_index", func() any {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(n.commitIndex)
	})
	reg.PublishFunc("repl.lag_entries", func() any {
		return int64(n.Status().LagEntries)
	})
}
