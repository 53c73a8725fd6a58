package storage

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/lsnlog"
)

// RecordKind tags write-ahead log records.
type RecordKind uint8

const (
	// RecUpdate is a page update carrying before- and after-images.
	RecUpdate RecordKind = iota
	// RecCommit marks an owner (transaction or subtransaction) committed.
	RecCommit
	// RecAbort marks an owner aborted.
	RecAbort
	// RecCompensation marks a logical compensation execution (open
	// nesting): undo of a committed subtransaction by an inverse operation.
	RecCompensation
	// RecIntent registers a pending compensation (logical undo entry) for
	// a transaction: if the transaction neither commits nor finishes its
	// abort before a crash, recovery replays surviving intents in reverse.
	RecIntent
	// RecDiscard invalidates earlier undo entries (intents or updates) by
	// LSN: they were superseded by a higher-level compensation, already
	// executed during rollback, or declared effect-free.
	RecDiscard
)

func (k RecordKind) String() string {
	switch k {
	case RecUpdate:
		return "update"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCompensation:
		return "compensate"
	case RecIntent:
		return "intent"
	case RecDiscard:
		return "discard"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one WAL entry.
type Record struct {
	LSN  uint64
	Kind RecordKind
	// CLR marks updates performed while rolling back (compensation log
	// records in the ARIES sense): they are redone but never undone.
	CLR    bool
	Owner  Owner  // the transaction or subtransaction that logged it
	Page   PageID // RecUpdate only
	Before string // RecUpdate only
	After  string // RecUpdate only
	Note   string // RecCompensation/RecIntent: the (inverse) operation
	// Refs lists the LSNs a RecDiscard invalidates, and for RecIntent the
	// LSNs of child entries this intent supersedes. The log carves the
	// Refs it builds from a slab it shares between records (DESIGN
	// §4b.34): they are read-only.
	Refs []uint64
}

// DurableSink is the stable-storage backing of a WAL (see FileWAL). The
// WAL forwards every appended record under its own mutex, so records
// arrive at the sink in LSN order; commit paths block in WaitDurable.
type DurableSink interface {
	// Append hands a freshly sequenced record to the durable layer. It must
	// only buffer (it runs under the WAL mutex).
	Append(rec Record)
	// WaitDurable blocks until the record with the given LSN — and, since
	// flushing is prefix-ordered, every earlier record — is stable.
	WaitDurable(lsn uint64) error
	// Close flushes and releases the sink.
	Close() error
}

// BatchInfo describes the physical flush (one fsync) that carried a record
// to stable storage — what a committing transaction's group-commit span
// reports: which batch it rode, how many records shared the fsync, and the
// fsync's latency.
type BatchInfo struct {
	// ID is the flush ordinal (the sink's fsync count at flush time).
	ID int64
	// Records is how many records the flush covered.
	Records int
	// Fsync is the physical fsync latency.
	Fsync time.Duration
}

// batchInfoSink is the optional DurableSink extension reporting which flush
// made an LSN durable (implemented by FileWAL).
type batchInfoSink interface {
	BatchInfo(lsn uint64) (BatchInfo, bool)
}

// WAL is the write-ahead log, and the undo list: runtime abort and restart
// recovery roll back from the live undo records it tracks per in-flight
// transaction (LiveUndo). Memory keeps a window of LSN-contiguous records
// from first to the newest; a record leaves it (Trim) once its effects are
// in the store crash recovery starts from and no live undo chain names it
// or anything older. An attached DurableSink carries every record to disk.
type WAL struct {
	mu      sync.Mutex
	records lsnlog.Log[Record]
	first   uint64 // the window's oldest LSN; nextLSN when it is empty
	nextLSN uint64
	sink    DurableSink
	// active maps each in-flight transaction root (undo-relevant records,
	// no EndsTxn record yet) to its undo chain.
	active map[string]*undoChain
	// ending holds the chains Commit handed to committers of a durable
	// log, until they release them (EndedUndo); free the chains to reuse.
	ending, free []*undoChain
	// refs is the slab LogIntent and LogDiscardUnder carve Refs from, in
	// LSN order.
	refs       lsnlog.Slab[uint64]
	replayKept uint64 // window length after Replay's last trim
}

// undoChain tracks one in-flight root: the LSN of its first RecUpdate or
// RecIntent (ActiveInfo), and its live undo records, oldest first — the
// non-CLR updates and intents no later RecDiscard or intent Refs named.
type undoChain struct {
	first uint64
	live  []uint64
}

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{first: 1, nextLSN: 1, active: make(map[string]*undoChain)}
}

// NewWALFromRecords reconstructs a log from persisted records (recovery),
// undo chains included.
func NewWALFromRecords(recs []Record) *WAL {
	w := NewWAL()
	for _, r := range recs {
		w.trackActive(&r)
		w.push(r)
	}
	return w
}

// push stores an already-sequenced record, the newest. Called with w.mu
// held (or during single-threaded construction).
func (w *WAL) push(rec Record) {
	if w.first == w.nextLSN {
		w.first = rec.LSN
	}
	w.nextLSN = rec.LSN + 1
	w.records.Put(rec.LSN, rec)
}

// EndsTxn reports whether r finishes its root's transaction: a commit, or
// an abort of an action rather than a diagnostic note
// ("T3:compensation-failed:...", whose root is not its id).
func (r *Record) EndsTxn() bool {
	return r.Kind == RecCommit || r.Kind == RecAbort && (r.Owner.steps[0] != 0 || r.Owner.Root() == r.Owner.id)
}

// trackActive maintains the undo chains. Called with w.mu held (or during
// single-threaded construction).
func (w *WAL) trackActive(r *Record) {
	root := r.Owner.Root()
	switch {
	case r.EndsTxn():
		if c := w.active[root]; c != nil {
			delete(w.active, root)
			w.recycle(c)
		}
	case r.Kind == RecUpdate || r.Kind == RecIntent:
		c := w.active[root]
		if c == nil {
			c = w.chain(r.LSN)
			w.active[root] = c
		}
		w.consume(c, r.Refs)
		if !r.CLR {
			c.live = append(c.live, r.LSN)
		}
	case r.Kind == RecDiscard:
		w.consume(w.active[root], r.Refs)
	}
}

// chain returns an empty undo chain whose first record is first, reusing
// an ended one.
func (w *WAL) chain(first uint64) *undoChain {
	if n := len(w.free); n > 0 {
		c := w.free[n-1]
		w.free = w.free[:n-1]
		c.first = first
		return c
	}
	return &undoChain{first: first, live: make([]uint64, 0, 4)}
}

// recycle returns an ended chain to the free list.
func (w *WAL) recycle(c *undoChain) {
	c.live = c.live[:0]
	w.free = append(w.free, c)
}

// consume drops refs from the live records, looking in c — the chain of
// the consuming record's root — first: only restart undo names another
// root's record (a recovery transaction's compensation consumes the
// loser's intent).
func (w *WAL) consume(c *undoChain, refs []uint64) {
	for _, ref := range refs {
		if c == nil || !c.drop(ref) {
			for _, o := range w.active {
				if o.drop(ref) {
					break
				}
			}
		}
	}
}

func (c *undoChain) drop(lsn uint64) bool {
	i := slices.Index(c.live, lsn)
	if i >= 0 {
		c.live = slices.Delete(c.live, i, i+1)
	}
	return i >= 0
}

// at returns the record with the given LSN. An LSN outside the window
// means a record undo needs was trimmed; restoring another record's
// before-image would corrupt the store.
func (w *WAL) at(lsn uint64) *Record {
	if r := w.records.At(lsn); r != nil && r.LSN == lsn {
		return r
	}
	panic(fmt.Sprintf("storage: WAL record %d is not in the retained window [%d, %d]", lsn, w.first, w.nextLSN-1))
}

// liveUnder appends to dst the LSNs of the live undo records in c, the
// chain of action's root, logged by action or its descendants above the
// given LSN, oldest first. Called with w.mu held.
func (w *WAL) liveUnder(dst []uint64, c *undoChain, action Owner, above uint64) []uint64 {
	if c == nil {
		return dst
	}
	for _, lsn := range c.live {
		if lsn > above && w.at(lsn).Owner.within(action) {
			dst = append(dst, lsn)
		}
	}
	return dst
}

// carveRefs returns the LSNs of the live undo records of action's subtree,
// plus entry when non-zero, carved from the refs slab (nil when there are
// none). Called with w.mu held.
func (w *WAL) carveRefs(action Owner, entry uint64) []uint64 {
	var buf [32]uint64
	lsns := w.liveUnder(buf[:0], w.active[action.Root()], action, 0)
	if entry != 0 {
		lsns = append(lsns, entry)
	}
	if len(lsns) == 0 {
		return nil
	}
	refs := w.refs.Carve(len(lsns))
	copy(refs, lsns)
	return refs
}

// LiveUndo returns the live undo records of action's subtree (a root names
// its whole transaction) above the given LSN, newest first: exactly what a
// rollback of that subtree has to reverse.
func (w *WAL) LiveUndo(action Owner, above uint64) []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	var buf [32]uint64
	return w.newestFirst(w.liveUnder(buf[:0], w.active[action.Root()], action, above))
}

func (w *WAL) newestFirst(lsns []uint64) []Record {
	out := make([]Record, len(lsns))
	for i, lsn := range lsns {
		out[len(out)-1-i] = *w.at(lsn)
	}
	return out
}

// ActiveInfo returns the in-flight transaction roots — owners with undo
// entries in the log but no commit or completed-abort record yet — and the
// earliest LSN any of them logged (0 when none are in flight). A fuzzy
// checkpoint stores both: truncation must never delete a record a loser's
// undo might still need.
func (w *WAL) ActiveInfo() (roots []string, oldestFirst uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for root, c := range w.active {
		roots = append(roots, root)
		if oldestFirst == 0 || c.first < oldestFirst {
			oldestFirst = c.first
		}
	}
	return roots, oldestFirst
}

// SetSink attaches the durable backing. Only records appended afterwards
// are forwarded — a sink opened from existing segment files already holds
// the records the WAL was reconstructed from.
func (w *WAL) SetSink(s DurableSink) {
	w.mu.Lock()
	w.sink = s
	w.mu.Unlock()
}

// WrapSink swaps the attached sink for wrap(current) under the WAL mutex —
// the seam a replicator uses to interpose on an already-attached FileWAL
// (quorum-gate its WaitDurable) without racing concurrent appends. wrap
// may receive nil when no sink is attached.
func (w *WAL) WrapSink(wrap func(DurableSink) DurableSink) {
	w.mu.Lock()
	w.sink = wrap(w.sink)
	w.mu.Unlock()
}

// WaitDurable blocks until the record with the given LSN is on stable
// storage. Without a sink (mem-only durability) it returns immediately.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.mu.Lock()
	s := w.sink
	w.mu.Unlock()
	if s == nil || lsn == 0 {
		return nil
	}
	return s.WaitDurable(lsn)
}

// Durable reports whether a durable sink is attached — i.e. whether
// WaitDurable actually waits (and a commit has a group-commit phase worth
// a span).
func (w *WAL) Durable() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sink != nil
}

// BatchInfo reports the flush that carried lsn to stable storage, when the
// sink tracks it (FileWAL keeps a bounded flush history).
func (w *WAL) BatchInfo(lsn uint64) (BatchInfo, bool) {
	w.mu.Lock()
	s := w.sink
	w.mu.Unlock()
	if bs, ok := s.(batchInfoSink); ok && lsn > 0 {
		return bs.BatchInfo(lsn)
	}
	return BatchInfo{}, false
}

// poisonSink is the optional DurableSink extension reporting the sticky
// degraded state (implemented by FileWAL).
type poisonSink interface {
	Poisoned() error
}

// Poisoned returns the durable layer's sticky failure — non-nil once the
// backing FileWAL refused further commits (ErrWALPoisoned) — or nil for a
// healthy or memory-only log.
func (w *WAL) Poisoned() error {
	w.mu.Lock()
	s := w.sink
	w.mu.Unlock()
	if ps, ok := s.(poisonSink); ok {
		return ps.Poisoned()
	}
	return nil
}

// Close flushes and closes the durable sink, if any.
func (w *WAL) Close() error {
	w.mu.Lock()
	s := w.sink
	w.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.Close()
}

// Clone returns a deep copy of the log.
func (w *WAL) Clone() *WAL { return NewWALFromRecords(w.Records()) }

// Append adds a record and returns its LSN.
func (w *WAL) Append(rec Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(rec)
}

func (w *WAL) appendLocked(rec Record) uint64 {
	rec.LSN = w.nextLSN
	w.trackActive(&rec)
	w.push(rec)
	if w.sink != nil {
		w.sink.Append(rec)
	}
	return rec.LSN
}

// LogUpdate appends an update record.
func (w *WAL) LogUpdate(owner Owner, page PageID, before, after string) uint64 {
	return w.Append(Record{Kind: RecUpdate, Owner: owner, Page: page, Before: before, After: after})
}

// LogCLRUpdate appends a redo-only update (written during rollback).
func (w *WAL) LogCLRUpdate(owner Owner, page PageID, before, after string) uint64 {
	return w.Append(Record{Kind: RecUpdate, Owner: owner, Page: page, Before: before, After: after, CLR: true})
}

// LogIntent registers a pending logical compensation for a completed
// action (the owner); note encodes the inverse operation. The intent
// supersedes every live undo record of the action's subtree: they become
// its Refs, in the same append.
func (w *WAL) LogIntent(owner Owner, note string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(Record{Kind: RecIntent, Owner: owner, Note: note, Refs: w.carveRefs(owner, 0)})
}

// LogDiscard invalidates the given undo-entry LSNs for the owner.
func (w *WAL) LogDiscard(owner Owner, refs []uint64) uint64 {
	if len(refs) == 0 {
		return 0
	}
	return w.Append(Record{Kind: RecDiscard, Owner: owner, Refs: refs})
}

// LogDiscardUnder invalidates every live undo record of action's subtree,
// plus entry when non-zero (the intent a completing compensation
// executed), in one append owned by the action's root. It logs nothing
// when there is nothing to invalidate.
func (w *WAL) LogDiscardUnder(action Owner, entry uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	refs := w.carveRefs(action, entry)
	if len(refs) == 0 {
		return 0
	}
	return w.appendLocked(Record{Kind: RecDiscard, Owner: Owner{id: action.Root()}, Refs: refs})
}

// LogCommit appends a commit record.
func (w *WAL) LogCommit(owner Owner) uint64 {
	lsn, undo := w.Commit(owner)
	undo.Release()
	return lsn
}

// Commit appends owner's commit record, which ends its undo chain. On a
// durable log it hands the ended chain to the committer, which rolls back
// from it (EndedUndo.Records) if the commit cannot be made durable, and
// releases it either way.
func (w *WAL) Commit(owner Owner) (lsn uint64, undo EndedUndo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	root := owner.Root()
	if c := w.active[root]; c != nil && w.sink != nil {
		delete(w.active, root)
		w.ending = append(w.ending, c)
		undo = EndedUndo{w: w, c: c}
	}
	return w.appendLocked(Record{Kind: RecCommit, Owner: owner}), undo
}

// EndedUndo is a committed transaction's undo chain, held by a committer
// while it waits for durability: Trim keeps the chain's records until
// Release. The zero EndedUndo is an empty chain.
type EndedUndo struct {
	w *WAL
	c *undoChain
}

// Records returns the chain's live undo records, newest first.
func (u EndedUndo) Records() []Record {
	if u.c == nil {
		return nil
	}
	u.w.mu.Lock()
	defer u.w.mu.Unlock()
	return u.w.newestFirst(u.c.live)
}

// Release hands the chain back to the log. The committer calls it once,
// after the commit is durable or its rollback is done.
func (u EndedUndo) Release() {
	if u.c == nil {
		return
	}
	w := u.w
	w.mu.Lock()
	i, last := slices.Index(w.ending, u.c), len(w.ending)-1
	w.ending[i], w.ending[last] = w.ending[last], nil
	w.ending = w.ending[:last]
	w.recycle(u.c)
	w.mu.Unlock()
}

// LogAbort appends an abort record.
func (w *WAL) LogAbort(owner Owner) uint64 {
	return w.Append(Record{Kind: RecAbort, Owner: owner})
}

// LogCompensation appends a compensation record.
func (w *WAL) LogCompensation(owner Owner, note string) uint64 {
	return w.Append(Record{Kind: RecCompensation, Owner: owner, Note: note})
}

// Len returns the number of records in the window.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.nextLSN - w.first)
}

// Replay appends an already-sequenced record without forwarding it to the
// sink, trimming each time the window has doubled, so a whole log replays
// in the memory its live chains need. The caller applies each record to
// the store first, and no other goroutine may hold the log yet.
func (w *WAL) Replay(rec Record) {
	w.trackActive(&rec)
	w.push(rec)
	if w.nextLSN-w.first >= 2*w.replayKept {
		w.Trim(w.nextLSN)
		w.replayKept = max(w.nextLSN-w.first, 1024)
	}
}

// Trim drops the records below min(lsn, the first LSN of every live or
// handed-out undo chain), which the store must reflect, clearing them so
// their images are freed. The newest record stays, so a log rebuilt from the
// window continues the LSN sequence.
func (w *WAL) Trim(lsn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn = min(lsn, w.nextLSN-1)
	for _, c := range w.active {
		lsn = min(lsn, c.first)
	}
	for _, c := range w.ending {
		lsn = min(lsn, c.first)
	}
	if lsn > w.first {
		w.records.TrimBelow(lsn)
		w.first = lsn
	}
}

// LastLSN returns the highest assigned LSN (0 when the log is empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Records returns a copy of the window's records in log order.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Record, 0, w.nextLSN-w.first)
	for lsn := w.first; lsn < w.nextLSN; lsn++ {
		out = append(out, *w.at(lsn))
	}
	return out
}
