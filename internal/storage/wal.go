package storage

import (
	"fmt"
	"strings"
	"sync"
	"time"
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
	LSN    uint64
	Kind   RecordKind
	Owner  string // transaction or subtransaction id
	Page   PageID // RecUpdate only
	Before string // RecUpdate only
	After  string // RecUpdate only
	Note   string // RecCompensation/RecIntent: the (inverse) operation
	// CLR marks updates performed while rolling back (compensation log
	// records in the ARIES sense): they are redone but never undone.
	CLR bool
	// Refs lists the LSNs a RecDiscard invalidates, and for RecIntent the
	// LSNs of child entries this intent supersedes.
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

// WAL is the write-ahead log. Records always live in memory (recovery,
// undo, and the offline checker scan them); an attached DurableSink
// additionally carries every record to stable storage. Before-images
// recorded here are the basis for physical undo of uncommitted page
// writes; compensation records document the logical undo of open nested
// subtransactions.
type WAL struct {
	mu      sync.Mutex
	records []Record
	nextLSN uint64
	sink    DurableSink
	// activeFirst maps each in-flight transaction root to the LSN of its
	// first undo-relevant record (RecUpdate or RecIntent); the entry is
	// dropped when the root's commit or completed-abort record lands. A
	// fuzzy checkpoint reads this to know how far back the log must be kept
	// for loser undo (ActiveInfo) — mirroring recovery's analysis rules.
	activeFirst map[string]uint64
}

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1, activeFirst: make(map[string]uint64)}
}

// NewWALFromRecords reconstructs a log from persisted records (recovery).
func NewWALFromRecords(recs []Record) *WAL {
	w := &WAL{nextLSN: 1, records: append([]Record{}, recs...), activeFirst: make(map[string]uint64)}
	for _, r := range recs {
		if r.LSN >= w.nextLSN {
			w.nextLSN = r.LSN + 1
		}
		w.trackActive(r)
	}
	return w
}

// walRootOf mirrors the root extraction recovery applies to record owners:
// diagnostic suffixes ("T3.1:undo") are stripped at the first ':', then the
// root is the prefix before the first '.' (cc.RootOf; duplicated here so
// storage does not depend on the lock manager).
func walRootOf(owner string) string {
	if i := strings.IndexByte(owner, ':'); i >= 0 {
		owner = owner[:i]
	}
	if i := strings.IndexByte(owner, '.'); i >= 0 {
		owner = owner[:i]
	}
	return owner
}

// trackActive maintains the in-flight-root index. Called with w.mu held (or
// during single-threaded construction).
func (w *WAL) trackActive(r Record) {
	root := walRootOf(r.Owner)
	switch r.Kind {
	case RecUpdate, RecIntent:
		if _, ok := w.activeFirst[root]; !ok {
			w.activeFirst[root] = r.LSN
		}
	case RecCommit:
		delete(w.activeFirst, root)
	case RecAbort:
		if !strings.Contains(r.Owner, ":") { // diagnostic abort notes are not outcomes
			delete(w.activeFirst, root)
		}
	}
}

// ActiveInfo returns the in-flight transaction roots — owners with undo
// entries in the log but no commit or completed-abort record yet — and the
// earliest LSN any of them logged (0 when none are in flight). A fuzzy
// checkpoint stores both: truncation must never delete a record a loser's
// undo might still need.
func (w *WAL) ActiveInfo() (roots []string, oldestFirst uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for root, first := range w.activeFirst {
		roots = append(roots, root)
		if oldestFirst == 0 || first < oldestFirst {
			oldestFirst = first
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
func (w *WAL) Clone() *WAL {
	w.mu.Lock()
	defer w.mu.Unlock()
	return NewWALFromRecords(w.records)
}

// Append adds a record and returns its LSN.
func (w *WAL) Append(rec Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.LSN = w.nextLSN
	w.nextLSN++
	if w.activeFirst == nil {
		w.activeFirst = make(map[string]uint64)
	}
	w.trackActive(rec)
	w.records = append(w.records, rec)
	if w.sink != nil {
		w.sink.Append(rec)
	}
	return rec.LSN
}

// LogUpdate appends an update record.
func (w *WAL) LogUpdate(owner string, page PageID, before, after string) uint64 {
	return w.Append(Record{Kind: RecUpdate, Owner: owner, Page: page, Before: before, After: after})
}

// LogCLRUpdate appends a redo-only update (written during rollback).
func (w *WAL) LogCLRUpdate(owner string, page PageID, before, after string) uint64 {
	return w.Append(Record{Kind: RecUpdate, Owner: owner, Page: page, Before: before, After: after, CLR: true})
}

// LogIntent registers a pending logical compensation for the owner's
// transaction; note encodes the inverse operation and refs lists the child
// undo entries it supersedes.
func (w *WAL) LogIntent(owner, note string, refs []uint64) uint64 {
	return w.Append(Record{Kind: RecIntent, Owner: owner, Note: note, Refs: refs})
}

// LogDiscard invalidates the given undo-entry LSNs for the owner.
func (w *WAL) LogDiscard(owner string, refs []uint64) uint64 {
	if len(refs) == 0 {
		return 0
	}
	return w.Append(Record{Kind: RecDiscard, Owner: owner, Refs: refs})
}

// LogCommit appends a commit record.
func (w *WAL) LogCommit(owner string) uint64 {
	return w.Append(Record{Kind: RecCommit, Owner: owner})
}

// LogAbort appends an abort record.
func (w *WAL) LogAbort(owner string) uint64 {
	return w.Append(Record{Kind: RecAbort, Owner: owner})
}

// LogCompensation appends a compensation record.
func (w *WAL) LogCompensation(owner, note string) uint64 {
	return w.Append(Record{Kind: RecCompensation, Owner: owner, Note: note})
}

// Len returns the number of records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// LastLSN returns the highest assigned LSN (0 when the log is empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Records returns a copy of all records in log order.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Record, len(w.records))
	copy(out, w.records)
	return out
}
