package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/commut"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
)

// undoEntry is one step of rollback, either physical (restore a page
// before-image; only sound while the page lock is still held) or logical
// (execute a compensating invocation as a fresh subtransaction).
type undoEntry struct {
	physical bool
	page     storage.PageID
	before   string

	obj    txn.OID
	method string
	params []string

	// lsn is the WAL record that registered this entry (the RecUpdate for
	// physical entries, the RecIntent for logical ones); recovery replays
	// entries that were registered but never discarded.
	lsn uint64
}

func entryLSNs(entries []undoEntry) []uint64 {
	out := make([]uint64, 0, len(entries))
	for _, e := range entries {
		if e.lsn != 0 {
			out = append(out, e.lsn)
		}
	}
	return out
}

// runtimeAction is one executing action (subtransaction).
type runtimeAction struct {
	id     string
	parent *runtimeAction
	obj    txn.OID
	inv    commut.Invocation
	// depth is the nesting depth below the transaction root (root = 0).
	depth int

	mu        sync.Mutex
	nchildren int
	undo      []undoEntry
	hasWrites bool
}

func (a *runtimeAction) appendUndo(entries ...undoEntry) {
	a.mu.Lock()
	a.undo = append(a.undo, entries...)
	a.hasWrites = true
	a.mu.Unlock()
}

func (a *runtimeAction) takeUndo() []undoEntry {
	a.mu.Lock()
	u := a.undo
	a.undo = nil
	a.mu.Unlock()
	return u
}

func (a *runtimeAction) nextChildID() string {
	a.mu.Lock()
	a.nchildren++
	n := a.nchildren
	a.mu.Unlock()
	return a.id + "." + strconv.Itoa(n)
}

// Txn is a top-level transaction.
type Txn struct {
	db    *DB
	id    string
	seq   int64
	root  *runtimeAction
	began time.Time
	// tt is this transaction's span trace (nil when tracing is disabled or
	// the transaction was not sampled; every method is nil-receiver safe).
	tt *span.TxnTrace
	// maxDepth tracks the deepest nesting reached — reported on the
	// txn.commit / txn.abort flight-recorder events.
	maxDepth atomic.Int64

	// refused marks a transaction handed out by Begin after Close started:
	// every operation fails with ErrClosed and no state was allocated.
	refused bool

	mu       sync.Mutex
	finished bool
	// compensated records that logical compensations executed during this
	// transaction's rollback; such a transaction stays in the trace (its
	// history is expanded with the inverse operations).
	compensated bool
	// aborting marks the rollback phase: compensation registrations are
	// suppressed (a compensation's own inverse must not be queued — it
	// would undo the undo) and entry discards are logged instead.
	aborting bool
	// pendingEntryLSN is the undo entry currently being compensated; the
	// compensating action's completion folds it into its discard record so
	// "compensation durable" and "entry consumed" are one WAL append.
	pendingEntryLSN uint64
}

func (t *Txn) isAborting() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.aborting
}

func (t *Txn) setAborting(v bool) {
	t.mu.Lock()
	t.aborting = v
	t.mu.Unlock()
}

func (t *Txn) setPendingEntry(lsn uint64) {
	t.mu.Lock()
	t.pendingEntryLSN = lsn
	t.mu.Unlock()
}

// takePendingEntry consumes the pending-entry LSN (at most once).
func (t *Txn) takePendingEntry() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.pendingEntryLSN
	t.pendingEntryLSN = 0
	return l
}

// Begin starts a transaction. On a closed (or closing) engine it returns a
// refused transaction: every operation on it — Exec, Commit, Abort — fails
// with ErrClosed, and nothing is recorded in the WAL, stats or trace. The
// signature stays error-free for the embedded callers; network-facing
// paths gate on Admit/AdmitCtx, which reports ErrClosed directly.
func (db *DB) Begin() *Txn {
	if db.closedFlag.Load() {
		return &Txn{db: db, id: "T-refused", refused: true,
			root: &runtimeAction{id: "T-refused", obj: txn.SystemObject}}
	}
	n := db.txnSeq.Add(1)
	id := "T" + strconv.FormatInt(n, 10)
	t := &Txn{
		db:    db,
		id:    id,
		seq:   n,
		began: time.Now(),
		root: &runtimeAction{
			id:  id,
			obj: txn.SystemObject,
			inv: commut.Invocation{Method: id},
		},
	}
	t.tt = db.spans.BeginTxn(id, t.began)
	db.stats.txnsStarted.Add(1)
	db.obsRec.Record(obs.Event{Kind: obs.EvTxnBegin, Actor: id})
	if db.tracing {
		db.rec.Record(trace.Event{
			ID:      id,
			ObjType: txn.SystemObjectType,
			ObjName: txn.SystemObject.Name,
			Method:  id,
		})
	}
	return t
}

// ID returns the transaction id ("T<n>").
func (t *Txn) ID() string { return t.id }

// Trace returns the transaction's span trace — nil when tracing is
// disabled or the transaction was not sampled; every TxnTrace method is
// nil-receiver safe. The session layer uses it to graft its KSession span
// (and the client's remote trace id) onto the engine's span tree.
func (t *Txn) Trace() *span.TxnTrace { return t.tt }

// Seq returns the transaction's start sequence number — its age for
// deadlock-victim selection.
func (t *Txn) Seq() int64 { return t.seq }

// SetPriority overrides the transaction's age: a retry loop that restarts
// an aborted transaction should pass the original attempt's Seq so the
// youngest-victim deadlock policy cannot starve it.
func (t *Txn) SetPriority(age int64) { t.db.lm.SetAge(t.id, age) }

// Ctx is the execution context passed to method implementations.
type Ctx struct {
	db     *DB
	txn    *Txn
	action *runtimeAction
}

// DB returns the engine (for page allocation inside methods).
func (c *Ctx) DB() *DB { return c.db }

// TxnID returns the enclosing top-level transaction id.
func (c *Ctx) TxnID() string { return c.txn.id }

// ActionID returns the current action's hierarchical id.
func (c *Ctx) ActionID() string { return c.action.id }

// Call invokes a method on an object as a sequential subtransaction of the
// current action.
func (c *Ctx) Call(obj txn.OID, method string, params ...string) (string, error) {
	return c.db.invoke(c.txn, c.action, obj, method, params, false)
}

// ParCall describes one branch of a Parallel invocation.
type ParCall struct {
	Obj    txn.OID
	Method string
	Params []string
}

// Parallel runs the calls concurrently, each as a parallel subtransaction
// (its own process in the sense of Definition 9). It returns the results in
// order; the first error (if any) is returned after all branches finish.
func (c *Ctx) Parallel(calls []ParCall) ([]string, error) {
	results := make([]string, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func(i int, call ParCall) {
			defer wg.Done()
			results[i], errs[i] = c.db.invoke(c.txn, c.action, call.Obj, call.Method, call.Params, true)
		}(i, call)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Exec invokes a method as a direct (sequential) action of the top-level
// transaction.
func (t *Txn) Exec(obj txn.OID, method string, params ...string) (string, error) {
	return t.db.invoke(t, t.root, obj, method, params, false)
}

// ExecParallel runs top-level calls concurrently (intra-transaction
// parallelism: each call is its own process).
func (t *Txn) ExecParallel(calls []ParCall) ([]string, error) {
	c := &Ctx{db: t.db, txn: t, action: t.root}
	return c.Parallel(calls)
}

// invoke runs one method invocation as a subtransaction of parent.
func (db *DB) invoke(t *Txn, parent *runtimeAction, obj txn.OID, method string, params []string, parallel bool) (string, error) {
	if t.refused {
		return "", ErrClosed
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return "", ErrTxnFinished
	}
	t.mu.Unlock()

	ot, ok := db.types[obj.Type]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownType, obj.Type)
	}
	inv := commut.Invocation{Method: method, Params: params}
	a := &runtimeAction{
		id:     parent.nextChildID(),
		parent: parent,
		obj:    obj,
		inv:    inv,
		depth:  parent.depth + 1,
	}
	db.stats.actions.Add(1)
	for {
		cur := t.maxDepth.Load()
		if int64(a.depth) <= cur || t.maxDepth.CompareAndSwap(cur, int64(a.depth)) {
			break
		}
	}

	// One span per method dispatch — the node of the paper's nested action
	// tree (Def. 2–4). Opened before lock acquisition so a contended lock's
	// span nests inside it; guarded (rather than relying on nil-safety
	// alone) so the unsampled path skips even the name concatenation.
	var ms *span.ActiveSpan
	if t.tt != nil {
		// Name is left empty — Snapshot derives "Object.Method" on the cold
		// path, keeping string concatenation off the dispatch fast path.
		ms = t.tt.BeginSpan(a.id, parent.id, span.KMethod, "")
		ms.SetDispatch(obj.Name, method)
	}

	if err := db.acquireFor(t, a, ot, ms); err != nil {
		ms.End(err)
		return "", err
	}

	if db.tracing && obj.Type != PageType {
		db.rec.Record(trace.Event{
			ID:       a.id,
			Parent:   parent.id,
			ObjType:  obj.Type,
			ObjName:  obj.Name,
			Method:   method,
			Params:   params,
			Parallel: parallel,
		})
	}

	var result string
	var err error
	if obj.Type == PageType {
		result, err = db.pageOp(t, a, parallel)
	} else {
		fn := ot.Methods[method]
		if fn == nil {
			err = fmt.Errorf("%w: %s.%s", ErrUnknownMethod, obj.Type, method)
		} else {
			result, err = fn(&Ctx{db: db, txn: t, action: a}, obj, params)
		}
	}
	if err != nil {
		db.abortSubtree(t, a)
		ms.End(err)
		return "", err
	}
	db.completeAction(t, a, ot, result)
	ms.End(nil)
	return result, nil
}

// acquireFor takes the lock(s) the protocol prescribes before executing a.
// The method span ms (nil-safe) gets the commutativity class — the lock
// mode — the dispatch runs under; a contended acquire additionally records
// a KLock child span with provenance edges (AcquireTraced). The span keeps
// the mode itself, boxed once here; it is rendered only if the trace is read.
func (db *DB) acquireFor(t *Txn, a *runtimeAction, ot *ObjectType, ms *span.ActiveSpan) error {
	var mode cc.Mode
	owner := t.id
	switch db.protocol {
	case Protocol2PLPage:
		if a.obj.Type != PageType {
			return nil
		}
		mode = rwModeFor(ot, a.inv.Method)
	case Protocol2PLObject:
		mode = rwModeFor(ot, a.inv.Method)
	case ProtocolClosedNested:
		if a.obj.Type != PageType {
			return nil
		}
		// Moss: the accessing subtransaction owns the lock; ancestors'
		// locks do not block (ancestor bypass is enabled on the manager).
		mode, owner = rwModeFor(ot, a.inv.Method), a.id
	case ProtocolOpenNested:
		// The semantic lock on the object is owned by the CALLER — the
		// transaction on this object in the paper's sense — and lives until
		// the caller completes.
		mode, owner = cc.Semantic{Inv: a.inv, Spec: ot.Spec}, a.parent.id
	default: // ProtocolNone
		return nil
	}
	ms.SetMode(mode)
	return db.lm.AcquireTraced(t.tt, a.id, owner, a.obj, mode)
}

func rwModeFor(ot *ObjectType, method string) cc.Mode {
	if ot.ReadOnly[method] {
		return cc.S
	}
	return cc.X
}

// pageOp executes a built-in page method ("read" or "write") under the
// frame latch, recording the trace event inside the latch so the recorded
// order is the real access order (the knowledge Axiom 1 postulates).
func (db *DB) pageOp(t *Txn, a *runtimeAction, parallel bool) (string, error) {
	pid, err := PageID(a.obj)
	if err != nil {
		return "", err
	}
	if db.ioDelay > 0 {
		time.Sleep(db.ioDelay)
	}
	frame, err := db.pool.FetchPage(pid)
	if err != nil {
		return "", err
	}
	defer db.pool.Unpin(frame)

	record := func() {
		if db.tracing {
			db.rec.Record(trace.Event{
				ID:       a.id,
				Parent:   a.parent.id,
				ObjType:  PageType,
				ObjName:  a.obj.Name,
				Method:   a.inv.Method,
				Params:   a.inv.Params,
				Parallel: parallel,
			})
		}
	}

	switch a.inv.Method {
	case "read", "readx":
		frame.RLatch()
		data := frame.Data()
		record()
		frame.RUnlatch()
		db.stats.pageReads.Add(1)
		return data, nil
	case "write":
		if len(a.inv.Params) != 1 {
			return "", fmt.Errorf("core: page write needs exactly one parameter")
		}
		data := a.inv.Params[0]
		if len(data) > db.store.PageSize() {
			return "", storage.ErrPageTooLarge
		}
		// The WAL record is appended INSIDE the frame latch: eviction writes
		// a frame back under the same latch, so a flushed page change always
		// has its log record first (the WAL rule). The shared snapshot
		// barrier additionally keeps [frame change + log record] atomic with
		// respect to CrashImage.
		db.snapMu.RLock()
		frame.Latch()
		before := frame.Data()
		frame.SetData(data)
		record()
		lsn := db.wal.LogUpdate(a.id, pid, before, data)
		frame.Unlatch()
		db.snapMu.RUnlock()
		a.parent.appendUndo(undoEntry{physical: true, page: pid, before: before, lsn: lsn})
		db.stats.pageWrites.Add(1)
		return "", nil
	default:
		return "", fmt.Errorf("%w: page.%s", ErrUnknownMethod, a.inv.Method)
	}
}

// completeAction performs the protocol's subtransaction-commit bookkeeping.
func (db *DB) completeAction(t *Txn, a *runtimeAction, ot *ObjectType, result string) {
	if a.obj.Type == PageType {
		// Page accesses are primitive; their undo entries were already
		// pushed to the parent and their locks (2PL/closed: held by t.id or
		// a.id; open: held by a.parent.id) follow the general rules below.
		return
	}
	parent := a.parent
	switch db.protocol {
	case ProtocolClosedNested:
		// The parent inherits the child's locks (and, transitively, those
		// of the child's completed descendants).
		db.lm.TransferToParent(a.id, parent.id)
		parent.appendUndoIfAny(a)
	case ProtocolOpenNested:
		comp := ot.Compensate[a.inv.Method]
		if comp != nil {
			covered := entryLSNs(a.takeUndo())
			if m, cp, need := comp(a.inv.Params, result); need {
				// The committed subtransaction is now undone logically; the
				// locks it acquired underneath can be released early — the
				// invocation lock on a.obj (owner parent.id) continues to
				// protect it.
				root := cc.RootOf(a.id)
				if t.isAborting() {
					// No inverse-of-inverse: just consume the children and
					// (if this action IS the running compensation) the undo
					// entry it executes, in one atomic WAL append.
					if pl := t.takePendingEntry(); pl != 0 {
						covered = append(covered, pl)
					}
					db.wal.LogDiscard(root, covered)
				} else {
					lsn := db.wal.LogIntent(root, compensationNote(a.obj, m, cp), covered)
					parent.appendUndo(undoEntry{obj: a.obj, method: m, params: cp, lsn: lsn})
				}
				db.lm.ReleaseOwner(a.id)
				return
			}
			// Compensation declared "nothing to undo": a read-only call.
			db.wal.LogDiscard(cc.RootOf(a.id), covered)
			db.lm.ReleaseOwner(a.id)
			return
		}
		a.mu.Lock()
		writes := a.hasWrites
		a.mu.Unlock()
		if !writes {
			// Read-only subtree: nothing to undo, release early.
			db.lm.ReleaseOwner(a.id)
			return
		}
		// No compensation available: behave closed — keep the locks (move
		// them to the parent) and bubble the physical undo entries so a
		// later ancestor with a compensation (or the top-level abort while
		// locks are still held) can roll back soundly.
		db.lm.TransferToParent(a.id, parent.id)
		parent.appendUndoIfAny(a)
	default:
		// Flat 2PL variants: locks are owned by the root and released at
		// commit; undo entries bubble.
		parent.appendUndoIfAny(a)
	}
}

// appendUndoIfAny moves the child's undo entries to the parent.
func (p *runtimeAction) appendUndoIfAny(child *runtimeAction) {
	entries := child.takeUndo()
	if len(entries) > 0 {
		p.appendUndo(entries...)
	}
}

// abortSubtree rolls back a failed action: logical compensations and
// physical before-images run in reverse order, then the subtree's locks
// are released. A purely physical rollback is erased from the trace; a
// rollback that executed compensations stays (the history is expanded with
// the inverse operations, as open-nesting theory prescribes).
func (db *DB) abortSubtree(t *Txn, a *runtimeAction) {
	compensated := db.rollback(t, a, a.takeUndo())
	db.lm.ReleaseTree(a.id)
	if db.tracing && !compensated {
		db.rec.MarkAborted(a.id)
	}
}

// rollback executes undo entries in reverse and reports whether any
// logical compensation ran. Logical entries run as fresh subtransactions
// of `under`; physical entries restore before-images directly (their page
// locks are still held by construction).
//
// Before compensating, the transaction's deadlock-victim mark is cleared
// and its priority raised: an aborting transaction must be able to acquire
// the locks its inverse operations need, and must not be re-victimized
// while undoing itself. Compensations that still fail transiently
// (deadlock with another compensator, timeout) are retried; open-nesting
// theory assumes compensations are total, so a persistent failure is
// logged as unrecoverable.
func (db *DB) rollback(t *Txn, under *runtimeAction, entries []undoEntry) bool {
	wasAborting := t.isAborting()
	t.setAborting(true)
	defer t.setAborting(wasAborting)

	compensated := false
	cleared := false
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.physical {
			db.undoPage(t, under, e)
			continue
		}
		if !cleared {
			db.lm.ClearDoomed(cc.RootOf(under.id))
			cleared = true
		}
		compensated = true
		db.stats.compensations.Add(1)
		t.mu.Lock()
		t.compensated = true
		t.mu.Unlock()
		db.wal.LogCompensation(under.id, e.obj.Name+"."+commut.Invocation{Method: e.method, Params: e.params}.String())
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			// The compensating action's completion consumes this entry's
			// intent record in its own discard (one atomic WAL append).
			t.setPendingEntry(e.lsn)
			if _, err = db.invoke(t, under, e.obj, e.method, e.params, false); err == nil {
				break
			}
			db.lm.ClearDoomed(cc.RootOf(under.id))
			time.Sleep(time.Duration(attempt+1) * 200 * time.Microsecond)
		}
		if pl := t.takePendingEntry(); pl != 0 && err == nil {
			// The compensation's top action had no Compensate entry of its
			// own, so nothing consumed the intent — discard it now.
			db.wal.LogDiscard(cc.RootOf(under.id), []uint64{pl})
		}
		if err != nil {
			db.wal.LogAbort(under.id + ":compensation-failed:" + err.Error())
		}
	}
	return compensated
}

// compensationNote encodes a pending inverse operation for the WAL so
// recovery can replay it: "type\x1fname\x1fmethod\x1fp1\x1fp2...".
func compensationNote(obj txn.OID, method string, params []string) string {
	return strings.Join(append([]string{obj.Type, obj.Name, method}, params...), unitSep)
}

// DecodeCompensationNote parses a RecIntent note back into an invocation.
func DecodeCompensationNote(note string) (obj txn.OID, method string, params []string, err error) {
	parts := strings.Split(note, unitSep)
	if len(parts) < 3 {
		return txn.OID{}, "", nil, fmt.Errorf("core: bad intent note %q", note)
	}
	return txn.OID{Type: parts[0], Name: parts[1]}, parts[2], parts[3:], nil
}

const unitSep = "\x1f"

// undoPage restores a page before-image; the restoring write is a CLR
// (redo-only) and it consumes the original update's undo entry. The CLR
// and the discard are appended inside the frame latch and the snapshot
// barrier so no crash image can hold the restored page without the CLR.
func (db *DB) undoPage(t *Txn, under *runtimeAction, e undoEntry) {
	frame, err := db.pool.FetchPage(e.page)
	if err != nil {
		db.wal.LogAbort(under.id + ":undo-fetch-failed")
		return
	}
	db.snapMu.RLock()
	frame.Latch()
	after := frame.Data()
	frame.SetData(e.before)
	db.wal.LogCLRUpdate(under.id+":undo", e.page, after, e.before)
	if e.lsn != 0 {
		db.wal.LogDiscard(cc.RootOf(under.id), []uint64{e.lsn})
	}
	frame.Unlatch()
	db.snapMu.RUnlock()
	db.pool.Unpin(frame)
}

// Savepoint marks a point in the transaction that RollbackTo can return
// to. Savepoints cover work performed through Exec on the transaction's
// main line; they do not span still-running parallel branches.
type Savepoint struct {
	txn  *Txn
	mark int
}

// Savepoint records the current rollback position.
func (t *Txn) Savepoint() Savepoint {
	t.root.mu.Lock()
	defer t.root.mu.Unlock()
	return Savepoint{txn: t, mark: len(t.root.undo)}
}

// RollbackTo undoes everything after the savepoint — physical restores and
// logical compensations in reverse order — and truncates the undo log to
// the mark. Locks acquired since the savepoint are retained (the standard
// savepoint semantics: isolation never shrinks mid-transaction). Later
// savepoints become invalid.
func (t *Txn) RollbackTo(sp Savepoint) error {
	if t.refused {
		return ErrClosed
	}
	if sp.txn != t {
		return fmt.Errorf("core: savepoint belongs to another transaction")
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	t.mu.Unlock()

	t.root.mu.Lock()
	if sp.mark > len(t.root.undo) {
		t.root.mu.Unlock()
		return fmt.Errorf("core: savepoint invalidated by an earlier rollback")
	}
	tail := append([]undoEntry{}, t.root.undo[sp.mark:]...)
	t.root.undo = t.root.undo[:sp.mark]
	t.root.mu.Unlock()

	t.db.rollback(t, t.root, tail)
	return nil
}

// Commit finishes the transaction, releasing every lock of its tree. With
// a durable WAL the call blocks until the commit record — and therefore,
// by prefix ordering, every record of the transaction — is on stable
// storage; locks are held across the wait (strictness), so no transaction
// reads effects whose commit could still be lost to a crash.
//
// In degraded read-only mode (poisoned WAL, see DB.Degraded) a commit that
// wrote anything is rejected with the sticky cause — its effects are
// rolled back exactly like an abort, so no unflushable change lingers in
// the buffer pool. Read-only transactions keep committing: they have
// nothing that needs to reach stable storage.
func (t *Txn) Commit() error {
	if t.refused {
		return ErrClosed
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	t.finished = true
	t.mu.Unlock()

	t.root.mu.Lock()
	hasWrites := t.root.hasWrites
	t.root.mu.Unlock()
	if cause := t.db.Degraded(); cause != nil {
		if hasWrites {
			return t.failCommit(fmt.Errorf("core: commit %s rejected, engine degraded: %w", t.id, cause))
		}
		// Read-only: commit without touching the poisoned durability path.
		t.db.wal.LogCommit(t.id)
		t.db.lm.ReleaseTree(t.id)
		t.finishCommitted()
		return nil
	}

	lsn := t.db.wal.LogCommit(t.id)
	// The group-commit span covers only the durability wait — with a
	// mem-only WAL WaitDurable is instant and there is no batch to report.
	var ws *span.ActiveSpan
	if t.tt != nil && t.db.wal.Durable() {
		ws = t.tt.BeginSpan(t.id+"/commit", t.id, span.KWAL, "group-commit wait")
	}
	err := t.db.wal.WaitDurable(lsn)
	if ws != nil {
		if bi, ok := t.db.wal.BatchInfo(lsn); ok {
			ws.SetN(int64(bi.Records))
			ws.SetNote("batch " + strconv.FormatInt(bi.ID, 10) + ", fsync " + bi.Fsync.String())
		}
		ws.End(err)
	}
	if err != nil {
		if errors.Is(err, storage.ErrWALPoisoned) {
			// fsyncgate: the WAL refused the flush and will refuse every
			// later one. Flip the engine read-only before anyone else logs a
			// commit they will wait on forever-in-vain.
			t.db.enterDegraded(err)
		}
		return t.failCommit(fmt.Errorf("core: commit %s not durable: %w", t.id, err))
	}
	t.db.lm.ReleaseTree(t.id)
	t.finishCommitted()
	return nil
}

// finishCommitted is the successful-commit epilogue: span status, stats,
// commit-latency histogram, flight-recorder event.
func (t *Txn) finishCommitted() {
	t.db.spans.FinishTxn(t.tt, span.StatusCommitted)
	t.db.stats.txnsCommitted.Add(1)
	elapsed := time.Since(t.began)
	t.db.obsCommitNs.ObserveDuration(elapsed)
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnCommit, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load()})
	t.noteSlow(elapsed, "committed")
}

// noteSlow is the slow-query hook shared by every finish path: lifetimes
// past Options.SlowTxnThreshold tick engine.slow_txns and land an
// EvTxnSlow event. The span trace itself (when sampled) is pinned by
// FinishTxn, which applies the same threshold tracer-side.
func (t *Txn) noteSlow(elapsed time.Duration, outcome string) {
	if t.db.slowThresh <= 0 || elapsed < t.db.slowThresh {
		return
	}
	t.db.obsSlowTxns.Inc()
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnSlow, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load(), Note: outcome})
}

// failCommit turns a rejected commit into a proper abort: the
// transaction's effects are rolled back (compensations and before-image
// restores, which need the still-held page locks), an abort record is
// logged, locks are released, and the abort is surfaced through spans,
// stats, and the flight recorder. Returns cause.
//
// The transaction is already marked finished; rollback compensations
// re-enter invoke, which refuses finished transactions, so the mark is
// lifted for the duration of the rollback.
func (t *Txn) failCommit(cause error) error {
	entries := t.root.takeUndo()
	if len(entries) > 0 {
		t.mu.Lock()
		t.finished = false
		t.mu.Unlock()
		t.db.rollback(t, t.root, entries)
		t.mu.Lock()
		t.finished = true
		t.mu.Unlock()
	}
	t.db.wal.LogAbort(t.id)
	t.db.lm.ReleaseTree(t.id)
	if t.tt != nil {
		// Span provenance: the trace shows WHY this transaction aborted — a
		// commit-stage rejection, not a conflict.
		cs := t.tt.BeginSpan(t.id+"/commit", t.id, span.KWAL, "commit rejected")
		cs.End(cause)
	}
	t.db.spans.FinishTxn(t.tt, span.StatusAborted)
	t.db.stats.txnsAborted.Add(1)
	elapsed := time.Since(t.began)
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnAbort, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load(), Note: cause.Error()})
	t.noteSlow(elapsed, "commit-rejected")
	return cause
}

// CompensateEntry executes one logical undo entry during restart recovery
// (internal/recovery). The compensating invocation runs in rollback mode:
// no inverse-of-the-inverse is queued, and the given WAL entry — the
// loser's surviving RecIntent — is folded into the compensation's own
// completion discard, so "compensation durable" and "intent consumed" are
// ONE log append. A recovery that crashes after the compensating
// subtransaction completed and reruns therefore skips the intent instead
// of compensating twice.
func (t *Txn) CompensateEntry(obj txn.OID, method string, params []string, entryLSN uint64) error {
	if t.refused {
		return ErrClosed
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	t.mu.Unlock()
	wasAborting := t.isAborting()
	t.setAborting(true)
	defer t.setAborting(wasAborting)
	t.db.wal.LogCompensation(t.root.id, obj.Name+"."+commut.Invocation{Method: method, Params: params}.String())
	t.setPendingEntry(entryLSN)
	_, err := t.db.invoke(t, t.root, obj, method, params, false)
	if pl := t.takePendingEntry(); pl != 0 && err == nil {
		// The compensating method's top action had no Compensate entry of
		// its own, so nothing consumed the intent — discard it now.
		t.db.wal.LogDiscard(cc.RootOf(t.root.id), []uint64{pl})
	}
	return err
}

// Abort rolls the transaction back: compensations and before-images run in
// reverse, then all locks are released. A transaction whose rollback needed
// logical compensation stays in the trace (expanded history); a purely
// physical rollback is erased from it.
func (t *Txn) Abort() error {
	if t.refused {
		return ErrClosed
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	t.mu.Unlock()

	entries := t.root.takeUndo()
	t.db.rollback(t, t.root, entries)

	t.mu.Lock()
	t.finished = true
	compensated := t.compensated
	t.mu.Unlock()

	t.db.wal.LogAbort(t.id)
	t.db.lm.ReleaseTree(t.id)
	t.db.spans.FinishTxn(t.tt, span.StatusAborted)
	t.db.stats.txnsAborted.Add(1)
	elapsed := time.Since(t.began)
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnAbort, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load()})
	t.noteSlow(elapsed, "aborted")
	if t.db.tracing && !compensated {
		t.db.rec.MarkAborted(t.id)
	}
	return nil
}
