package core

import (
	"errors"
	"fmt"
	"slices"
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

// runtimeAction is one executing action (subtransaction). Its record lives
// only as long as its top-level transaction: once the transaction has ended,
// the record is zeroed and reused by a later one (Txn.recycle). Nothing may
// keep a pointer to it past that point — not a trace (its dispatch spans are
// copied out at End), not the lock table (every grant and waiter naming
// &sem or &node is gone by then), not a method body (see Ctx).
type runtimeAction struct {
	parent *runtimeAction
	txn    *Txn
	// node is the action's place in its transaction's tree: its parent's
	// node and its child number, set before the action is dispatched. With
	// the transaction's id it names the action as a lock owner (owner),
	// and its hierarchical id is rendered from it only where something
	// reads the id (ActionID): a log record, a rollback, a contended lock's
	// span, the formal trace. The root's node is the tree's root.
	node cc.Node
	obj  txn.OID
	// sem.Inv is the invocation this action executes. Under open nesting
	// sem.Spec is set too, and sem is the semantic lock mode the caller
	// takes on obj: the lock table and the method span hold &sem, so the
	// mode is never boxed separately.
	sem cc.Semantic
	// args holds up to two call parameters, so sem.Inv.Params need not
	// keep the caller's slice.
	args [2]string
	// span is the dispatch's method span, recorded in place; its End copies
	// it into the trace, which keeps no pointer to the action.
	span span.Method
	// next links the transaction's records (Txn.actions), or a chain of
	// spare ones (Txn.free, actionPool).
	next *runtimeAction
	// guard catches a use of a recycled record in race builds.
	guard recycleGuard

	// hasWrites records that undo records were logged in this action's
	// subtree and not consumed there: a page write, an intent of a
	// completed child, or the records of a child that kept its locks.
	hasWrites atomic.Bool
	// nchildren is the number of children the action has dispatched
	// (guarded by txn.mu).
	nchildren int32
	// held lists every lock this action owns, under every protocol: the
	// handles of the grants acquireFor made in its name (the root's under
	// the flat protocols, the caller's under nesting), and the lists of
	// children that handed their locks up. Every release — early, of an
	// aborted subtree, of the root at the transaction's end — goes
	// straight to each handle instead of searching the lock table. A
	// handle may repeat (only a repeat of the last entry is skipped):
	// releasing it again is a no-op (DESIGN §4b.4). Guarded by txn.mu while
	// children run; final once the action's method returns. heldBuf backs
	// the first few; a longer list's array outlives the transaction
	// (reset).
	held    []*cc.Held
	heldBuf [4]*cc.Held
}

// owner names the action as a lock owner: a node of its transaction's
// tree. Comparing it renders nothing.
func (a *runtimeAction) owner() cc.Owner { return cc.NodeOwner(a.txn.id, &a.node) }

// logOwner names the action in a log record: by value, from the
// transaction's id and the node's child numbers, unless the path is too
// deep or wide to keep inline.
func (a *runtimeAction) logOwner() storage.Owner {
	if steps, depth, ok := a.node.Steps(); ok {
		return storage.PathOwner(a.txn.id, steps, depth)
	}
	return storage.ParseOwner(a.ActionID())
}

// ActionID renders the action's hierarchical id (cc.Requester): the
// transaction's id, then "." and each child number down to the action. The
// root's is the transaction's id and costs nothing; any other allocates
// the string on every call, so a caller that needs it twice keeps it.
func (a *runtimeAction) ActionID() string { return a.owner().String() }

// Dispatch names the action for its method span (span.Dispatch): its path
// of child numbers by value, which the trace renders only when it is read.
func (a *runtimeAction) Dispatch() (path span.Path, object, method string) {
	return a.node.Path(a.txn.id), a.obj.Name, a.sem.Inv.Method
}

// parentID returns the parent's id given the action's: the id up to its
// last child number.
func parentID(id string) string { return id[:strings.LastIndexByte(id, '.')] }

// hold appends granted locks to a's held list.
func (a *runtimeAction) hold(hs ...*cc.Held) {
	a.txn.mu.Lock()
	if a.held == nil {
		a.held = a.heldBuf[:0]
	}
	for _, h := range hs {
		if n := len(a.held); n == 0 || a.held[n-1] != h {
			a.held = append(a.held, h)
		}
	}
	a.txn.mu.Unlock()
}

// Txn is a top-level transaction.
type Txn struct {
	db  *DB
	id  string
	seq int64
	// root is the transaction's root action. It lives inside the Txn,
	// which callers keep after the end and nothing reuses, so it is never
	// recycled.
	root  runtimeAction
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

	// comp names the running compensation, if any: the child of
	// comp.under that executes intent comp.entry. While one runs,
	// compensation registrations are suppressed (a compensation's own
	// inverse must not be queued — it would undo the undo) and discards are
	// logged instead; its completion folds the intent into its discard
	// record, so "compensation durable" and "intent consumed" are one WAL
	// append.
	comp atomic.Pointer[pendingComp]

	// mu guards finished, compensated and savepoints, the child numbers
	// and held lists of the transaction's actions, and the record chains.
	mu       sync.Mutex
	finished bool
	// actions links the records of the transaction's non-root actions, and
	// free the spare records of the chain it took from actionPool; recycle
	// returns both when the transaction ends.
	actions, free *runtimeAction
	// inflight counts the dispatches running: a dispatch racing the
	// transaction's end (an Exec beside Commit) leaves recycle nothing to
	// reuse.
	inflight atomic.Int32
	// compensated records that logical compensations executed during this
	// transaction's rollback; such a transaction stays in the trace (its
	// history is expanded with the inverse operations).
	compensated bool
	// savepoints are the LSNs of the savepoints still valid, oldest first.
	savepoints []uint64
}

type pendingComp struct {
	under *runtimeAction
	entry atomic.Uint64
}

// compensating reports whether a compensation is running and hands the
// intent it executes to the compensation itself — the completing child of
// comp.under — once.
func (t *Txn) compensating(parent *runtimeAction) (running bool, entry uint64) {
	c := t.comp.Load()
	if c != nil && c.under == parent {
		entry = c.entry.Swap(0)
	}
	return c != nil, entry
}

// Begin starts a transaction. On a closed (or closing) engine it returns a
// refused transaction: every operation on it — Exec, Commit, Abort — fails
// with ErrClosed, and nothing is recorded in the WAL, stats or trace. The
// signature stays error-free for the embedded callers; network-facing
// paths gate on Admit/AdmitCtx, which reports ErrClosed directly.
func (db *DB) Begin() *Txn {
	if db.closedFlag.Load() {
		t := &Txn{db: db, id: "T-refused", refused: true}
		t.root.txn, t.root.obj = t, txn.SystemObject
		return t
	}
	n := db.txnSeq.Add(1)
	id := "T" + strconv.FormatInt(n, 10)
	t := &Txn{
		db:    db,
		id:    id,
		seq:   n,
		began: time.Now(),
	}
	t.root.txn, t.root.obj = t, txn.SystemObject
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

// Ctx is the execution context passed to method implementations: a view
// of the executing action. It is valid only during the call it is passed
// to: the action's record is reused once its transaction ends, so a method
// must neither keep the Ctx nor hand it to a goroutine that outlives the
// call (Parallel joins its branches before it returns).
type Ctx runtimeAction

func (c *Ctx) action() *runtimeAction {
	a := (*runtimeAction)(c)
	a.guard.check()
	return a
}

// DB returns the engine (for page allocation inside methods).
func (c *Ctx) DB() *DB { return c.action().txn.db }

// TxnID returns the enclosing top-level transaction id.
func (c *Ctx) TxnID() string { return c.action().txn.id }

// ActionID renders the current action's hierarchical id (each call
// renders it anew).
func (c *Ctx) ActionID() string { return c.action().ActionID() }

// Call invokes a method on an object as a sequential subtransaction of the
// current action.
func (c *Ctx) Call(obj txn.OID, method string, params ...string) (string, error) {
	a := c.action()
	return a.txn.db.invoke(a.txn, a, obj, method, params, false)
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
			results[i], errs[i] = c.txn.db.invoke(c.txn, c.action(), call.Obj, call.Method, call.Params, true)
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
	return t.db.invoke(t, &t.root, obj, method, params, false)
}

// ExecParallel runs top-level calls concurrently (intra-transaction
// parallelism: each call is its own process).
func (t *Txn) ExecParallel(calls []ParCall) ([]string, error) {
	return (*Ctx)(&t.root).Parallel(calls)
}

// invoke runs one method invocation as a subtransaction of parent. Its
// action record is reused from an earlier transaction, so the common path
// allocates nothing: up to two params are copied into the record (params
// itself must not escape, so Call's variadic slice stays on the caller's
// stack), and no action's id is rendered unless something reads it.
func (db *DB) invoke(t *Txn, parent *runtimeAction, obj txn.OID, method string, params []string, parallel bool) (string, error) {
	if t.refused {
		return "", ErrClosed
	}
	parent.guard.check()
	ot, known := db.types[obj.Type]
	// A page is named only canonically (PageID refuses an alias, which
	// would reach the frame under a lock on another resource).
	var pid storage.PageID
	var nameErr error
	if obj.Type == PageType {
		pid, nameErr = PageID(obj)
	}
	t.mu.Lock()
	switch {
	case t.finished:
		t.mu.Unlock()
		return "", ErrTxnFinished
	case !known:
		t.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrUnknownType, obj.Type)
	case nameErr != nil:
		t.mu.Unlock()
		return "", nameErr
	}
	parent.nchildren++
	n := parent.nchildren
	a := t.takeAction()
	t.inflight.Add(1)
	t.mu.Unlock()
	defer t.inflight.Add(-1)

	a.parent = parent
	a.txn = t
	a.node.SetChild(&parent.node, n)
	a.obj = obj
	a.sem.Inv.Method = method
	switch {
	case params == nil:
	case len(params) <= len(a.args):
		a.sem.Inv.Params = a.args[:copy(a.args[:], params)]
	default:
		a.sem.Inv.Params = slices.Clone(params)
	}
	db.stats.actions.Add(1)
	for {
		cur := t.maxDepth.Load()
		if d := int64(a.node.Depth()); d <= cur || t.maxDepth.CompareAndSwap(cur, d) {
			break
		}
	}

	// One span per method dispatch — the node of the paper's nested action
	// tree (Def. 2–4), recorded inside the action itself. Opened before lock
	// acquisition so a contended lock's span nests inside it.
	t.tt.BeginMethod(&a.span)

	if err := db.acquireFor(t, a, ot); err != nil {
		a.span.End(a, err)
		return "", err
	}

	if db.tracing && obj.Type != PageType {
		id := a.ActionID()
		db.rec.Record(trace.Event{
			ID:       id,
			Parent:   parentID(id),
			ObjType:  obj.Type,
			ObjName:  obj.Name,
			Method:   method,
			Params:   slices.Clone(a.sem.Inv.Params),
			Parallel: parallel,
		})
	}

	var result string
	var err error
	if obj.Type == PageType {
		result, err = db.pageOp(a, pid, parallel)
	} else {
		fn := ot.Methods[method]
		if fn == nil {
			err = fmt.Errorf("%w: %s.%s", ErrUnknownMethod, obj.Type, method)
		} else {
			result, err = fn((*Ctx)(a), obj, a.sem.Inv.Params)
		}
	}
	if err != nil {
		db.abortSubtree(t, a)
		a.span.End(a, err)
		return "", err
	}
	db.completeAction(t, a, ot, result)
	a.span.End(a, nil)
	return result, nil
}

// acquireFor takes the lock(s) the protocol prescribes before executing a.
// a's method span gets the commutativity class — the lock mode — the
// dispatch runs under; a contended acquire additionally records a KLock
// child span with provenance edges (AcquireOwner). The span keeps the mode
// itself; it is rendered only if the trace is read. A granted lock goes on
// the held list of the action that owns it, which every release of its
// locks walks; a failed acquire granted nothing, so there is nothing to
// list.
func (db *DB) acquireFor(t *Txn, a *runtimeAction, ot *ObjectType) error {
	var mode cc.Mode
	holder := &t.root
	switch db.protocol {
	case Protocol2PLPage:
		if a.obj.Type != PageType {
			return nil
		}
		mode = rwModeFor(ot, a.sem.Inv.Method)
	case Protocol2PLObject:
		mode = rwModeFor(ot, a.sem.Inv.Method)
	case ProtocolClosedNested:
		if a.obj.Type != PageType {
			return nil
		}
		// Moss: a subtransaction's locks pass to its parent when it
		// commits; ancestors' locks do not block (ancestor bypass is
		// enabled on the manager). A page access is primitive — it commits
		// as it returns, with no completion step to hand its lock up — so
		// the lock is taken in the caller's name, and the caller's own
		// commit passes it on (completeAction's handUp).
		mode, holder = rwModeFor(ot, a.sem.Inv.Method), a.parent
	case ProtocolOpenNested:
		// The semantic lock on the object is owned by the CALLER — the
		// transaction on this object in the paper's sense — and lives until
		// the caller completes.
		a.sem.Spec = ot.Spec
		mode, holder = &a.sem, a.parent
	default: // ProtocolNone
		return nil
	}
	a.span.SetMode(mode)
	h, err := db.lm.AcquireOwner(t.tt, a, holder.owner(), a.obj, mode)
	if err == nil {
		holder.hold(h)
	}
	return err
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
func (db *DB) pageOp(a *runtimeAction, pid storage.PageID, parallel bool) (string, error) {
	if db.ioDelay > 0 {
		time.Sleep(db.ioDelay)
	}
	frame, err := db.pool.FetchPage(pid)
	if err != nil {
		return "", err
	}
	defer db.pool.Unpin(frame)

	var id string // rendered for the formal trace
	record := func() {
		if db.tracing {
			if id == "" {
				id = a.ActionID()
			}
			db.rec.Record(trace.Event{
				ID:       id,
				Parent:   parentID(id),
				ObjType:  PageType,
				ObjName:  a.obj.Name,
				Method:   a.sem.Inv.Method,
				Params:   slices.Clone(a.sem.Inv.Params),
				Parallel: parallel,
			})
		}
	}

	switch a.sem.Inv.Method {
	case "read", "readx":
		frame.RLatch()
		data := frame.Data()
		record()
		frame.RUnlatch()
		db.stats.pageReads.Add(1)
		return data, nil
	case "write":
		if len(a.sem.Inv.Params) != 1 {
			return "", fmt.Errorf("core: page write needs exactly one parameter")
		}
		data := a.sem.Inv.Params[0]
		if len(data) > db.store.PageSize() {
			return "", storage.ErrPageTooLarge
		}
		// The WAL record is appended INSIDE the frame latch: eviction writes
		// a frame back under the same latch, so a flushed page change always
		// has its log record first (the WAL rule). The shared snapshot
		// barrier additionally keeps [frame change + log record] atomic with
		// respect to CrashImage. The record names the action by value.
		owner := a.logOwner()
		db.snapMu.RLock()
		frame.Latch()
		before := frame.Data()
		frame.SetData(data)
		record()
		db.wal.LogUpdate(owner, pid, before, data)
		frame.Unlatch()
		db.snapMu.RUnlock()
		a.parent.hasWrites.Store(true)
		db.stats.pageWrites.Add(1)
		return "", nil
	default:
		return "", fmt.Errorf("%w: page.%s", ErrUnknownMethod, a.sem.Inv.Method)
	}
}

// completeAction performs the protocol's subtransaction-commit bookkeeping.
// The action's undo records stay in the WAL, owned by its subtree; an
// intent or a discard consumes them, or the parent inherits them.
func (db *DB) completeAction(t *Txn, a *runtimeAction, ot *ObjectType, result string) {
	if a.obj.Type == PageType {
		// Page accesses are primitive; their updates were logged under
		// their own ids, in the parent's subtree, and their locks (2PL:
		// held by the root; closed and open: held by the parent) follow
		// the general rules below.
		return
	}
	parent := a.parent
	// A running compensation consumes, when it completes, its own records
	// and the intent it executes — whatever its method's undo.
	running, entry := t.compensating(parent)
	switch db.protocol {
	case ProtocolClosedNested:
		// The parent inherits the child's locks (and, transitively, those
		// of the child's completed descendants).
		db.handUp(a)
	case ProtocolOpenNested:
		if comp := ot.Compensate[a.sem.Inv.Method]; comp != nil {
			// The locks the subtransaction acquired underneath can be
			// released early: the invocation lock on a.obj (owned by
			// parent) continues to protect it.
			if m, cp, need := comp(a.sem.Inv.Params, result); need && !running {
				// The committed subtransaction is now undone logically: the
				// intent supersedes the subtree's records.
				db.wal.LogIntent(a.logOwner(), compensationNote(a.obj, m, cp))
				parent.hasWrites.Store(true)
			} else if entry != 0 || a.hasWrites.Load() {
				// Nothing to undo (a read-only call), or a compensation in
				// progress: no inverse-of-inverse, just consume what the
				// subtree logged and the intent a compensation executed.
				db.wal.LogDiscardUnder(a.logOwner(), entry)
			}
			db.release(a, a.held)
			return
		}
		if !a.hasWrites.Load() {
			// Read-only subtree: nothing to undo, release early.
			db.release(a, a.held)
			break
		}
		// No compensation available: behave closed — keep the locks (move
		// them to the parent, and with them the list naming them) and leave
		// the physical records to a later ancestor with a compensation, or
		// to the top-level abort while the locks are still held.
		db.handUp(a)
	}
	// Flat 2PL variants keep the locks on the root until commit. The parent
	// inherits the subtree's records, unless a running compensation
	// consumes them.
	if entry != 0 {
		db.wal.LogDiscardUnder(a.logOwner(), entry)
	} else if a.hasWrites.Load() {
		parent.hasWrites.Store(true)
	}
}

// release releases the locks on held, which a owns — a completed action's
// early release (open nesting), an aborted subtree's, the root's at the
// transaction's end: one single-shard ReleaseHeldOwner per handle.
func (db *DB) release(a *runtimeAction, held []*cc.Held) {
	owner := a.owner()
	for _, h := range held {
		db.lm.ReleaseHeldOwner(h, owner)
	}
}

// handUp passes a completed action's locks to its parent (closed nesting,
// and open nesting without a compensation): the grants on its handles
// change owner, and its list joins the parent's.
func (db *DB) handUp(a *runtimeAction) {
	db.lm.TransferOwner(a.held, a.owner(), a.parent.owner())
	a.parent.hold(a.held...)
}

// abortSubtree rolls back a failed action: logical compensations and
// physical before-images run in reverse order, then the subtree's locks
// are released. A purely physical rollback is erased from the trace; a
// rollback that executed compensations stays (the history is expanded with
// the inverse operations, as open-nesting theory prescribes).
func (db *DB) abortSubtree(t *Txn, a *runtimeAction) {
	owner := a.logOwner()
	compensated := db.rollback(t, a, owner, db.wal.LiveUndo(owner, 0))
	db.release(a, a.held)
	if db.tracing && !compensated {
		db.rec.MarkAborted(a.ActionID())
	}
}

// rollback undoes under's subtree — owner names under in the log, recs
// are its live undo records from the WAL, newest first — and reports
// whether any logical compensation ran. Compensations run as fresh subtransactions of under; physical
// records restore before-images directly (their page locks are still held
// by construction).
//
// Before compensating, the transaction's deadlock-victim mark is cleared:
// an aborting transaction must be able to acquire the locks its inverse
// operations need, and must not be re-victimized while undoing itself.
// Compensations that still fail transiently (deadlock with another
// compensator, timeout) are retried; open-nesting theory assumes
// compensations are total, so a persistent failure is logged as
// unrecoverable and the rollback goes on.
func (db *DB) rollback(t *Txn, under *runtimeAction, owner storage.Owner, recs []storage.Record) bool {
	compensated := false
	root := t.id
	// The compensator below never fails, so undo's error can only be an
	// intent note this engine did not encode.
	_, _, _ = db.undo(recs, owner, func(obj txn.OID, method string, params []string, entry uint64) error {
		if !compensated {
			db.lm.ClearDoomed(root)
			compensated = true
			t.mu.Lock()
			t.compensated = true
			t.mu.Unlock()
		}
		db.stats.compensations.Add(1)
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if err = t.compensate(under, owner, obj, method, params, entry); err == nil {
				return nil
			}
			db.lm.ClearDoomed(root)
			time.Sleep(time.Duration(attempt+1) * 200 * time.Microsecond)
		}
		db.wal.LogAbort(storage.ParseOwner(owner.String() + ":compensation-failed:" + err.Error()))
		return nil
	})
	return compensated
}

// undo is the one undo executor behind runtime rollback and restart
// recovery. recs are live undo records, newest first. A physical record
// gets its before-image back; a logical one (an intent) is decoded and run
// by compensate, with the intent's LSN — at runtime as a subtransaction of
// the aborting action (named by under), at restart (a zero under) as a
// committed transaction of its own. A runtime rollback goes on past a page
// it cannot fetch; restart stops at the first failure.
func (db *DB) undo(recs []storage.Record, under storage.Owner, compensate func(obj txn.OID, method string, params []string, entry uint64) error) (physical, logical int, err error) {
	restart := under == storage.Owner{}
	for _, r := range recs {
		if r.Kind == storage.RecUpdate {
			owner := r.Owner.Root() + ":recovery"
			if !restart {
				owner = under.String() + ":undo"
			}
			if err := db.restorePage(r, storage.ParseOwner(owner)); err != nil {
				if restart {
					return physical, logical, fmt.Errorf("core: physical undo of %s lsn %d: %w", r.Owner, r.LSN, err)
				}
				db.wal.LogAbort(storage.ParseOwner(under.String() + ":undo-fetch-failed"))
				continue
			}
			physical++
			continue
		}
		obj, method, params, err := DecodeCompensationNote(r.Note)
		if err == nil {
			err = compensate(obj, method, params, r.LSN)
		}
		if err != nil {
			return physical, logical, fmt.Errorf("core: logical undo of %s lsn %d: %w", r.Owner, r.LSN, err)
		}
		logical++
	}
	return physical, logical, nil
}

// restorePage applies one physical undo record: the before-image goes
// back as a redo-only CLR logged under owner, and a discard consumes the
// record (a rerun recovery skips it). Both are appended inside the frame
// latch and the snapshot barrier, so no crash image holds the restored
// page without them.
func (db *DB) restorePage(r storage.Record, owner storage.Owner) error {
	frame, err := db.pool.FetchPage(r.Page)
	if err != nil {
		return err
	}
	db.snapMu.RLock()
	frame.Latch()
	after := frame.Data()
	frame.SetData(r.Before)
	db.wal.LogCLRUpdate(owner, r.Page, after, r.Before)
	db.wal.LogDiscard(storage.ParseOwner(r.Owner.Root()), []uint64{r.LSN})
	frame.Unlatch()
	db.snapMu.RUnlock()
	db.pool.Unpin(frame)
	return nil
}

// compensate runs one compensating invocation as a subtransaction of
// under (named owner in the log), in rollback mode: no inverse-of-the-inverse is queued, and the
// compensating action's completion consumes the intent entry in its own
// discard. The previous mode is restored afterwards, so a rollback nested
// inside a compensation hands the outer intent back.
func (t *Txn) compensate(under *runtimeAction, owner storage.Owner, obj txn.OID, method string, params []string, entry uint64) error {
	c := &pendingComp{under: under}
	c.entry.Store(entry)
	saved := t.comp.Swap(c)
	t.db.wal.LogCompensation(owner, obj.Name+"."+commut.Invocation{Method: method, Params: params}.String())
	_, err := t.db.invoke(t, under, obj, method, params, false)
	t.comp.Store(saved)
	return err
}

// UndoLosers is restart recovery's undo: recs are the losers' live undo
// records, merged newest first. Each compensation runs as its own committed
// transaction (a nested top action): interleaved losers' compensations may
// conflict, so sharing transactions would deadlock the single-threaded
// sweep. A compensation's completion consumes the loser's intent, so a
// recovery that crashes after it and reruns does not compensate twice.
func (db *DB) UndoLosers(recs []storage.Record) (physical, logical int, err error) {
	return db.undo(recs, storage.Owner{}, func(obj txn.OID, method string, params []string, entry uint64) error {
		tx := db.Begin()
		if err := tx.compensate(&tx.root, tx.root.logOwner(), obj, method, params, entry); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	})
}

// compensationNote encodes a pending inverse operation for the WAL so
// recovery can replay it: "type\x1fname\x1fmethod\x1fp1\x1fp2...".
func compensationNote(obj txn.OID, method string, params []string) string {
	var fields [8]string // on the stack: the note is Join's one allocation
	return strings.Join(append(append(fields[:0], obj.Type, obj.Name, method), params...), unitSep)
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

// Savepoint marks a point in the transaction that RollbackTo can return
// to: the log position when it was taken. Savepoints cover work performed
// through Exec on the transaction's main line; they do not span
// still-running parallel branches.
type Savepoint struct {
	txn *Txn
	lsn uint64
}

// Savepoint records the current rollback position.
func (t *Txn) Savepoint() Savepoint {
	lsn := t.db.wal.LastLSN()
	t.mu.Lock()
	t.savepoints = append(t.savepoints, lsn)
	t.mu.Unlock()
	return Savepoint{txn: t, lsn: lsn}
}

// RollbackTo undoes everything after the savepoint — the transaction's
// live undo records above its LSN, physical restores and logical
// compensations newest first. Locks acquired since the savepoint are
// retained (the standard savepoint semantics: isolation never shrinks
// mid-transaction). Later savepoints become invalid.
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
	i := slices.Index(t.savepoints, sp.lsn)
	if i < 0 {
		t.mu.Unlock()
		return fmt.Errorf("core: savepoint invalidated by an earlier rollback")
	}
	t.savepoints = t.savepoints[:i+1]
	t.mu.Unlock()

	owner := t.root.logOwner()
	t.db.rollback(t, &t.root, owner, t.db.wal.LiveUndo(owner, sp.lsn))
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

	if cause := t.db.Degraded(); cause != nil {
		if t.root.hasWrites.Load() {
			return t.failCommit(fmt.Errorf("core: commit %s rejected, engine degraded: %w", t.id, cause), t.db.wal.LiveUndo(t.root.logOwner(), 0))
		}
		// Read-only: commit without touching the poisoned durability path.
		t.db.wal.LogCommit(t.root.logOwner())
		t.releaseLocks()
		t.finishCommitted()
		return nil
	}

	lsn, undo := t.db.wal.Commit(t.root.logOwner())
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
		err = t.failCommit(fmt.Errorf("core: commit %s not durable: %w", t.id, err), undo.Records())
		undo.Release()
		return err
	}
	undo.Release()
	t.releaseLocks()
	t.finishCommitted()
	return nil
}

// releaseLocks releases every lock of the transaction's tree — by its end
// they are all on the root's list, which ExecParallel branches append to
// under t.mu — and drops its detector state.
func (t *Txn) releaseLocks() {
	t.mu.Lock()
	held := t.root.held
	t.mu.Unlock()
	t.db.release(&t.root, held)
	t.db.lm.Forget(t.id)
}

// finishCommitted is the successful-commit epilogue: span status, stats,
// commit-latency histogram, flight-recorder event, and the action records
// returned for reuse.
func (t *Txn) finishCommitted() {
	t.db.spans.FinishTxn(t.tt, span.StatusCommitted)
	t.db.stats.txnsCommitted.Add(1)
	elapsed := time.Since(t.began)
	t.db.obsCommitNs.ObserveDuration(elapsed)
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnCommit, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load()})
	t.noteSlow(elapsed, "committed")
	t.recycle()
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

// failCommit turns a rejected commit into a proper abort of the
// transaction's effects — undo, its live undo records, newest first — and
// returns cause. The transaction is already marked finished; rollback
// compensations re-enter invoke, which refuses finished transactions, so
// the mark is lifted until the rollback is done.
func (t *Txn) failCommit(cause error, undo []storage.Record) error {
	t.mu.Lock()
	t.finished = false
	t.mu.Unlock()
	t.abort(undo, cause)
	return cause
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
	t.abort(t.db.wal.LiveUndo(t.root.logOwner(), 0), nil)
	return nil
}

// abort rolls undo back (the transaction's live undo records, newest
// first; the still-held page locks cover the before-image restores), logs
// the abort, releases the locks, surfaces the outcome through spans, stats
// and the flight recorder, and returns the action records for reuse. cause
// is the rejection of a failed commit, nil for Abort.
func (t *Txn) abort(undo []storage.Record, cause error) {
	owner := t.root.logOwner()
	t.db.rollback(t, &t.root, owner, undo)
	t.mu.Lock()
	t.finished = true
	compensated := t.compensated
	t.mu.Unlock()

	t.db.wal.LogAbort(owner)
	t.releaseLocks()
	outcome, note := "aborted", ""
	if cause != nil {
		// Span provenance: the trace shows WHY this transaction aborted — a
		// commit-stage rejection, not a conflict.
		t.tt.BeginSpan(t.id+"/commit", t.id, span.KWAL, "commit rejected").End(cause)
		outcome, note = "commit-rejected", cause.Error()
	}
	t.db.spans.FinishTxn(t.tt, span.StatusAborted)
	t.db.stats.txnsAborted.Add(1)
	elapsed := time.Since(t.began)
	t.db.obsRec.Record(obs.Event{Kind: obs.EvTxnAbort, Actor: t.id,
		Dur: elapsed, N: t.maxDepth.Load(), Note: note})
	t.noteSlow(elapsed, outcome)
	if t.db.tracing && !compensated && cause == nil {
		t.db.rec.MarkAborted(t.id)
	}
	t.recycle()
}
