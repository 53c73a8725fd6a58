// Package core is the transaction engine of the reproduction: a VODAK-style
// object-oriented database kernel in which every database access is a
// method invocation on an encapsulated object, every invocation runs as a
// subtransaction of its caller (open nesting), and isolation is enforced by
// a pluggable protocol:
//
//   - ProtocolNone        — no isolation; used to demonstrate that the
//     offline checker (internal/sched) catches the resulting anomalies.
//   - Protocol2PLPage     — conventional strict two-phase locking at page
//     granularity, owned by the top-level transaction (the baseline the
//     paper compares against).
//   - Protocol2PLObject   — strict 2PL on every touched object, the
//     "lock the whole document" strawman of the paper's introduction.
//   - ProtocolClosedNested — Moss-style closed nesting: page locks owned by
//     subtransactions with ancestor bypass, inherited upward on subcommit,
//     all held to top-level commit.
//   - ProtocolOpenNested  — the paper's model: semantic locks per object
//     (compatibility = commutativity, Definition 9) owned by the calling
//     action and released when the caller completes; sub-locks released at
//     subtransaction commit where a compensation is available, transferred
//     upward (closed behaviour) where not; aborts run compensations in
//     reverse.
//
// Every dispatch is recorded by internal/trace, so any run can be validated
// offline against the paper's Definitions 6-16 via (*DB).Validate.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/checkpoint"
	"repro/internal/commut"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
)

// PageType is the object type name of the built-in page objects — the
// paper's zero layer.
const PageType = "page"

// Engine errors.
var (
	ErrUnknownType    = errors.New("core: unknown object type")
	ErrUnknownMethod  = errors.New("core: unknown method")
	ErrTxnFinished    = errors.New("core: transaction already finished")
	ErrAborted        = errors.New("core: transaction aborted")
	ErrNoCompensation = errors.New("core: abort impossible, effects lack compensation")
	// ErrOverloaded is returned when admission control (Options.MaxInflight)
	// could not grant an in-flight transaction slot within the admission
	// timeout. It is terminal for RunWithRetry: retrying immediately would
	// only deepen the overload.
	ErrOverloaded = errors.New("core: too many in-flight transactions")
	// ErrClosed is returned by Begin, Admit and transaction operations once
	// DB.Close has started: a closing engine refuses new work so the WAL can
	// be flushed and closed under no concurrent appender.
	ErrClosed = errors.New("core: database closed")
)

// ProtocolKind selects the concurrency-control protocol.
type ProtocolKind int

// The protocols. ProtocolOpenNested is the zero value: an Options struct
// that does not name a protocol gets the paper's model.
const (
	ProtocolOpenNested ProtocolKind = iota
	Protocol2PLPage
	Protocol2PLObject
	ProtocolClosedNested
	ProtocolNone
)

func (p ProtocolKind) String() string {
	switch p {
	case ProtocolNone:
		return "none"
	case Protocol2PLPage:
		return "2pl-page"
	case Protocol2PLObject:
		return "2pl-object"
	case ProtocolClosedNested:
		return "closed-nested"
	case ProtocolOpenNested:
		return "open-nested"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// MethodFunc implements one method of an object type. It may call further
// methods through the context; the engine wraps every such call in a
// subtransaction.
type MethodFunc func(c *Ctx, self txn.OID, params []string) (string, error)

// CompensateFunc produces the inverse operation for a committed invocation
// (open nesting): given the forward parameters and result, it returns the
// compensating method and parameters, or ok=false when no compensation is
// required (the invocation had no effects).
type CompensateFunc func(params []string, result string) (method string, cparams []string, ok bool)

// ObjectType describes a registered object type: its commutativity
// specification (Definition 9), method implementations, which methods are
// read-only (lock mode S under 2PL-object), and per-method compensations.
type ObjectType struct {
	Name       string
	Spec       commut.Spec
	Methods    map[string]MethodFunc
	ReadOnly   map[string]bool
	Compensate map[string]CompensateFunc
}

// Stats are engine-level counters.
type Stats struct {
	TxnsStarted   int64
	TxnsCommitted int64
	TxnsAborted   int64
	Actions       int64
	PageReads     int64
	PageWrites    int64
	Compensations int64
}

// Plus returns the field-wise sum of two Stats snapshots — the
// aggregation a partitioned deployment (internal/partition) reports
// cluster-wide: every field is a monotonic counter, so sums across
// independent engines stay meaningful.
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		TxnsStarted:   s.TxnsStarted + o.TxnsStarted,
		TxnsCommitted: s.TxnsCommitted + o.TxnsCommitted,
		TxnsAborted:   s.TxnsAborted + o.TxnsAborted,
		Actions:       s.Actions + o.Actions,
		PageReads:     s.PageReads + o.PageReads,
		PageWrites:    s.PageWrites + o.PageWrites,
		Compensations: s.Compensations + o.Compensations,
	}
}

// DB is the database engine.
type DB struct {
	protocol ProtocolKind

	types    map[string]*ObjectType
	registry *commut.Registry

	lm    *cc.LockManager
	store *storage.MemStore
	pool  *storage.BufferPool
	wal   *storage.WAL
	rec   *trace.Recorder

	// snapMu is the crash-snapshot barrier: every multi-step mutation that
	// must appear atomic in a (disk, log) pair — a page write plus its WAL
	// record, a rollback restore plus its CLR and discard — holds it shared;
	// CrashImage holds it exclusively while cloning BOTH the store and the
	// WAL. Without the barrier a commit interleaving between the two clones
	// could yield a pair no real crash can produce.
	snapMu sync.RWMutex

	tracing bool
	ioDelay time.Duration
	txnSeq  atomic.Int64

	// Observability. obs is the registry every subsystem publishes into
	// (nil when Options.DisableObs); the handles below are nil-safe, so the
	// transaction hot path carries no enabled/disabled branches.
	obs         *obs.Registry
	obsRec      *obs.FlightRecorder
	obsCommitNs *obs.Histogram // begin → durable-commit latency
	obsSlowTxns *obs.Counter   // lifetimes past Options.SlowTxnThreshold
	slowThresh  time.Duration  // 0 disables slow-transaction marking

	// spans is the per-transaction span tracer (nil when Options.DisableSpans
	// or an unsampled transaction; every handle is nil-receiver safe).
	spans *span.Tracer

	// Degraded read-only mode (the fsyncgate policy): once the durable WAL
	// is poisoned the engine stops accepting commits that wrote anything.
	// The flag is the hot-path check (one atomic load per commit); the cause
	// behind it is guarded by degradedMu.
	degradedFlag atomic.Bool
	degradedMu   sync.Mutex
	degradedErr  error

	// Admission control: admit is a counting semaphore of in-flight
	// top-level transactions (nil = unbounded), admitTimeout how long an
	// arriving transaction queues before giving up with ErrOverloaded.
	admit        chan struct{}
	admitTimeout time.Duration

	// Close lifecycle. closedFlag is the lock-free "refuse new work" gate;
	// closeGate orders admission grants against Close: a grant registers in
	// admitted under the read lock with the flag still false, so it strictly
	// happens-before Close's write-locked flag flip — and therefore before
	// Close's admitted.Wait. Grants that lose the race observe the flag and
	// back out with ErrClosed. closeOnce/closeDone/closeErr make Close
	// idempotent: every caller (including concurrent ones) waits for the one
	// real close and gets its result.
	closeGate  sync.RWMutex
	closedFlag atomic.Bool
	admitted   sync.WaitGroup
	closeOnce  sync.Once
	closeDone  chan struct{}
	closeErr   error

	// Checkpointing (durable engines only): walFile is the segment-backed
	// sink the checkpointer truncates; ckpt is the attached checkpointer
	// (see internal/core/checkpoint.go).
	walFile *storage.FileWAL
	ckpt    *checkpoint.Checkpointer

	obsDegraded  *obs.Gauge   // engine.degraded: 0 healthy, 1 read-only
	obsInflight  *obs.Gauge   // engine.inflight: admitted transactions
	obsOverloads *obs.Counter // engine.overloads: admission timeouts

	stats struct {
		txnsStarted, txnsCommitted, txnsAborted atomic.Int64
		actions, pageReads, pageWrites          atomic.Int64
		compensations                           atomic.Int64
	}
}

// Options configure Open.
type Options struct {
	// Protocol selects the concurrency control protocol (default
	// ProtocolOpenNested).
	Protocol ProtocolKind
	// PageSize bounds page payloads (default storage.DefaultPageSize).
	PageSize int
	// PoolCapacity is the buffer pool size in frames (default 1024).
	PoolCapacity int
	// LockTimeout bounds lock waits as a backstop; 0 means the cc default
	// of no bound. Deadlocks are detected regardless.
	LockTimeout time.Duration
	// DisableTrace turns off trace recording (benchmarks that do not
	// validate can avoid the overhead).
	DisableTrace bool
	// PageIODelay simulates page I/O latency: every page access sleeps this
	// long before touching the frame. Besides making throughput numbers
	// reflect lock-hold times rather than in-memory speed, the sleep forces
	// goroutine interleaving on machines with few CPUs, so concurrent
	// workloads actually overlap.
	PageIODelay time.Duration
	// FairLocks enables FIFO lock fairness: conflicting requests are
	// served in arrival order, so streams of commuting operations cannot
	// starve a conflicting one.
	FairLocks bool
	// Store and WAL, when non-nil, attach the engine to an existing disk
	// image and log instead of fresh ones — the restart path of crash
	// recovery (internal/recovery).
	Store *storage.MemStore
	WAL   *storage.WAL
	// Durability selects how the WAL reaches stable storage (default
	// storage.MemOnly: the log lives in memory, crash recovery works from
	// CrashImage snapshots). SyncOnCommit and GroupCommit require a file
	// backing: use OpenDurable (fresh WALDir) or recovery.RecoverDir
	// (restart), which attach the segment files.
	Durability storage.Durability
	// WALDir is the segment-file directory for OpenDurable/RecoverDir.
	WALDir string
	// WALSegmentSize overrides the segment rotation threshold in bytes
	// (default storage.DefaultSegmentSize).
	WALSegmentSize int64
	// CheckpointInterval, when > 0, takes a fuzzy checkpoint (page image +
	// barrier LSN + in-flight set) every interval and truncates WAL
	// segments the image supersedes. Durable modes only (OpenDurable /
	// recovery.RecoverDir); manual DB.Checkpoint works regardless of the
	// triggers.
	CheckpointInterval time.Duration
	// CheckpointBytes, when > 0, additionally triggers a checkpoint every
	// time that many bytes of WAL records have been appended since the
	// last one. Combines with CheckpointInterval (whichever fires first).
	CheckpointBytes int64
	// Obs, when non-nil, is the observability registry the engine and every
	// subsystem (lock manager, buffer pool, WAL) publish metrics and flight
	// recorder events into. When nil, Open creates a fresh one unless
	// DisableObs is set. Sharing one registry across sequential engines (a
	// protocol sweep) is supported: snapshot functions re-publish under the
	// same names and follow the live engine.
	Obs *obs.Registry
	// DisableObs turns the observability layer off entirely: no registry is
	// created, DB.Obs returns nil, and instrumented code paths degrade to
	// nil-receiver no-ops.
	DisableObs bool
	// Tracer, when non-nil, is the span tracer recording one span tree per
	// top-level transaction (method dispatches, contended lock waits with
	// provenance edges, group-commit participation). When nil, Open creates
	// a fresh one unless DisableSpans is set. Like Obs, one tracer may be
	// shared across sequential engines.
	Tracer *span.Tracer
	// DisableSpans turns span tracing off entirely: DB.Spans returns nil and
	// every recording site degrades to a nil-receiver no-op.
	DisableSpans bool
	// SpanSampleEvery samples one in every N top-level transactions when
	// Open creates the tracer itself (0 or 1 traces everything). Ignored
	// when Tracer is supplied.
	SpanSampleEvery int
	// SlowTxnThreshold, when > 0, marks any top-level transaction whose
	// begin→finish lifetime crosses it as slow: an engine.slow_txns counter
	// tick, an EvTxnSlow flight-recorder event, and — for sampled
	// transactions — the span trace is pinned in the tracer's slow-query
	// ring so /trace/slow can replay it after the abort/done rings churn.
	SlowTxnThreshold time.Duration
	// MaxInflight bounds the number of concurrently admitted top-level
	// transactions (0 = unbounded). Arrivals beyond the bound queue for up
	// to AdmissionTimeout and then fail with ErrOverloaded. Admission is
	// enforced by Admit/RunWithRetry, not by Begin itself: internal
	// transactions (recovery, compensations) must never be refused.
	MaxInflight int
	// AdmissionTimeout is how long an arriving transaction may queue for an
	// in-flight slot (default 1s; only meaningful with MaxInflight > 0).
	AdmissionTimeout time.Duration
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.PoolCapacity == 0 {
		opts.PoolCapacity = 1024
	}
	reg := opts.Obs
	if reg == nil && !opts.DisableObs {
		reg = obs.New()
	}
	spans := opts.Tracer
	if spans == nil && !opts.DisableSpans {
		spans = span.NewTracer(span.Options{
			SampleEvery:   opts.SpanSampleEvery,
			SlowThreshold: opts.SlowTxnThreshold,
		})
	} else if opts.SlowTxnThreshold > 0 {
		spans.SetSlowThreshold(opts.SlowTxnThreshold)
	}
	var lmOpts []cc.Option
	if reg != nil {
		lmOpts = append(lmOpts, cc.WithObs(reg))
	}
	if opts.LockTimeout > 0 {
		lmOpts = append(lmOpts, cc.WithWaitTimeout(opts.LockTimeout))
	}
	if opts.FairLocks {
		lmOpts = append(lmOpts, cc.WithFairness())
	}
	store := opts.Store
	if store == nil {
		store = storage.NewMemStore(opts.PageSize)
	}
	wal := opts.WAL
	if wal == nil {
		wal = storage.NewWAL()
	}
	db := &DB{
		protocol:  opts.Protocol,
		types:     make(map[string]*ObjectType),
		registry:  commut.NewRegistry(),
		lm:        cc.NewLockManager(lmOpts...),
		store:     store,
		pool:      storage.NewBufferPool(store, opts.PoolCapacity),
		wal:       wal,
		rec:       trace.NewRecorder(),
		tracing:   !opts.DisableTrace,
		ioDelay:   opts.PageIODelay,
		closeDone: make(chan struct{}),
	}
	db.obs = reg
	db.obsRec = reg.Recorder()
	db.obsCommitNs = reg.Histogram("txn.commit_ns", obs.LatencyBounds())
	db.obsSlowTxns = reg.Counter("engine.slow_txns")
	db.slowThresh = opts.SlowTxnThreshold
	db.obsDegraded = reg.Gauge("engine.degraded")
	db.obsInflight = reg.Gauge("engine.inflight")
	db.obsOverloads = reg.Counter("engine.overloads")
	db.pool.SetObs(reg)
	reg.PublishFunc("engine", func() any { return db.Stats() })
	reg.PublishFunc("health", func() any { return db.Health() })
	if opts.MaxInflight > 0 {
		db.admit = make(chan struct{}, opts.MaxInflight)
		db.admitTimeout = opts.AdmissionTimeout
		if db.admitTimeout <= 0 {
			db.admitTimeout = time.Second
		}
	}
	db.spans = spans
	db.pool.SetSpans(spans)
	if spans != nil {
		// Export the trace endpoints through the engine's obs HTTP server.
		reg.Handle("/trace", spans.Handler())
	}
	// The built-in page type. Besides the classical read/write pair it
	// offers readx, a read with write intent (SELECT FOR UPDATE): it locks
	// exclusively so a read-modify-write subtransaction never needs the
	// deadlock-prone S→X upgrade.
	db.types[PageType] = &ObjectType{
		Name:     PageType,
		Spec:     PageSpec(),
		ReadOnly: map[string]bool{"read": true},
	}
	db.registry.Register(PageType, PageSpec())
	return db
}

// OpenDurable opens a database whose WAL is backed by segment files in
// opts.WALDir (created if missing), with opts.Durability selecting
// per-commit fsync or group commit. It refuses a directory that already
// holds log records — restarting over an existing log needs redo and undo,
// which is recovery.RecoverDir's job.
func OpenDurable(opts Options) (*DB, error) {
	if opts.Durability == storage.MemOnly {
		return nil, fmt.Errorf("core: OpenDurable needs Durability sync-on-commit or group-commit")
	}
	if opts.WALDir == "" {
		return nil, fmt.Errorf("core: OpenDurable needs a WALDir")
	}
	if opts.WAL != nil {
		return nil, fmt.Errorf("core: OpenDurable builds the WAL itself; Options.WAL must be nil")
	}
	fw, err := storage.OpenFileWAL(opts.WALDir, storage.FileWALOptions{
		SegmentSize: opts.WALSegmentSize,
		Durability:  opts.Durability,
	}, func(rec storage.Record) error {
		return fmt.Errorf("core: WAL dir %s holds records from LSN %d on; use recovery.RecoverDir to restart over an existing log", opts.WALDir, rec.LSN)
	})
	if err != nil {
		return nil, err
	}
	// A directory with no log records but leftover checkpoint files is
	// still a restart (the log may have been truncated down to an empty
	// tail); only RecoverDir knows how to seed from the checkpoint image.
	if infos, err := checkpoint.Scan(opts.WALDir); err != nil {
		_ = fw.Close()
		return nil, err
	} else if len(infos) > 0 {
		_ = fw.Close()
		return nil, fmt.Errorf("core: WAL dir %s holds %d checkpoint file(s); use recovery.RecoverDir to restart over them", opts.WALDir, len(infos))
	}
	// Create the registry up front (unless disabled) so the file WAL can
	// publish into the same one the engine will use.
	if opts.Obs == nil && !opts.DisableObs {
		opts.Obs = obs.New()
	}
	fw.SetObs(opts.Obs)
	wal := storage.NewWAL()
	wal.SetSink(fw)
	opts.WAL = wal
	db := Open(opts)
	db.EnableCheckpoints(fw, opts.CheckpointInterval, opts.CheckpointBytes)
	return db, nil
}

// Close shuts the engine down: it refuses new admissions and transactions
// (typed ErrClosed), drains the in-flight admissions already granted,
// retires the checkpointer's background loop (if any), then flushes and
// closes the WAL's durable backing. Close is idempotent and safe against
// concurrent use — every caller blocks until the one real close finishes
// and receives its result. Transactions begun without an admission slot
// are not waited for; long-lived callers (the network server, workload
// drivers) hold a slot per logical transaction via Admit/RunWithRetry,
// which is exactly what the drain covers.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		db.closeGate.Lock()
		db.closedFlag.Store(true)
		db.closeGate.Unlock()
		db.admitted.Wait()
		if db.ckpt != nil {
			db.ckpt.Stop()
		}
		db.closeErr = db.wal.Close()
		close(db.closeDone)
	})
	<-db.closeDone
	return db.closeErr
}

// Closed reports whether Close has started. New work is refused from that
// point on; in-flight admitted transactions drain normally.
func (db *DB) Closed() bool { return db.closedFlag.Load() }

// BumpTxnSeq raises the transaction-id sequence so new transactions get
// ids strictly greater than n. Restart recovery calls it with the highest
// id found in the log: ids must stay unique across the log's whole
// multi-epoch history, or analysis would mistake a previous incarnation's
// committed T<n> for the crashed epoch's in-flight T<n> and redo its
// effects without undo.
func (db *DB) BumpTxnSeq(n int64) {
	for {
		cur := db.txnSeq.Load()
		if cur >= n || db.txnSeq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// PageSpec is the commutativity specification of the built-in page type:
// read/read commutes, everything involving write or readx conflicts.
func PageSpec() *commut.Matrix {
	return commut.NewMatrix().
		SetCommutes("read", "read").
		SetConflicts("read", "write").
		SetConflicts("write", "write").
		SetConflicts("readx", "read").
		SetConflicts("readx", "readx").
		SetConflicts("readx", "write")
}

// Protocol returns the configured protocol.
func (db *DB) Protocol() ProtocolKind { return db.protocol }

// RegisterType installs an object type. Registering PageType or an already
// registered name fails.
func (db *DB) RegisterType(t *ObjectType) error {
	if t.Name == "" {
		return fmt.Errorf("core: object type needs a name")
	}
	if _, dup := db.types[t.Name]; dup {
		return fmt.Errorf("core: object type %q already registered", t.Name)
	}
	if t.Spec == nil {
		t.Spec = commut.Conservative{}
	}
	db.types[t.Name] = t
	db.registry.Register(t.Name, t.Spec)
	return nil
}

// Registry returns the commutativity registry assembled from the
// registered types — the one the offline checker needs.
func (db *DB) Registry() *commut.Registry { return db.registry }

// LockStats returns the lock manager counters.
func (db *DB) LockStats() cc.Stats { return db.lm.Snapshot() }

// Obs returns the engine's observability registry (nil when Options
// disabled it). Tools serve it over HTTP (obs.Registry.Serve) or dump its
// flight recorder on failures.
func (db *DB) Obs() *obs.Registry { return db.obs }

// Spans returns the engine's span tracer (nil when Options disabled it).
func (db *DB) Spans() *span.Tracer { return db.spans }

// Stats returns the engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		TxnsStarted:   db.stats.txnsStarted.Load(),
		TxnsCommitted: db.stats.txnsCommitted.Load(),
		TxnsAborted:   db.stats.txnsAborted.Load(),
		Actions:       db.stats.actions.Load(),
		PageReads:     db.stats.pageReads.Load(),
		PageWrites:    db.stats.pageWrites.Load(),
		Compensations: db.stats.compensations.Load(),
	}
}

// Health is the engine's liveness snapshot, published as the "health"
// metric: whether the engine is degraded (read-only) and why, plus the
// admission-control picture.
type Health struct {
	Degraded      bool   `json:"degraded"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	Inflight      int64  `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`
	Overloads     int64  `json:"overloads"`
}

// Merge folds another engine's health into this snapshot — the
// cluster-level view of a partitioned deployment. Admission figures sum
// (each partition runs its own controller); degradation is sticky across
// the cluster, first cause wins, so a single poisoned partition surfaces
// at the top level.
func (h Health) Merge(o Health) Health {
	h.Inflight += o.Inflight
	h.MaxInflight += o.MaxInflight
	h.Overloads += o.Overloads
	if o.Degraded && !h.Degraded {
		h.Degraded = true
		h.DegradedCause = o.DegradedCause
	}
	return h
}

// Health returns the current health snapshot.
func (db *DB) Health() Health {
	h := Health{
		Inflight:    db.obsInflight.Load(),
		MaxInflight: cap(db.admit),
		Overloads:   db.obsOverloads.Load(),
	}
	if cause := db.Degraded(); cause != nil {
		h.Degraded = true
		h.DegradedCause = cause.Error()
	}
	return h
}

// Degraded returns the sticky cause that flipped the engine read-only
// (wrapping storage.ErrWALPoisoned), or nil while the engine is healthy.
// Once non-nil it stays non-nil: the only way out is a restart through
// recovery, exactly like a poisoned WAL.
func (db *DB) Degraded() error {
	if !db.degradedFlag.Load() {
		return nil
	}
	db.degradedMu.Lock()
	defer db.degradedMu.Unlock()
	return db.degradedErr
}

// enterDegraded flips the engine into read-only degraded mode (first cause
// wins) and surfaces the transition through the gauge and the flight
// recorder.
func (db *DB) enterDegraded(cause error) {
	db.degradedMu.Lock()
	if db.degradedErr != nil {
		db.degradedMu.Unlock()
		return
	}
	db.degradedErr = cause
	db.degradedMu.Unlock()
	db.degradedFlag.Store(true)
	db.obsDegraded.Set(1)
	db.obsRec.Record(obs.Event{Kind: obs.EvDegraded, Note: cause.Error()})
}

// Admit reserves an in-flight transaction slot, blocking up to the
// admission timeout when MaxInflight transactions are already running. It
// returns a release function the caller must invoke exactly once when the
// transaction (including all its retries) is done. Without MaxInflight the
// slot is free and the call only fails on a closed engine.
func (db *DB) Admit() (release func(), err error) {
	return db.AdmitCtx(context.Background())
}

// AdmitCtx is Admit with caller-side cancellation: a waiter parked in the
// admission queue unblocks as soon as ctx is done — the network server
// cancels a session's context on disconnect, so a dead client cannot hold
// its goroutine (and, transitively, a queue position) for the full
// admission timeout. The three failure modes stay distinct: a cancelled
// wait wraps ctx.Err(), a timed-out wait wraps ErrOverloaded, and a
// closing engine returns ErrClosed.
func (db *DB) AdmitCtx(ctx context.Context) (release func(), err error) {
	if err := db.AdmitSlot(ctx); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(db.ReleaseSlot) }, nil
}

// AdmitSlot is AdmitCtx without the release closure, so it allocates
// nothing: the caller gives the slot back with exactly one ReleaseSlot and
// keeps its own guard against a second call (the network server keeps the
// admitting engine in its session and clears it on release).
func (db *DB) AdmitSlot(ctx context.Context) error {
	if db.closedFlag.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: admission cancelled: %w", err)
	}
	if db.admit != nil {
		select {
		case db.admit <- struct{}{}:
		default:
			timer := time.NewTimer(db.admitTimeout)
			defer timer.Stop()
			select {
			case db.admit <- struct{}{}:
			case <-ctx.Done():
				return fmt.Errorf("core: admission cancelled: %w", ctx.Err())
			case <-timer.C:
				db.obsOverloads.Inc()
				db.obsRec.Record(obs.Event{Kind: obs.EvOverload,
					Note: fmt.Sprintf("admission queue full after %v", db.admitTimeout)})
				return fmt.Errorf("%w: %d in flight, queued %v", ErrOverloaded, cap(db.admit), db.admitTimeout)
			}
		}
	}
	// Register the grant against Close's drain barrier: under the read lock
	// with the flag still false the registration happens-before Close's
	// flag flip and therefore before its admitted.Wait; a grant that lost
	// the race backs out and is refused.
	db.closeGate.RLock()
	if db.closedFlag.Load() {
		db.closeGate.RUnlock()
		if db.admit != nil {
			<-db.admit
		}
		return ErrClosed
	}
	db.admitted.Add(1)
	db.obsInflight.Add(1)
	db.closeGate.RUnlock()
	return nil
}

// ReleaseSlot gives back a slot AdmitSlot granted.
func (db *DB) ReleaseSlot() {
	db.obsInflight.Add(-1)
	if db.admit != nil {
		<-db.admit
	}
	db.admitted.Done()
}

// WAL returns the write-ahead log (for inspection and tests).
func (db *DB) WAL() *storage.WAL { return db.wal }

// AllocPage allocates a fresh page and returns its object id.
func (db *DB) AllocPage() txn.OID {
	id := db.store.Allocate()
	return PageOID(id)
}

// Trace returns a snapshot of the recorded trace.
func (db *DB) Trace() trace.Trace { return db.rec.Snapshot() }

// Validate reconstructs the formal system from the committed trace and
// runs the full Definition 16 check plus the conventional baseline. It is
// the engine's self-check: every protocol except ProtocolNone must always
// produce an oo-serializable trace.
func (db *DB) Validate() (*sched.Analysis, sched.Report, error) {
	sys, prim, err := db.Trace().ToSystem()
	if err != nil {
		return nil, sched.Report{}, err
	}
	sys.Extend()
	a, err := sched.Analyze(sys, db.registry, prim)
	if err != nil {
		return nil, sched.Report{}, err
	}
	return a, a.Check(), nil
}

// CrashImage simulates pulling the plug: it returns a copy of the disk
// (the backing store WITHOUT the buffer pool's unflushed dirty frames) and
// of the write-ahead log. Hand both to internal/recovery together with the
// application's object types to bring the database back.
//
// Both clones are taken under the exclusive snapshot barrier, so the pair
// is atomic with respect to every [page mutation + WAL record] critical
// section: the store can never contain a flushed change whose log record
// is missing from the WAL clone — the one disk/log combination a real
// crash cannot produce. (The file-backed WAL is the real kill-the-process
// twin of this simulation; see chaos -round crash.)
func (db *DB) CrashImage() (*storage.MemStore, *storage.WAL) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	return db.store.Clone(), db.wal.Clone()
}

// FlushAll forces every dirty buffered page to the backing store (a clean
// shutdown / checkpoint).
func (db *DB) FlushAll() error { return db.pool.FlushAll() }

// NumPages returns the number of allocated pages in the backing store.
func (db *DB) NumPages() int { return db.store.NumPages() }
