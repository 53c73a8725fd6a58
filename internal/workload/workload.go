// Package workload provides the experiment harness for the reproduction's
// quantitative claims: synthetic workloads (the encyclopedia of Figure 2, a
// cooperative-editing scenario from the paper's introduction, and an
// escrow-style banking mix), a multi-worker runner with retry-on-abort, and
// a metrics report comparing protocols on the paper's terms — rate of
// conflicting accesses, wait time, deadlocks, throughput — plus the offline
// oo-serializability verdict for the produced trace.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/list"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Mix is an operation mix in percent; the fields must sum to 100.
type Mix struct {
	InsertPct, SearchPct, UpdatePct, DeletePct, ReadSeqPct int
}

// DefaultMix is a read-mostly encyclopedia mix.
var DefaultMix = Mix{InsertPct: 20, SearchPct: 60, UpdatePct: 15, DeletePct: 5, ReadSeqPct: 0}

func (m Mix) total() int {
	return m.InsertPct + m.SearchPct + m.UpdatePct + m.DeletePct + m.ReadSeqPct
}

// pick returns an operation name for a roll in [0,100).
func (m Mix) pick(roll int) string {
	if roll -= m.InsertPct; roll < 0 {
		return "insert"
	}
	if roll -= m.SearchPct; roll < 0 {
		return "search"
	}
	if roll -= m.UpdatePct; roll < 0 {
		return "update"
	}
	if roll -= m.DeletePct; roll < 0 {
		return "delete"
	}
	return "readSeq"
}

// Config drives the encyclopedia workload.
type Config struct {
	// Engine configures the engine the run opens: protocol, lock timeout,
	// page I/O delay, lock fairness and sharding, durability and
	// checkpoints, observability registry and span tracer. The runner
	// overrides Engine.DisableTrace — the trace is recorded iff Validate is
	// set or TraceFile is non-empty — and turns a zero LockTimeout into 10s
	// and a zero PoolCapacity into 1<<16 frames.
	Engine        core.Options
	Workers       int
	TxnsPerWorker int
	Seed          int64
	// Keys is the key-space size; keys are drawn zipf-skewed when ZipfS > 1
	// and uniformly otherwise.
	Keys  int
	ZipfS float64
	Mix   Mix
	// OpsPerTxn is the number of encyclopedia operations per transaction
	// (default 1). Figure 1's "complex structured actions" column — longer
	// transactions hold locks longer, which is where the protocols
	// separate.
	OpsPerTxn int
	// TreeFanout is keys per B+ tree node — the paper's "rough up to 500
	// keys" page-capacity knob (experiment H2).
	TreeFanout int
	SpineCap   int
	// Preload inserts this many keys before measuring.
	Preload int
	// Validate runs the Definition 16 checker on the produced trace
	// (requires tracing, which it implies).
	Validate   bool
	MaxRetries int
	// TraceFile, when non-empty, writes the recorded trace as JSON for
	// cmd/schedcheck (implies Validate-style tracing).
	TraceFile string
}

func (c *Config) fillDefaults() error {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.TxnsPerWorker <= 0 {
		c.TxnsPerWorker = 100
	}
	if c.Keys <= 0 {
		c.Keys = 1000
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix
	}
	if c.Mix.total() != 100 {
		return fmt.Errorf("workload: mix sums to %d, want 100", c.Mix.total())
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 1
	}
	if c.TreeFanout <= 0 {
		c.TreeFanout = 50
	}
	if c.SpineCap <= 0 {
		c.SpineCap = 50
	}
	if c.Engine.PoolCapacity == 0 {
		c.Engine.PoolCapacity = 1 << 16
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 50
	}
	return nil
}

// Result is one experiment's outcome.
type Result struct {
	Name     string
	Protocol string
	Workers  int

	Committed int64
	Aborted   int64
	Retries   int64

	// Lock manager counters.
	Acquires  int64
	Blocked   int64
	Deadlocks int64
	Timeouts  int64
	WaitTime  time.Duration

	Elapsed    time.Duration
	Throughput float64 // committed transactions per second

	// Per-transaction commit latencies (including retries): median, tail
	// and worst case. Starvation shows up in P99/Max long before it moves
	// totals.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration

	// ConflictRate is Blocked/Acquires — the runtime measure of the
	// paper's "rate of conflicting accesses".
	ConflictRate float64

	// Offline verdicts (only when Config.Validate).
	Validated             bool
	OOSerializable        bool
	ConvSerializable      bool
	SemanticConflicts     int
	ConventionalConflicts int
}

// Header returns the table header matching Row.
func Header() string {
	return fmt.Sprintf("%-14s %-13s %7s %9s %8s %8s %9s %9s %10s %12s %8s",
		"workload", "protocol", "workers", "committed", "aborted", "retries",
		"blocked", "deadlock", "wait", "txn/s", "confl%")
}

// Row renders the result as one table row.
func (r Result) Row() string {
	return fmt.Sprintf("%-14s %-13s %7d %9d %8d %8d %9d %9d %10s %12.1f %7.2f%%",
		r.Name, r.Protocol, r.Workers, r.Committed, r.Aborted, r.Retries,
		r.Blocked, r.Deadlocks, r.WaitTime.Round(time.Millisecond), r.Throughput,
		100*r.ConflictRate)
}

// keyFor draws a key index for worker-local generator rr.
func keyFor(rr *rand.Rand, zipf *rand.Zipf, keys int) string {
	var i uint64
	if zipf != nil {
		i = zipf.Uint64()
	} else {
		i = uint64(rr.Intn(keys))
	}
	return fmt.Sprintf("k%06d", i)
}

// RunEncyclopedia executes the encyclopedia workload and reports metrics.
func RunEncyclopedia(cfg Config) (Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	db, closeDB, err := openDB(cfg.Engine, cfg.Validate || cfg.TraceFile != "")
	if err != nil {
		return Result{}, err
	}
	defer closeDB()
	e, err := InstallEncyclopedia(db, cfg.TreeFanout, cfg.SpineCap)
	if err != nil {
		return Result{}, err
	}

	pre := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Preload; i++ {
		k := fmt.Sprintf("k%06d", pre.Intn(cfg.Keys))
		if err := execRetry(db, e, cfg.MaxRetries, nil, "insert", k, "text0"); err != nil {
			return Result{}, fmt.Errorf("preload: %w", err)
		}
	}
	preStats := db.LockStats()
	preEng := db.Stats()

	lat := &latencies{}
	elapsed, retries, err := closedLoop(cfg.Workers, cfg.TxnsPerWorker, cfg.Seed, 7919,
		func(_ int, rr *rand.Rand) func(int, *int64) error {
			var zipf *rand.Zipf
			if cfg.ZipfS > 1 {
				zipf = rand.NewZipf(rr, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			}
			return func(i int, retries *int64) error {
				ops := make([]opCall, cfg.OpsPerTxn)
				for j := range ops {
					op := cfg.Mix.pick(rr.Intn(100))
					var params []string
					switch op {
					case "insert", "update":
						params = []string{keyFor(rr, zipf, cfg.Keys), fmt.Sprintf("text%d-%d", i, j)}
					case "search", "delete":
						params = []string{keyFor(rr, zipf, cfg.Keys)}
					}
					ops[j] = opCall{obj: e, method: op, params: params}
				}
				return execOps(db, cfg.MaxRetries, retries, lat, ops)
			}
		})
	if err != nil {
		return Result{}, err
	}

	res, err := finishResult(db, "encyclopedia", cfg.Engine.Protocol, cfg.Workers, cfg.Validate,
		elapsed, retries, preStats, preEng)
	lat.fill(&res)
	if err == nil && cfg.TraceFile != "" {
		err = writeTrace(db, cfg.TraceFile)
	}
	return res, err
}

// closedLoop runs workers goroutines of n back-to-back steps each and
// times them. Worker w draws from a generator seeded with seed+w*stride;
// newWorker, called on the worker's goroutine, builds its step function,
// which gets the step index and the worker's retry counter. A failing
// worker stops while the others finish. closedLoop returns the elapsed
// time, the retries summed over all workers and the first error.
func closedLoop(workers, n int, seed, stride int64,
	newWorker func(w int, rr *rand.Rand) func(i int, retries *int64) error,
) (time.Duration, int64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		retries  int64
		firstErr error
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			step := newWorker(w, rand.New(rand.NewSource(seed+int64(w)*stride)))
			var local int64
			var err error
			for i := 0; i < n && err == nil; i++ {
				err = step(i, &local)
			}
			mu.Lock()
			defer mu.Unlock()
			retries += local
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), retries, firstErr
}

// InstallEncyclopedia registers the encyclopedia module stack (btree, list,
// encyclopedia types) on a caller-owned engine and creates one encyclopedia
// object, returning its OID (methods: insert, search, update, delete,
// readSeq). It is the setup half of RunEncyclopedia, exported for
// network-facing drivers serving the workload over internal/server.
func InstallEncyclopedia(db *core.DB, fanout, spineCap int) (txn.OID, error) {
	return InstallEncyclopediaNamed(db, "Enc", fanout, spineCap)
}

// InstallEncyclopediaNamed is InstallEncyclopedia with a caller-chosen
// object name — a partitioned deployment installs one encyclopedia per
// partition, named (via partition.NameFor) so the session-layer router
// sends it to the right place.
func InstallEncyclopediaNamed(db *core.DB, name string, fanout, spineCap int) (txn.OID, error) {
	if fanout <= 0 {
		fanout = 100
	}
	if spineCap <= 0 {
		spineCap = 50
	}
	trees, err := btree.Install(db)
	if err != nil {
		return txn.OID{}, err
	}
	lists, err := list.Install(db)
	if err != nil {
		return txn.OID{}, err
	}
	encs, err := enc.Install(db, trees, lists)
	if err != nil {
		return txn.OID{}, err
	}
	e, err := encs.New(name, fanout, spineCap)
	if err != nil {
		return txn.OID{}, err
	}
	return e.OID(), nil
}

// openDB opens a workload's engine: in-memory by default, over WAL segment
// files when a durability mode is configured. It records the trace iff
// trace is set and bounds lock waits by 10s unless opts.LockTimeout is
// set. The returned closer flushes and closes the file WAL.
func openDB(opts core.Options, trace bool) (*core.DB, func(), error) {
	opts.DisableTrace = !trace
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 10 * time.Second
	}
	if opts.Durability != storage.MemOnly {
		db, err := core.OpenDurable(opts)
		if err != nil {
			return nil, nil, err
		}
		return db, func() { _ = db.Close() }, nil
	}
	return core.Open(opts), func() {}, nil
}

// writeTrace dumps the DB's trace as JSON.
func writeTrace(db *core.DB, path string) error {
	data, err := db.Trace().Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opCall is one operation of a multi-op transaction.
type opCall struct {
	obj    txn.OID
	method string
	params []string
}

// latencies collects per-transaction commit latencies concurrently.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// fill computes the percentile fields of r. Safe to call while workers are
// still adding: the emptiness check happens under the same lock as the
// snapshot (checking len(l.ds) outside it would race with add).
func (l *latencies) fill(r *Result) {
	if l == nil {
		return
	}
	l.mu.Lock()
	ds := append([]time.Duration{}, l.ds...)
	l.mu.Unlock()
	if len(ds) == 0 {
		return
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	r.LatencyP50 = ds[len(ds)/2]
	r.LatencyP99 = ds[len(ds)*99/100]
	r.LatencyMax = ds[len(ds)-1]
}

// execRetry runs a one-op transaction, retrying aborts (deadlock victims,
// timeouts) up to maxRetries times.
func execRetry(db *core.DB, obj txn.OID, maxRetries int, retries *int64, method string, params ...string) error {
	return execOps(db, maxRetries, retries, nil, []opCall{{obj: obj, method: method, params: params}})
}

// execOps runs a multi-op transaction with retries (jittered exponential
// backoff and priority aging, via core.RunWithRetry: a restarted
// transaction receives a fresh — youngest — id, so without aging the
// youngest-victim policy would re-victimize an eager retrier forever),
// counting each retry in *retries when retries is non-nil, and records its
// total latency (first attempt to successful commit) in lat.
func execOps(db *core.DB, maxRetries int, retries *int64, lat *latencies, ops []opCall) error {
	start := time.Now()
	err := db.RunWithRetry(core.RetryPolicy{
		MaxAttempts: maxRetries + 1,
		OnRetry: func(int, error) {
			if retries != nil {
				*retries++
			}
		},
	}, func(tx *core.Txn) error {
		for _, op := range ops {
			if _, err := tx.Exec(op.obj, op.method, op.params...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("workload: %s txn: %w", ops[0].obj.Name, err)
	}
	lat.add(time.Since(start))
	return nil
}

// finishResult assembles a Result from the counters accumulated since the
// pre-measurement snapshots, optionally validating the trace.
func finishResult(db *core.DB, name string, protocol core.ProtocolKind, workers int,
	validate bool, elapsed time.Duration, retries int64,
	preLock cc.Stats, preEng core.Stats,
) (Result, error) {
	lock := db.LockStats()
	eng := db.Stats()
	r := Result{
		Name:      name,
		Protocol:  protocol.String(),
		Workers:   workers,
		Committed: eng.TxnsCommitted - preEng.TxnsCommitted,
		Aborted:   eng.TxnsAborted - preEng.TxnsAborted,
		Retries:   retries,
		Acquires:  lock.Acquires - preLock.Acquires,
		Blocked:   lock.Blocked - preLock.Blocked,
		Deadlocks: lock.Deadlocks - preLock.Deadlocks,
		Timeouts:  lock.Timeouts - preLock.Timeouts,
		WaitTime:  lock.WaitTime - preLock.WaitTime,
		Elapsed:   elapsed,
	}
	r.Throughput = safeDiv(float64(r.Committed), elapsed.Seconds())
	r.ConflictRate = safeDiv(float64(r.Blocked), float64(r.Acquires))
	if validate {
		a, rep, err := db.Validate()
		if err != nil {
			return r, fmt.Errorf("workload: validation failed: %w", err)
		}
		conv := a.Conventional()
		r.Validated = true
		r.OOSerializable = rep.SystemOOSerializable
		r.ConvSerializable = conv.Serializable
		r.SemanticConflicts = a.SemanticConflicts()
		r.ConventionalConflicts = conv.Conflicts
	}
	return r, nil
}

// safeDiv returns num/den, or 0 when den is zero. Every derived rate in a
// Result goes through it: a degenerate run (zero acquires, zero elapsed
// time) must report 0, never NaN or Inf — those poison downstream
// comparisons (NaN fails every threshold check silently) and render as
// garbage in the table.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Table renders results under a shared header.
func Table(results []Result) string {
	var b strings.Builder
	b.WriteString(Header())
	b.WriteByte('\n')
	for _, r := range results {
		b.WriteString(r.Row())
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrUnknownWorkload is returned by name-based dispatch in cmd/oodbsim.
var ErrUnknownWorkload = errors.New("workload: unknown workload")
