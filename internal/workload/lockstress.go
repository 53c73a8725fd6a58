package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/commut"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/txn"
)

// LockStressConfig drives RunLockStress, the lock-table microbenchmark. It
// bypasses the engine entirely and hammers the cc.LockManager directly, so
// the numbers isolate lock-table overhead (shard mutexes, grant checks,
// detector charging) from page I/O and method dispatch.
type LockStressConfig struct {
	// Goroutines is the number of concurrent clients (default GOMAXPROCS).
	Goroutines int
	// TxnsPerGoroutine is how many acquire-all/release-all cycles each
	// client runs (default 2000).
	TxnsPerGoroutine int
	// LocksPerTxn is how many objects each cycle locks (default 4).
	LocksPerTxn int
	// Objects is the object-space size (default 1024). Far more objects
	// than shards keeps data conflicts rare while every acquire still
	// crosses the table, so a single table mutex — shards=1 — becomes the
	// bottleneck as goroutines grow.
	Objects int
	// Shards overrides the lock table's shard count; 0 takes the manager
	// default (GOMAXPROCS rounded up to a power of two).
	Shards int
	// ConflictPct is the percentage of acquires in exclusive mode; the
	// rest are pairwise-commuting semantic inserts (distinct keys), which
	// grant without blocking regardless of placement.
	ConflictPct int
	Seed        int64
	// Timeout bounds lock waits (default 2s).
	Timeout time.Duration
	// HoldDelay, when positive, makes each cycle dwell that long between
	// acquires while holding its locks. The default (0) measures raw table
	// throughput; a dwell time widens the conflict windows so waits,
	// deadlocks, and timeouts become reproducible even on one CPU.
	HoldDelay time.Duration
	// Fair enables FIFO fairness.
	Fair bool
	// Obs, when non-nil, attaches the lock manager's metrics and flight
	// recorder to this registry (there is no engine here to create one).
	Obs *obs.Registry
	// Tracer, when non-nil, records a span trace per stress transaction:
	// contended acquires become lock spans with provenance edges, so every
	// aborted cycle's trace explains which holder it lost to (there is no
	// engine here to create a tracer).
	Tracer *span.Tracer
}

func (c *LockStressConfig) fillDefaults() {
	if c.Goroutines <= 0 {
		c.Goroutines = runtime.GOMAXPROCS(0)
	}
	if c.TxnsPerGoroutine <= 0 {
		c.TxnsPerGoroutine = 2000
	}
	if c.LocksPerTxn <= 0 {
		c.LocksPerTxn = 4
	}
	if c.Objects <= 0 {
		c.Objects = 1024
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
}

// RunLockStress runs the contended multi-object lock-table workload and
// reports the usual metrics. Each "transaction" is a fresh root owner that
// acquires LocksPerTxn locks on random objects and then releases the
// handles it was granted, as the engine ends a transaction; deadlock
// victims and timeouts abort the cycle (counted, not retried).
func RunLockStress(cfg LockStressConfig) (Result, error) {
	cfg.fillDefaults()
	var opts []cc.Option
	if cfg.Shards > 0 {
		opts = append(opts, cc.WithShards(cfg.Shards))
	}
	if cfg.Timeout > 0 {
		opts = append(opts, cc.WithWaitTimeout(cfg.Timeout))
	}
	if cfg.Fair {
		opts = append(opts, cc.WithFairness())
	}
	if cfg.Obs != nil {
		opts = append(opts, cc.WithObs(cfg.Obs))
	}
	lm := cc.NewLockManager(opts...)
	spec := commut.KeyedSpec([]string{"search"}, []string{"insert"})
	objects := make([]cc.Resource, cfg.Objects)
	for i := range objects {
		objects[i] = txn.OID{Type: "obj", Name: fmt.Sprintf("O%d", i)}
	}

	var committed, aborted atomic.Int64
	// Cycles never fail (aborts are counted, not returned), so neither the
	// retry sum nor the error carries anything.
	elapsed, _, _ := closedLoop(cfg.Goroutines, cfg.TxnsPerGoroutine, cfg.Seed, 6151,
		func(g int, rr *rand.Rand) func(int, *int64) error {
			held := make([]*cc.Held, 0, cfg.LocksPerTxn)
			return func(i int, _ *int64) error {
				// Every cycle is its own root transaction to the manager.
				id := fmt.Sprintf("T%d_%d", g+1, i)
				owner := cc.NodeOwner(id, new(cc.Node))
				tt := cfg.Tracer.BeginTxn(id, time.Now())
				ok := true
				for j := 0; j < cfg.LocksPerTxn; j++ {
					res := objects[rr.Intn(len(objects))]
					var mode cc.Mode
					if rr.Intn(100) < cfg.ConflictPct {
						mode = cc.X
					} else {
						mode = &cc.Semantic{
							Inv: commut.Invocation{
								Method: "insert",
								Params: []string{fmt.Sprintf("g%d-t%d-%d", g, i, j)},
							},
							Spec: spec,
						}
					}
					h, err := lm.AcquireOwner(tt, cycleID(id), owner, res, mode)
					if err != nil {
						ok = false
						break
					}
					held = append(held, h)
					if cfg.HoldDelay > 0 && j < cfg.LocksPerTxn-1 {
						time.Sleep(cfg.HoldDelay)
					}
				}
				for _, h := range held {
					lm.ReleaseHeldOwner(h, owner)
				}
				held = held[:0]
				lm.Forget(id)
				if ok {
					committed.Add(1)
					cfg.Tracer.FinishTxn(tt, span.StatusCommitted)
				} else {
					aborted.Add(1)
					cfg.Tracer.FinishTxn(tt, span.StatusAborted)
				}
				return nil
			}
		})

	snap := lm.Snapshot()
	r := Result{
		Name:      "lock-stress",
		Protocol:  fmt.Sprintf("shards=%d", lm.ShardCount()),
		Workers:   cfg.Goroutines,
		Committed: committed.Load(),
		Aborted:   aborted.Load(),
		Acquires:  snap.Acquires,
		Blocked:   snap.Blocked,
		Deadlocks: snap.Deadlocks,
		Timeouts:  snap.Timeouts,
		WaitTime:  snap.WaitTime,
		Elapsed:   elapsed,
	}
	r.Throughput = safeDiv(float64(r.Committed), elapsed.Seconds())
	r.ConflictRate = safeDiv(float64(r.Blocked), float64(r.Acquires))
	return r, nil
}

// cycleID names a stress cycle as the requester of its acquires: the cycle
// acquires in its own root's name.
type cycleID string

// ActionID implements cc.Requester.
func (id cycleID) ActionID() string { return string(id) }
