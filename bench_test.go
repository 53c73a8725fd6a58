// Package repro's root benchmark harness regenerates every table and
// figure of the reproduction (see DESIGN.md §3 for the experiment index
// and EXPERIMENTS.md for paper-vs-measured). Each benchmark reports the
// domain metrics the paper argues about as custom units:
//
//	txn/s        committed transactions per second
//	confl%       blocked acquires per 100 lock acquisitions
//	waitms       total lock wait time in milliseconds
//	deadlocks    deadlock victims
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/recovery"
	"repro/internal/sched"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

const benchIO = 20 * time.Microsecond

func report(b *testing.B, res workload.Result) {
	b.ReportMetric(res.Throughput, "txn/s")
	b.ReportMetric(100*res.ConflictRate, "confl%")
	b.ReportMetric(float64(res.WaitTime.Milliseconds()), "waitms")
	b.ReportMetric(float64(res.Deadlocks), "deadlocks")
}

// BenchmarkFig1ConventionalVsOO contrasts the two workload classes of the
// paper's Figure 1: short transactions on small objects (banking) versus
// long, complex-structured transactions on large objects (encyclopedia,
// multi-op). The interesting series is how much each class suffers under
// conventional locking relative to semantic locking.
func BenchmarkFig1ConventionalVsOO(b *testing.B) {
	rows := []struct {
		name string
		run  func(p core.ProtocolKind) (workload.Result, error)
	}{
		{"short-small-txns", func(p core.ProtocolKind) (workload.Result, error) {
			return workload.RunBanking(workload.BankingConfig{
				Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
				Workers: 8, TxnsPerWorker: 50, Accounts: 8, HotPct: 40, Seed: 1,
			})
		}},
		{"long-complex-txns", func(p core.ProtocolKind) (workload.Result, error) {
			return workload.RunEncyclopedia(workload.Config{
				Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
				Workers: 8, TxnsPerWorker: 20, OpsPerTxn: 6,
				Keys: 300, TreeFanout: 400, Preload: 100, Seed: 1,
				Mix:        workload.Mix{InsertPct: 60, SearchPct: 20, UpdatePct: 20},
				MaxRetries: 300,
			})
		}},
	}
	for _, row := range rows {
		for _, p := range []core.ProtocolKind{core.Protocol2PLPage, core.ProtocolOpenNested} {
			b.Run(fmt.Sprintf("%s/%s", row.name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := row.run(p)
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	}
}

// BenchmarkE1Example1Analysis regenerates Example 1 / Figure 4: the formal
// analysis of the three-transaction schedule, asserting the inheritance
// structure each iteration.
func BenchmarkE1Example1Analysis(b *testing.B) {
	reg := paperex.Registry()
	for i := 0; i < b.N; i++ {
		sys, order := paperex.Example1()
		a, err := sched.Analyze(sys, reg, order)
		if err != nil {
			b.Fatal(err)
		}
		if a.TranDep[paperex.Leaf11].HasEdge("T1.1.1", "T2.1.1") {
			b.Fatal("commuting inserts must not inherit")
		}
		if !a.TranDep[paperex.Enc].HasEdge("T1", "T3") {
			b.Fatal("same-key conflict must inherit to the top")
		}
	}
}

// BenchmarkE4Example4Analysis regenerates Example 4 / Figures 7-8,
// including the Definition 15 added relation and the full system check.
func BenchmarkE4Example4Analysis(b *testing.B) {
	reg := paperex.Registry()
	for i := 0; i < b.N; i++ {
		sys, order := paperex.Example4()
		a, err := sched.Analyze(sys, reg, order)
		if err != nil {
			b.Fatal(err)
		}
		rep := a.Check()
		if !rep.SystemOOSerializable {
			b.Fatal("Example 4 must validate")
		}
	}
}

// BenchmarkH1ConflictRate is the headline claim: on a hot leaf (many keys
// per page), page-level 2PL accumulates commit-duration waits while open
// nesting only serializes the brief page subtransactions.
func BenchmarkH1ConflictRate(b *testing.B) {
	for _, p := range []core.ProtocolKind{core.Protocol2PLPage, core.ProtocolClosedNested, core.ProtocolOpenNested} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := workload.RunEncyclopedia(workload.Config{
					Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
					Workers: 8, TxnsPerWorker: 30, OpsPerTxn: 5,
					Keys: 300, TreeFanout: 400, Preload: 100, Seed: 123,
					Mix:        workload.Mix{InsertPct: 80, UpdatePct: 20},
					MaxRetries: 300,
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, res)
			}
		})
	}
}

// BenchmarkH2FanoutSweep sweeps keys-per-page toward the paper's "rough up
// to 500": the more keys share a page, the more often operations conflict
// at the page level while commuting at the node level — so the 2PL/open
// gap should widen with fanout.
func BenchmarkH2FanoutSweep(b *testing.B) {
	for _, fanout := range []int{10, 50, 100, 500} {
		for _, p := range []core.ProtocolKind{core.Protocol2PLPage, core.ProtocolOpenNested} {
			b.Run(fmt.Sprintf("fanout=%d/%s", fanout, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunEncyclopedia(workload.Config{
						Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
						Workers: 8, TxnsPerWorker: 25, OpsPerTxn: 4,
						Keys: 400, TreeFanout: fanout, Preload: 400, Seed: 7,
						Mix:        workload.Mix{InsertPct: 50, SearchPct: 30, UpdatePct: 20},
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	}
}

// BenchmarkH3CoEditing is the introduction's motivation: authors editing
// one document concurrently. Document-level 2PL serializes the session;
// section-keyed semantics scale with the author count.
func BenchmarkH3CoEditing(b *testing.B) {
	for _, authors := range []int{2, 4, 8} {
		for _, p := range []core.ProtocolKind{core.Protocol2PLObject, core.ProtocolOpenNested} {
			b.Run(fmt.Sprintf("authors=%d/%s", authors, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunCoEdit(workload.CoEditConfig{
						Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
						Authors: authors, EditsPerAuthor: 20,
						Sections: 16, EditWork: 500 * time.Microsecond, Seed: 3,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	}
}

// BenchmarkH4OpenVsClosedNesting isolates the open/closed nesting choice:
// closed nesting transfers page locks upward and holds them to top-level
// commit; open nesting releases them at subtransaction commit against a
// compensation.
func BenchmarkH4OpenVsClosedNesting(b *testing.B) {
	for _, p := range []core.ProtocolKind{core.ProtocolClosedNested, core.ProtocolOpenNested} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := workload.RunEncyclopedia(workload.Config{
					Engine:  core.Options{Protocol: p, PageIODelay: benchIO, LockTimeout: 2 * time.Second},
					Workers: 8, TxnsPerWorker: 25, OpsPerTxn: 6,
					Keys: 250, TreeFanout: 300, Preload: 120, Seed: 17,
					Mix:        workload.Mix{InsertPct: 70, SearchPct: 10, UpdatePct: 20},
					MaxRetries: 300,
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, res)
			}
		})
	}
}

// BenchmarkH5CheckerScaling measures the offline oo-serializability
// checker's cost against schedule size: n transactions, each inserting one
// distinct key through the Enc → BpTree → Leaf → Page hierarchy.
func BenchmarkH5CheckerScaling(b *testing.B) {
	reg := paperex.Registry()
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			sys, order := syntheticSchedule(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := sched.Analyze(sys, reg, order)
				if err != nil {
					b.Fatal(err)
				}
				if rep := a.Check(); !rep.SystemOOSerializable {
					b.Fatal("synthetic schedule must validate")
				}
			}
		})
	}
}

// syntheticSchedule builds n single-insert transactions over a shared leaf
// and page, serially executed.
func syntheticSchedule(n int) (*txn.System, []string) {
	leaf := txn.OID{Type: paperex.TypeLeaf, Name: "Leaf"}
	page := txn.OID{Type: paperex.TypePage, Name: "Page"}
	tops := make([]*txn.Action, n)
	var order []string
	for i := 0; i < n; i++ {
		bld := txn.NewTransaction(fmt.Sprintf("T%d", i+1))
		e := bld.Call(nil, paperex.Enc, "insert", fmt.Sprintf("k%04d", i))
		l := bld.Call(e, leaf, "insert", fmt.Sprintf("k%04d", i))
		r := bld.Call(l, page, "read")
		w := bld.Call(l, page, "write")
		order = append(order, r.ID, w.ID)
		tops[i] = bld.Build()
	}
	return txn.NewSystem(tops...), order
}

// BenchmarkValidatePipeline measures the full live pipeline: run a small
// concurrent workload with tracing, reconstruct the formal system, and
// check it.
func BenchmarkValidatePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.RunEncyclopedia(workload.Config{
			Engine:  core.Options{Protocol: core.ProtocolOpenNested},
			Workers: 4, TxnsPerWorker: 20,
			Keys: 100, TreeFanout: 16, Preload: 50, Seed: 5, Validate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OOSerializable {
			b.Fatal("live trace must validate")
		}
	}
}

// BenchmarkRecovery measures restart recovery cost against log size: n
// committed single-put transactions plus one in-flight loser, then
// analysis + redo + undo.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{50, 200, 1000} {
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rp := newBenchKV()
				db := core.Open(core.Options{Protocol: core.ProtocolOpenNested})
				if err := rp.register(db); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					tx := db.Begin()
					if _, err := tx.Exec(benchKVOID, "put", fmt.Sprintf("k%d", j%8), fmt.Sprintf("v%d", j)); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				loser := db.Begin()
				_, _ = loser.Exec(benchKVOID, "put", "k0", "loser")
				disk, wal := db.CrashImage()
				b.StartTimer()

				_, rep, err := recovery.Recover(disk, wal, core.Options{Protocol: core.ProtocolOpenNested}, rp.register)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Losers) != 1 {
					b.Fatalf("losers = %v", rep.Losers)
				}
			}
		})
	}
}

// benchKV is a minimal keyed object type for the recovery benchmark.
type benchKV struct {
	pages map[string]txn.OID
}

var benchKVOID = txn.OID{Type: "benchkv", Name: "KV"}

func newBenchKV() *benchKV { return &benchKV{} }

func (r *benchKV) register(db *core.DB) error {
	if r.pages == nil {
		r.pages = map[string]txn.OID{}
		for i := 0; i < 8; i++ {
			r.pages[fmt.Sprintf("k%d", i)] = db.AllocPage()
		}
	}
	return db.RegisterType(&core.ObjectType{
		Name:     "benchkv",
		Spec:     commut.KeyedSpec([]string{"get"}, []string{"put"}),
		ReadOnly: map[string]bool{"get": true},
		Methods: map[string]core.MethodFunc{
			"put": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				pg := r.pages[params[0]]
				old, err := c.Call(pg, "readx")
				if err != nil {
					return "", err
				}
				if _, err := c.Call(pg, "write", params[1]); err != nil {
					return "", err
				}
				return old, nil
			},
			"get": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				return c.Call(r.pages[params[0]], "read")
			},
		},
		Compensate: map[string]core.CompensateFunc{
			"put": func(params []string, result string) (string, []string, bool) {
				return "put", []string{params[0], result}, true
			},
		},
	})
}

// ckptBenchRow is one BENCH_checkpoint.json series point.
type ckptBenchRow struct {
	Txns          int     `json:"txns"`
	Checkpointed  bool    `json:"checkpointed"`
	RecoveryMS    float64 `json:"recovery_ms"`
	Redone        int     `json:"redone"`
	CheckpointLSN uint64  `json:"checkpoint_lsn"`
	WALBytes      int64   `json:"wal_bytes"`
	Segments      int     `json:"segments"`
}

// copyDirFiles copies the regular files of src into a fresh dst.
func copyDirFiles(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkR2CheckpointRecovery prices what checkpoints buy: restart time
// against history length. Without checkpoints the log keeps every record
// ever written and recovery replays all of it, so the recms series grows
// linearly with the transaction count; with periodic checkpoints recovery
// loads the newest image and redoes only the suffix above its barrier, so
// the series stays flat (and the on-disk log stays bounded — see the
// wal_bytes column). The last iteration of each series is written to
// BENCH_checkpoint.json.
func BenchmarkR2CheckpointRecovery(b *testing.B) {
	var rows []ckptBenchRow
	for _, n := range []int{200, 1000, 4000} {
		for _, ckpt := range []bool{false, true} {
			b.Run(fmt.Sprintf("txns=%d/checkpointed=%v", n, ckpt), func(b *testing.B) {
				// Build the history once: n committed puts, checkpointing
				// every n/8 commits in the checkpointed series.
				src := filepath.Join(b.TempDir(), "src")
				if err := os.MkdirAll(src, 0o755); err != nil {
					b.Fatal(err)
				}
				opts := core.Options{
					Protocol: core.ProtocolOpenNested, Durability: storage.GroupCommit,
					WALDir: src, WALSegmentSize: 16 << 10,
					DisableObs: true, DisableTrace: true, DisableSpans: true,
				}
				rp := newBenchKV()
				db, err := core.OpenDurable(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := rp.register(db); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					tx := db.Begin()
					if _, err := tx.Exec(benchKVOID, "put", fmt.Sprintf("k%d", j%8), fmt.Sprintf("v%d", j)); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
					// Checkpoint every n/8 commits, but not after the last
					// one: real restarts always find some suffix to redo.
					if ckpt && j+1 < n && (j+1)%(n/8) == 0 {
						if _, err := db.Checkpoint(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}

				var row ckptBenchRow
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dst := filepath.Join(b.TempDir(), fmt.Sprintf("run%d", i))
					copyDirFiles(b, src, dst)
					ropts := opts
					ropts.WALDir = dst
					b.StartTimer()

					start := time.Now()
					db2, rep, err := recovery.RecoverDir(dst, ropts, rp.register)
					took := time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if ckpt && rep.CheckpointLSN == 0 {
						b.Fatal("checkpointed series recovered without a checkpoint")
					}
					if !ckpt && rep.Redone != n {
						b.Fatalf("full replay redid %d updates, want %d", rep.Redone, n)
					}
					segs, err := storage.WALSegments(dst)
					if err != nil {
						b.Fatal(err)
					}
					var walBytes int64
					for _, s := range segs {
						if fi, err := os.Stat(filepath.Join(dst, s.Name)); err == nil {
							walBytes += fi.Size()
						}
					}
					if err := db2.Close(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(took.Microseconds())/1000, "recms")
					b.ReportMetric(float64(rep.Redone), "redone")
					row = ckptBenchRow{
						Txns: n, Checkpointed: ckpt,
						RecoveryMS: float64(took.Microseconds()) / 1000,
						Redone:     rep.Redone, CheckpointLSN: rep.CheckpointLSN,
						WALBytes: walBytes, Segments: len(segs),
					}
					b.StartTimer()
				}
				b.StopTimer()
				rows = append(rows, row)
			})
		}
	}
	if len(rows) > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_checkpoint.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1ShardedLockScaling isolates the lock-table sharding choice on
// a contended multi-object workload: many clients lock random objects out
// of a large space in mostly-commuting semantic modes, so almost every
// acquire grants immediately and the table's own synchronization is the
// bottleneck. With shards=1 every acquire and release funnels through one
// mutex (the pre-sharding design); with the default shard count
// (GOMAXPROCS) the traffic spreads and throughput scales with cores —
// compare the txn/s series at goroutines ≥ 4.
func BenchmarkL1ShardedLockScaling(b *testing.B) {
	for _, gs := range []int{1, 4, 8} {
		for _, shards := range []int{1, 0} { // 0 = manager default (GOMAXPROCS)
			label := "default"
			if shards == 1 {
				label = "1"
			}
			b.Run(fmt.Sprintf("goroutines=%d/shards=%s", gs, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunLockStress(workload.LockStressConfig{
						Goroutines: gs, TxnsPerGoroutine: 4000, LocksPerTxn: 4,
						Objects: 1024, Shards: shards, ConflictPct: 2, Seed: 42,
						Timeout: 2 * time.Second,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	}
}

// walBenchRow is one BENCH_wal.json series point.
type walBenchRow struct {
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	Committed int64   `json:"committed"`
	Seconds   float64 `json:"seconds"`
	TxnPerSec float64 `json:"txn_per_sec"`
}

// BenchmarkL1GroupCommit isolates the group-commit design against the
// naive per-commit-fsync baseline on the banking workload (uncontended:
// 512 accounts, no hot spot, so the fsync is the bottleneck, not locks).
// Sync-on-commit pays one fsync per committed transfer; group commit
// funnels all concurrent committers through the single flusher, so the
// fsync count per committed transaction falls with the worker count —
// at 16 workers the txn/s series should show ≥2× the baseline. The last
// iteration of each series is appended to BENCH_wal.json.
func BenchmarkL1GroupCommit(b *testing.B) {
	var rows []walBenchRow
	for _, workers := range []int{1, 4, 16} {
		for _, mode := range []storage.Durability{storage.SyncOnCommit, storage.GroupCommit} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(b *testing.B) {
				var last workload.Result
				for i := 0; i < b.N; i++ {
					res, err := workload.RunBanking(workload.BankingConfig{
						Engine: core.Options{
							Protocol: core.ProtocolOpenNested, LockTimeout: 2 * time.Second,
							Durability: mode,
							WALDir:     filepath.Join(b.TempDir(), fmt.Sprintf("wal%d", i)),
						},
						Workers: workers, TxnsPerWorker: 30, Accounts: 512, HotPct: 0, Seed: 9,
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
					last = res
				}
				rows = append(rows, walBenchRow{
					Mode: mode.String(), Workers: workers,
					Committed: last.Committed, Seconds: last.Elapsed.Seconds(),
					TxnPerSec: last.Throughput,
				})
			})
		}
	}
	if len(rows) > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_wal.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1FairnessAblation isolates the lock-manager fairness choice:
// under a reader-heavy hot-key mix, FIFO ordering slightly raises the
// median latency but bounds the tail that barging readers inflict on
// conflicting writers.
func BenchmarkA1FairnessAblation(b *testing.B) {
	for _, fair := range []bool{false, true} {
		b.Run(fmt.Sprintf("fair=%v", fair), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := workload.RunEncyclopedia(workload.Config{
					Engine: core.Options{
						Protocol:  core.ProtocolOpenNested,
						FairLocks: fair, PageIODelay: benchIO, LockTimeout: 2 * time.Second,
					},
					Workers: 8, TxnsPerWorker: 60,
					Keys: 10, Mix: workload.Mix{SearchPct: 80, UpdatePct: 20},
					TreeFanout: 16, Preload: 30, Seed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, res)
				b.ReportMetric(float64(res.LatencyP50.Microseconds()), "p50µs")
				b.ReportMetric(float64(res.LatencyP99.Microseconds()), "p99µs")
				b.ReportMetric(float64(res.LatencyMax.Microseconds()), "maxµs")
			}
		})
	}
}

// BenchmarkO1ObsOverhead prices the always-on observability layer: the
// same H1-style hot-leaf run and L1-style group-commit run, with the
// metrics registry + flight recorder attached ("on") and with DisableObs
// ("off"). The budget is 5% on txn/s — every instrumented hot-path site is
// an atomic add or a lock-free ring store, so the gap should be noise.
func BenchmarkO1ObsOverhead(b *testing.B) {
	b.Run("encyclopedia", func(b *testing.B) {
		for _, disable := range []bool{false, true} {
			name := "on"
			if disable {
				name = "off"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunEncyclopedia(workload.Config{
						Engine: core.Options{
							Protocol:    core.ProtocolOpenNested,
							PageIODelay: benchIO, LockTimeout: 2 * time.Second,
							DisableObs: disable,
						},
						Workers: 8, TxnsPerWorker: 30,
						OpsPerTxn: 5, Keys: 300, TreeFanout: 400, Preload: 100, Seed: 123,
						Mix:        workload.Mix{InsertPct: 80, UpdatePct: 20},
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	})
	b.Run("group-commit", func(b *testing.B) {
		for _, disable := range []bool{false, true} {
			name := "on"
			if disable {
				name = "off"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunBanking(workload.BankingConfig{
						Engine: core.Options{
							Protocol: core.ProtocolOpenNested, LockTimeout: 2 * time.Second,
							Durability: storage.GroupCommit,
							WALDir:     filepath.Join(b.TempDir(), fmt.Sprintf("wal%d", i)),
							DisableObs: disable,
						},
						Workers: 16, TxnsPerWorker: 30, Accounts: 512, HotPct: 0, Seed: 9,
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	})
}

// BenchmarkO2SpanOverhead prices the always-on span tracing layer the same
// way O1 prices the metrics layer: the H1-style hot-leaf run and the
// L1-style group-commit run with span tracing on (every transaction
// sampled) and with DisableSpans. The budget is 5% on txn/s — uncontended
// acquires record nothing, so the steady-state cost is one map insert and
// one method-span append per dispatch.
func BenchmarkO2SpanOverhead(b *testing.B) {
	b.Run("encyclopedia", func(b *testing.B) {
		for _, disable := range []bool{false, true} {
			name := "on"
			if disable {
				name = "off"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := workload.RunEncyclopedia(workload.Config{
						Engine: core.Options{
							Protocol:    core.ProtocolOpenNested,
							PageIODelay: benchIO, LockTimeout: 2 * time.Second,
							DisableSpans: disable,
						},
						Workers: 8, TxnsPerWorker: 30,
						OpsPerTxn: 5, Keys: 300, TreeFanout: 400, Preload: 100, Seed: 123,
						Mix:        workload.Mix{InsertPct: 80, UpdatePct: 20},
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	})
	// The banking transactions here are ~40µs end to end, an extreme case
	// for per-transaction tracing; "sampled16" shows -span-sample 16 — the
	// recommended setting for ultra-short-transaction workloads — next to
	// trace-everything ("on") and DisableSpans ("off").
	b.Run("group-commit", func(b *testing.B) {
		for _, cfg := range []struct {
			name    string
			disable bool
			sample  int
		}{{"on", false, 0}, {"sampled16", false, 16}, {"off", true, 0}} {
			b.Run(cfg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var tracer *span.Tracer
					if cfg.sample > 0 {
						tracer = span.NewTracer(span.Options{SampleEvery: cfg.sample})
					}
					res, err := workload.RunBanking(workload.BankingConfig{
						Engine: core.Options{
							Protocol: core.ProtocolOpenNested, LockTimeout: 2 * time.Second,
							Durability:   storage.GroupCommit,
							WALDir:       filepath.Join(b.TempDir(), fmt.Sprintf("wal%d", i)),
							DisableSpans: cfg.disable,
							Tracer:       tracer,
						},
						Workers: 16, TxnsPerWorker: 30, Accounts: 512, HotPct: 0, Seed: 9,
						MaxRetries: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					report(b, res)
				}
			})
		}
	})
}
