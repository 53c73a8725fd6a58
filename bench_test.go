// Package repro's root benchmark harness regenerates the paper's
// experiments (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured); the two rows that price a single
// layer live in the package they price, R1's BenchmarkRecovery in
// internal/recovery and C1's BenchmarkOnlineAdd in internal/sched. Each
// workload benchmark reports the domain metrics the paper argues about as
// custom units:
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
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/sched"
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
