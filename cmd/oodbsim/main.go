// Command oodbsim runs the reproduction's workloads under a chosen
// concurrency-control protocol and prints the metrics the paper argues
// about: blocked acquires (the rate of conflicting accesses), wait time,
// deadlocks, and throughput — optionally validating the produced schedule
// against Definitions 13/16.
//
// Usage examples:
//
//	oodbsim -workload encyclopedia -protocol all -workers 8 -txns 100
//	oodbsim -workload coedit -protocol 2pl-object -authors 6
//	oodbsim -workload banking -protocol open-nested -validate
//
// -protocol all sweeps every protocol and prints a comparison table.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/workload"
)

// faultFlags collects repeatable -fault name=spec arguments.
type faultFlags []string

func (f *faultFlags) String() string { return fmt.Sprint(*f) }
func (f *faultFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

var protocols = map[string]core.ProtocolKind{
	"open-nested":   core.ProtocolOpenNested,
	"2pl-page":      core.Protocol2PLPage,
	"2pl-object":    core.Protocol2PLObject,
	"closed-nested": core.ProtocolClosedNested,
	"none":          core.ProtocolNone,
}

func main() {
	var (
		wl         = flag.String("workload", "encyclopedia", "workload: encyclopedia | coedit | banking | lockstress")
		protocol   = flag.String("protocol", "all", "protocol: open-nested | 2pl-page | 2pl-object | closed-nested | none | all")
		workers    = flag.Int("workers", 8, "concurrent workers / authors")
		txns       = flag.Int("txns", 100, "transactions (edits) per worker")
		ops        = flag.Int("ops", 4, "operations per transaction (encyclopedia)")
		keys       = flag.Int("keys", 500, "key space size (encyclopedia)")
		zipf       = flag.Float64("zipf", 0, "zipf skew s (>1 enables skew)")
		fanout     = flag.Int("fanout", 100, "B+ tree node capacity (keys per page)")
		sections   = flag.Int("sections", 16, "document sections (coedit)")
		accounts   = flag.Int("accounts", 16, "accounts (banking)")
		hot        = flag.Int("hot", 20, "percent of banking transfers hitting account 0")
		seed       = flag.Int64("seed", 1, "random seed")
		ioDelay    = flag.Duration("io", 20*time.Microsecond, "simulated page I/O latency")
		validate   = flag.Bool("validate", false, "validate the trace against Definitions 13/16")
		traceOut   = flag.String("trace", "", "write the encyclopedia workload's trace JSON to this file (single protocol only)")
		durMode    = flag.String("durability", "mem-only", "WAL durability: mem-only | sync-on-commit | group-commit")
		walDir     = flag.String("waldir", "", "WAL segment directory (required for durable modes; must be empty/new)")
		ckptEvery  = flag.Duration("checkpoint", 0, "fuzzy-checkpoint interval: snapshot the store and truncate dead WAL segments this often (durable modes only; 0 = off)")
		metrics    = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /events, /trace and /fault on this host:port for the run")
		linger     = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the run (needs -metrics-addr)")
		conflict   = flag.Int("conflict", 20, "percent of exclusive (non-commuting) acquires (lockstress)")
		shards     = flag.Int("shards", 0, "lock-table shard count (lockstress; 0 = default)")
		hold       = flag.Duration("hold", 0, "dwell time between acquires while holding locks (lockstress; widens conflict windows)")
		chromeOut  = flag.String("trace-out", "", "write the run's span traces as Chrome trace_event JSON (chrome://tracing, Perfetto)")
		blame      = flag.Int("blame", 0, "after the run, print blame chains for up to N aborted transactions")
		spanSample = flag.Int("span-sample", 0, "span-trace every Nth transaction (0 or 1 = all)")
		faults     faultFlags
	)
	flag.Var(&faults, "fault", "arm a failpoint, e.g. -fault 'wal.fsync=error(efsync);p=0.01' (repeatable; 'name=off' disarms)")
	flag.Parse()

	for _, kv := range faults {
		if err := fault.Default.ArmString(kv); err != nil {
			fmt.Fprintf(os.Stderr, "oodbsim: -fault %q: %v\n", kv, err)
			os.Exit(2)
		}
	}

	durability, err := storage.ParseDurability(*durMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oodbsim: %v\n", err)
		os.Exit(2)
	}
	if durability != storage.MemOnly && *walDir == "" {
		fmt.Fprintln(os.Stderr, "oodbsim: -durability", *durMode, "needs -waldir")
		os.Exit(2)
	}
	if durability == storage.MemOnly && *walDir != "" {
		fmt.Fprintln(os.Stderr, "oodbsim: -waldir has no effect with -durability mem-only; pick sync-on-commit or group-commit")
		os.Exit(2)
	}
	if durability != storage.MemOnly && *protocol == "all" {
		fmt.Fprintln(os.Stderr, "oodbsim: durable modes need a single -protocol (one WAL dir per run)")
		os.Exit(2)
	}
	if durability != storage.MemOnly && (*wl == "coedit" || *wl == "lockstress") {
		fmt.Fprintf(os.Stderr, "oodbsim: the %s workload is in-memory only and cannot run durably\n", *wl)
		os.Exit(2)
	}
	if *ckptEvery > 0 && durability == storage.MemOnly {
		fmt.Fprintln(os.Stderr, "oodbsim: -checkpoint needs a durable mode (-durability sync-on-commit or group-commit)")
		os.Exit(2)
	}
	if *traceOut != "" && *protocol == "all" {
		fmt.Fprintln(os.Stderr, "oodbsim: -trace needs a single -protocol (each sweep run would overwrite the file)")
		os.Exit(2)
	}
	if *linger > 0 && *metrics == "" {
		fmt.Fprintln(os.Stderr, "oodbsim: -metrics-linger needs -metrics-addr")
		os.Exit(2)
	}

	// One span tracer for the whole run (a sweep's traces share one /trace
	// endpoint and one Chrome export) and one registry: a protocol sweep
	// re-publishes the engine snapshots under the same names, so the
	// endpoint follows whichever engine is live. A nil registry makes each
	// engine create a private one (no endpoint).
	tracer := span.NewTracer(span.Options{SampleEvery: *spanSample})
	var reg *obs.Registry
	var stopMetrics func() error
	if *metrics != "" {
		reg = obs.New()
		// Mount /trace here, not just via the engine: lockstress has no
		// engine but still records traces. /fault controls the process-wide
		// failpoint registry at runtime (GET lists, ?arm= / ?disarm= change).
		reg.Handle("/trace", tracer.Handler())
		reg.Handle("/fault", fault.Default.Handler())
		bound, shutdown, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbsim: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		stopMetrics = shutdown
		fmt.Fprintf(os.Stderr, "oodbsim: serving metrics at http://%s/metrics\n", bound)
	}

	var kinds []core.ProtocolKind
	var names []string
	if *protocol == "all" {
		names = []string{"open-nested", "closed-nested", "2pl-page", "2pl-object"}
		for _, n := range names {
			kinds = append(kinds, protocols[n])
		}
	} else {
		k, ok := protocols[*protocol]
		if !ok {
			fmt.Fprintf(os.Stderr, "oodbsim: unknown protocol %q\n", *protocol)
			os.Exit(2)
		}
		kinds = append(kinds, k)
		names = append(names, *protocol)
	}
	if *wl == "lockstress" {
		// Lockstress hammers the lock table directly; there is no engine
		// and no protocol to sweep.
		kinds, names = kinds[:1], []string{"lock-table"}
	}

	var results []workload.Result
	for i, kind := range kinds {
		var res workload.Result
		var err error
		engine := core.Options{
			Protocol:           kind,
			PageIODelay:        *ioDelay,
			Durability:         durability,
			WALDir:             *walDir,
			CheckpointInterval: *ckptEvery,
			Obs:                reg,
			Tracer:             tracer,
		}
		switch *wl {
		case "encyclopedia":
			res, err = workload.RunEncyclopedia(workload.Config{
				Engine:        engine,
				Workers:       *workers,
				TxnsPerWorker: *txns,
				OpsPerTxn:     *ops,
				Keys:          *keys,
				ZipfS:         *zipf,
				TreeFanout:    *fanout,
				Preload:       *keys / 2,
				Seed:          *seed,
				Validate:      *validate,
				TraceFile:     *traceOut,
			})
		case "coedit":
			res, err = workload.RunCoEdit(workload.CoEditConfig{
				Engine:         engine,
				Authors:        *workers,
				EditsPerAuthor: *txns,
				Sections:       *sections,
				EditWork:       200 * time.Microsecond,
				Seed:           *seed,
				Validate:       *validate,
			})
		case "banking":
			res, err = workload.RunBanking(workload.BankingConfig{
				Engine:        engine,
				Workers:       *workers,
				TxnsPerWorker: *txns,
				Accounts:      *accounts,
				HotPct:        *hot,
				Seed:          *seed,
				Validate:      *validate,
			})
		case "lockstress":
			res, err = workload.RunLockStress(workload.LockStressConfig{
				Goroutines:       *workers,
				TxnsPerGoroutine: *txns,
				ConflictPct:      *conflict,
				Shards:           *shards,
				HoldDelay:        *hold,
				Seed:             *seed,
				Obs:              reg,
				Tracer:           tracer,
			})
		default:
			fmt.Fprintf(os.Stderr, "oodbsim: unknown workload %q\n", *wl)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbsim: %s under %s: %v\n", *wl, names[i], err)
			os.Exit(1)
		}
		results = append(results, res)
	}

	fmt.Print(workload.Table(results))
	if *validate {
		fmt.Println()
		for i, r := range results {
			fmt.Printf("%-13s oo-serializable=%v conventional=%v semanticConflicts=%d conventionalConflicts=%d\n",
				names[i], r.OOSerializable, r.ConvSerializable, r.SemanticConflicts, r.ConventionalConflicts)
		}
	}
	if *blame > 0 {
		aborted := tracer.Aborted(*blame)
		fmt.Println()
		if len(aborted) == 0 {
			fmt.Println("no aborted transactions retained — nothing to blame")
		}
		for _, t := range aborted {
			span.WriteBlame(os.Stdout, t)
		}
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err == nil {
			err = span.WriteChrome(f, tracer.Completed(0), tracer.EngineSpans())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbsim: writing %s: %v\n", *chromeOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "oodbsim: wrote Chrome trace to %s\n", *chromeOut)
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "oodbsim: metrics endpoint up for another %s\n", *linger)
		time.Sleep(*linger)
	}
	if stopMetrics != nil {
		_ = stopMetrics()
	}
}
