// Command oodbd serves the engine over TCP: the internal/wire frame
// protocol on -addr (sessions, transactions, admission control — see
// internal/server), with the observability endpoints (/metrics,
// /debug/vars, /events, /fault) folded into the same process on
// -metrics-addr.
//
// Usage examples:
//
//	oodbd -addr :7437 -install banking -max-inflight 256 -metrics-addr :7438
//	oodbd -addr :7437 -install encyclopedia -durability group-commit -waldir /var/lib/oodb/wal
//	oodbd -addr :7437 -partitions 4 -install banking
//
// With -partitions N > 1 the engine is a partition.Cluster: N independent
// engines (own buffer pool, lock shards, WAL dir <waldir>/p<i>, admission
// controller) behind the session layer's object-name router. A durable
// partitioned server restarts by recovering every partition from its own
// p<i> directory.
//
// With -repl-node the process is one member of a replicated cluster
// (internal/repl): the WAL is replicated to the peers listed in
// -repl-peers, commits wait for quorum, and the session layer serves
// writes only while this node leads — a replica answers BEGIN read-only
// and refuses writes with a typed not-leader redirect naming the leader's
// client address. Replication runs its own transport on -repl-addr,
// separate from the client port:
//
//	oodbd -addr :7437 -metrics-addr :7438 -durability group-commit -waldir /var/lib/oodb/n0 \
//	  -repl-node n0 -repl-addr :7447 -repl-peers n1=host2:7447,n2=host3:7447
//
// SIGINT/SIGTERM triggers the drain shutdown: stop accepting, abort
// in-flight sessions (their admission slots release), then close the
// engine so the WAL ends at a clean commit boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// parseReplPeers parses "-repl-peers n1=host:port,n2=host:port".
func parseReplPeers(s string) ([]repl.Peer, error) {
	if s == "" {
		return nil, nil
	}
	var peers []repl.Peer
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -repl-peers entry %q (want id=host:port)", part)
		}
		peers = append(peers, repl.Peer{ID: id, Addr: addr})
	}
	return peers, nil
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
		addr         = flag.String("addr", "127.0.0.1:7437", "serve the wire protocol on this host:port (port 0 picks a free port)")
		metrics      = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /events and /fault on this host:port")
		protocol     = flag.String("protocol", "open-nested", "protocol: open-nested | 2pl-page | 2pl-object | closed-nested | none")
		install      = flag.String("install", "banking", "preinstalled schema: banking | encyclopedia | none")
		accounts     = flag.Int("accounts", 16, "accounts to fund (banking schema)")
		balance      = flag.Int64("balance", 1_000_000, "initial balance per account (banking schema)")
		fanout       = flag.Int("fanout", 100, "B+ tree node capacity (encyclopedia schema)")
		spine        = flag.Int("spine", 50, "sequential-read spine capacity (encyclopedia schema)")
		lockTimeout  = flag.Duration("lock-timeout", 10*time.Second, "lock wait bound before a typed lock-timeout refusal")
		maxInflight  = flag.Int("max-inflight", 256, "admission-control slots: concurrently admitted transactions (0 = unbounded)")
		admitTimeout = flag.Duration("admission-timeout", time.Second, "how long a BEGIN may queue for a slot before the typed overload refusal")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "reap sessions silent this long (open transactions abort)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "bound on waiting out sessions during shutdown")
		ioDelay      = flag.Duration("io", 0, "simulated page I/O latency")
		durMode      = flag.String("durability", "mem-only", "WAL durability: mem-only | sync-on-commit | group-commit")
		walDir       = flag.String("waldir", "", "WAL segment directory (required for durable modes; must be empty/new)")
		ckptEvery    = flag.Duration("checkpoint", 0, "fuzzy-checkpoint interval (durable modes only; 0 = off)")
		partitions   = flag.Int("partitions", 1, "independent engine partitions behind the object-name router (durable: WAL under <waldir>/p<i>)")
		doRecover    = flag.Bool("recover", false, "restart a durable partitioned server over existing p<i> WAL dirs instead of refusing them")
		slowQuery    = flag.Duration("slow-query", 0, "slow-query threshold: transactions alive this long tick engine.slow_txns, land on the flight recorder, and pin their span trace for /trace/slow (0 = off)")
		spanSample   = flag.Int("span-sample", 0, "trace one in every N transactions (0 or 1 = every transaction)")
		lingerDur    = flag.Duration("metrics-linger", 0, "keep the metrics endpoint (and its draining /healthz) up this long after the drain completes")

		replNode      = flag.String("repl-node", "", "node id in a replicated cluster (e.g. n0); empty = replication off")
		replAddr      = flag.String("repl-addr", "", "replication transport listen address (repl mode; empty = ephemeral loopback port)")
		replPeers     = flag.String("repl-peers", "", "other cluster members as id=host:port, comma-separated (repl mode)")
		replAdvertise = flag.String("repl-advertise", "", "client address carried in leader redirect hints (default: the bound -addr)")
	)
	flag.Parse()

	durability, err := storage.ParseDurability(*durMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oodbd: %v\n", err)
		os.Exit(2)
	}
	if durability != storage.MemOnly && *walDir == "" {
		fmt.Fprintln(os.Stderr, "oodbd: -durability", *durMode, "needs -waldir")
		os.Exit(2)
	}
	if durability == storage.MemOnly && *walDir != "" {
		fmt.Fprintln(os.Stderr, "oodbd: -waldir has no effect with -durability mem-only")
		os.Exit(2)
	}
	kind, ok := protocols[*protocol]
	if !ok {
		fmt.Fprintf(os.Stderr, "oodbd: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}

	// One registry for the whole process: the engine's counters, the
	// server's session metrics and the failpoint control surface share one
	// endpoint. It is served only after the cluster and session layer are
	// built, so every mount they install (/trace, /metrics/prom, /healthz)
	// is wired into the handler.
	reg := obs.New()

	n := *partitions
	if n < 1 {
		n = 1
	}
	if *doRecover && durability == storage.MemOnly {
		fmt.Fprintln(os.Stderr, "oodbd: -recover needs a durable -durability mode")
		os.Exit(2)
	}
	if *doRecover && *install == "encyclopedia" {
		// The encyclopedia installer creates the object (a write); a
		// write-free register for its module stack does not exist yet.
		fmt.Fprintln(os.Stderr, "oodbd: -recover supports -install banking | none only")
		os.Exit(2)
	}
	if *replNode != "" {
		// Replication constraints: the replicated log IS the WAL, so the
		// engine must be durable; promotion recovers the directory itself, so
		// -recover is redundant; and the log is one stream, so one partition.
		switch {
		case durability == storage.MemOnly:
			fmt.Fprintln(os.Stderr, "oodbd: -repl-node needs a durable -durability mode and -waldir")
			os.Exit(2)
		case n != 1:
			fmt.Fprintln(os.Stderr, "oodbd: -repl-node requires -partitions 1 (the replicated log is a single WAL stream)")
			os.Exit(2)
		case *doRecover:
			fmt.Fprintln(os.Stderr, "oodbd: -recover has no effect with -repl-node (promotion recovers the WAL itself)")
			os.Exit(2)
		case *install == "encyclopedia":
			fmt.Fprintln(os.Stderr, "oodbd: -repl-node supports -install banking | none only (needs a write-free register hook)")
			os.Exit(2)
		}
	}

	opts := core.Options{
		Protocol:           kind,
		LockTimeout:        *lockTimeout,
		MaxInflight:        *maxInflight,
		AdmissionTimeout:   *admitTimeout,
		PageIODelay:        *ioDelay,
		Durability:         durability,
		CheckpointInterval: *ckptEvery,
		// A server process never runs the offline validator; recording every
		// action for it would grow memory without bound.
		DisableTrace:     true,
		SpanSampleEvery:  *spanSample,
		SlowTxnThreshold: *slowQuery,
	}

	// The client listener is bound before anything is opened, so a replica
	// advertises the address clients can reach: with -addr host:0, the port
	// the kernel assigned, not port 0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oodbd: listen: %v\n", err)
		os.Exit(1)
	}

	var (
		cluster *partition.Cluster
		node    *repl.Node
		srv     *server.Server
	)
	if *replNode != "" {
		peers, perr := parseReplPeers(*replPeers)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "oodbd: %v\n", perr)
			os.Exit(2)
		}
		advertise := *replAdvertise
		if advertise == "" {
			advertise = ln.Addr().String()
		}
		// OpenEngine runs at promotion: a fresh directory gets the funded
		// schema, a restart (or a deposed leader rejoining) recovers what the
		// replicated WAL holds, registering the types write-free.
		openEngine := func(dir string, fresh bool) (*core.DB, error) {
			eopts := opts
			eopts.WALDir = dir
			eopts.Obs = reg
			if fresh {
				db, oerr := core.OpenDurable(eopts)
				if oerr != nil {
					return nil, oerr
				}
				if *install == "banking" {
					if _, ierr := workload.InstallBanking(db, *accounts, *balance); ierr != nil {
						db.Close()
						return nil, ierr
					}
				}
				return db, nil
			}
			db, rep, rerr := recovery.RecoverDir(dir, eopts, func(db *core.DB) error {
				if *install == "banking" {
					_, herr := workload.RegisterBanking(db, *accounts)
					return herr
				}
				return nil
			})
			if rerr == nil {
				fmt.Fprintf(os.Stderr, "oodbd: promotion recovered %s: %d winners, %d losers, %d redone\n",
					dir, len(rep.Winners), len(rep.Losers), rep.Redone)
			}
			return db, rerr
		}
		node, err = repl.Open(repl.Config{
			ID:         *replNode,
			Addr:       *replAddr,
			Advertise:  advertise,
			Peers:      peers,
			Dir:        *walDir,
			OpenEngine: openEngine,
			Durability: durability,
			Obs:        reg,
			// Role transitions go to stdout as single greppable lines —
			// cmd/chaos parents parse these to find the leader to kill.
			OnRole: func(role repl.Role, term uint64) {
				fmt.Printf("oodbd: repl role=%s term=%d node=%s\n", role, term, *replNode)
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "oodbd: repl: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbd: open replica: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "oodbd: replica %s: transport %s, %d peer(s), advertising %s\n",
			*replNode, node.Addr(), len(peers), advertise)
		srv = server.NewReplicated(node, reg, server.Options{IdleTimeout: *idleTimeout})
	} else {
		// Every schema installer below also serves as the Recover register
		// hook for -recover, so it must be write-free there: RegisterBanking
		// only registers the type; the funding happens on the fresh path.
		register := func(i int, db *core.DB) error {
			switch *install {
			case "banking":
				if *doRecover {
					_, err := workload.RegisterBanking(db, *accounts)
					return err
				}
				_, err := workload.InstallBanking(db, *accounts, *balance)
				return err
			case "encyclopedia":
				name := partition.NameFor("Enc", i, n)
				_, err := workload.InstallEncyclopediaNamed(db, name, *fanout, *spine)
				return err
			case "none":
				return nil
			}
			return fmt.Errorf("unknown schema %q", *install)
		}
		popts := partition.Options{
			N:        n,
			Engine:   opts,
			WALRoot:  *walDir,
			Obs:      reg,
			Register: register,
		}
		if *doRecover {
			var reports []recovery.Report
			cluster, reports, err = partition.Recover(popts)
			if err == nil {
				for i, rep := range reports {
					fmt.Fprintf(os.Stderr, "oodbd: recovered p%d: %d winners, %d losers, %d redone\n",
						i, len(rep.Winners), len(rep.Losers), rep.Redone)
				}
			}
		} else {
			cluster, err = partition.Open(popts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbd: open engine: %v\n", err)
			os.Exit(1)
		}
		switch *install {
		case "banking":
			fmt.Fprintf(os.Stderr, "oodbd: banking schema on %d partition(s): %d accounts x %d\n", n, *accounts, *balance)
		case "encyclopedia":
			fmt.Fprintf(os.Stderr, "oodbd: encyclopedia schema on %d partition(s)\n", n)
		}
		srv = server.NewCluster(cluster, server.Options{IdleTimeout: *idleTimeout})
	}
	bound, err := srv.Serve(ln)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oodbd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("oodbd: serving %s protocol on %s\n", *protocol, bound)

	var stopMetrics func() error
	if *metrics != "" {
		reg.Handle("/fault", fault.Default.Handler())
		reg.Handle("/healthz", srv.HealthzHandler())
		if node != nil {
			// Stamp every sample with this node's identity so a scraper
			// aggregating the cluster can tell the replicas apart.
			reg.Handle("/metrics/prom", obs.PromHandler([]obs.PromSource{
				{Label: fmt.Sprintf("node=%q", *replNode), Reg: reg},
			}))
		}
		pp := http.NewServeMux()
		pp.HandleFunc("/debug/pprof/", pprof.Index)
		pp.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pp.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pp.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pp.HandleFunc("/debug/pprof/trace", pprof.Trace)
		reg.Handle("/debug/pprof", pp)
		mbound, shutdown, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbd: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		stopMetrics = shutdown
		fmt.Fprintf(os.Stderr, "oodbd: serving metrics at http://%s/metrics (also /metrics/prom, /healthz, /trace, /debug/pprof)\n", mbound)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "oodbd: %s — draining (up to %s)\n", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "oodbd: shutdown: %v\n", err)
		if stopMetrics != nil {
			_ = stopMetrics()
		}
		os.Exit(1)
	}
	if node != nil {
		// The replica owns its engine (the session layer only borrowed it);
		// closing the node flushes and closes whatever state it holds.
		if err := node.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "oodbd: close replica: %v\n", err)
			os.Exit(1)
		}
	} else if h := cluster.Health(); h.Inflight != 0 {
		fmt.Fprintf(os.Stderr, "oodbd: BUG: %d admission slots leaked through drain\n", h.Inflight)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "oodbd: drained; engine closed cleanly")
	if stopMetrics != nil {
		if *lingerDur > 0 {
			// The observability endpoint outlives the drain so scrapers (and
			// the e2e tracing test) can read the final state: /healthz
			// reports draining, /trace and /metrics/prom still answer.
			fmt.Fprintf(os.Stderr, "oodbd: metrics endpoint lingering %s\n", *lingerDur)
			time.Sleep(*lingerDur)
		}
		_ = stopMetrics()
	}
}
