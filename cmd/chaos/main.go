// Command chaos closes the fault-injection loop: it runs an
// increment-only workload while arming failpoints mid-flight, then checks
// the three robustness invariants the degradation policies promise:
//
//  1. No committed data lost — every acknowledged increment survives,
//     including across a poison-and-restart cycle (recovered ≥ acked,
//     per account).
//  2. The engine either serves or reports — every operation ends in a
//     commit ack or a typed error (ErrOverloaded, ErrWALPoisoned, a lock
//     fault); nothing hangs and nothing fails silently.
//  3. No permanent livelock — once the faults are disarmed (or the engine
//     restarted), new transactions commit again.
//
// Rounds:
//
//	lock-delay     — lock.acquire delays stretch every conflict window
//	random         — a seeded pick of I/O and lock failpoints, armed mid-run
//	overload       — MaxInflight admission control under a slow lock path
//	fsync-error    — wal.fsync poisons the durable WAL mid-run; verify
//	                 rejection, restart recovery, and the no-loss invariant
//	leader-kill    — a real 3-process replicated cluster (chaos re-execs
//	                 itself as the replicas) takes client traffic while the
//	                 leader is SIGKILLed mid-burst, -iters times in a row;
//	                 after every failover the new leader must hold every
//	                 quorum-acked commit (recovered ≥ acked, per account)
//	                 and at most acked + commits-in-doubt (no doubling)
//	repl-partition — in-process 3-node cluster; the leader is isolated from
//	                 its peers mid-run, must abdicate, and the healed
//	                 cluster must conserve every acked increment
//	crash          — a real child process (chaos re-execs itself) runs
//	                 banking transfers on a durable engine and is SIGKILLed,
//	                 -iters times on one WAL directory; each partition's
//	                 WAL must then recover conserving money, idempotently,
//	                 from the newest complete checkpoint, and never empty
//	                 once funded. -checkpoint also cycles the kills through
//	                 the ckpt.write / ckpt.truncate delay faults
//
// leader-kill, repl-partition and crash spawn child processes or bind
// kernel-assigned loopback ports and are not part of -round all — run them
// explicitly (go test -tags e2e ./e2e does).
//
// Usage:
//
//	chaos [-seed N] [-workers N] [-txns N] [-accounts N] [-round name] [-iters N]
//	chaos -round crash [-iters N] [-checkpoint D] [-partitions N]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	var (
		seed     = flag.Int64("seed", time.Now().UnixNano()%1_000_000, "random seed (failpoint picks and workload)")
		workers  = flag.Int("workers", 8, "concurrent workers")
		txns     = flag.Int("txns", 150, "transactions per worker and round")
		accounts = flag.Int("accounts", 8, "independent counters (one page each)")
		round    = flag.String("round", "all", "round: lock-delay | random | overload | fsync-error | leader-kill | repl-partition | crash | all")
		iters    = flag.Int("iters", 20, "leader-kill, crash: consecutive kill/verify iterations")
		ckpt     = flag.Duration("checkpoint", 0, "crash: fuzzy-checkpoint interval in the child (0 = off); kills then also cycle through ckpt.write / ckpt.truncate delay faults")
		parts    = flag.Int("partitions", 1, "crash: engine partitions in the child (WAL under <dir>/p<i>), each verified independently")

		replChild     = flag.Bool("repl-child", false, "internal: run as a leader-kill replica child process")
		childNode     = flag.String("child-node", "", "internal: child node id")
		childDir      = flag.String("child-dir", "", "internal: child WAL directory")
		childAddr     = flag.String("child-addr", "", "internal: child client address")
		childReplAddr = flag.String("child-repl-addr", "", "internal: child replication address")
		childPeers    = flag.String("child-peers", "", "internal: child peers (id=addr,...)")
		crashChild    = flag.Bool("crash-child", false, "internal: run as a crash-round workload child")
		childRound    = flag.Int("child-round", 0, "internal: crash-round number of the child")
	)
	flag.Parse()
	cfg := chaosConfig{seed: *seed, workers: *workers, txns: *txns, accounts: *accounts, iters: *iters,
		checkpoint: *ckpt, partitions: *parts}
	if *replChild {
		runReplChild(*childNode, *childDir, *childAddr, *childReplAddr, *childPeers, *accounts)
		return
	}
	if *crashChild {
		err := runCrashChild(cfg, *childDir, *childRound)
		fmt.Fprintf(os.Stderr, "chaos crash child: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chaos: seed=%d workers=%d txns=%d accounts=%d\n", *seed, *workers, *txns, *accounts)

	rounds := []struct {
		name string
		run  func(cfg chaosConfig) error
		// byName rounds spawn child processes or a replicated cluster;
		// -round all skips them.
		byName bool
	}{
		{"lock-delay", runLockDelay, false},
		{"random", runRandomFaults, false},
		{"overload", runOverload, false},
		{"fsync-error", runFsyncError, false},
		{"leader-kill", runLeaderKill, true},
		{"repl-partition", runReplPartition, true},
		{"crash", runCrash, true},
	}
	failed := false
	for _, r := range rounds {
		if *round != r.name && (*round != "all" || r.byName) {
			continue
		}
		fault.Default.DisarmAll()
		start := time.Now()
		err := r.run(cfg)
		fault.Default.DisarmAll()
		if err != nil {
			failed = true
			fmt.Printf("chaos: round %-12s FAIL (%v): %v\n", r.name, time.Since(start).Round(time.Millisecond), err)
		} else {
			fmt.Printf("chaos: round %-12s ok   (%v)\n", r.name, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}

type chaosConfig struct {
	seed       int64
	workers    int
	txns       int
	accounts   int
	iters      int
	checkpoint time.Duration
	partitions int
}

// counters tracks, per account, how many increments were acknowledged by
// Commit. It is the ground truth every invariant is checked against.
type counters struct {
	acked []atomic.Int64
}

func newCounters(n int) *counters { return &counters{acked: make([]atomic.Int64, n)} }

// increment runs one acknowledged +1 on the given account page through
// RunWithRetry; a nil return means the commit was acked (and counted).
func increment(db *core.DB, page txn.OID, c *counters, idx int) error {
	err := db.RunWithRetry(core.RetryPolicy{MaxAttempts: 50}, func(tx *core.Txn) error {
		v, err := tx.Exec(page, "readx")
		if err != nil {
			return err
		}
		n := int64(0)
		if v != "" {
			if n, err = strconv.ParseInt(v, 10, 64); err != nil {
				return err
			}
		}
		_, err = tx.Exec(page, "write", strconv.FormatInt(n+1, 10))
		return err
	})
	if err == nil {
		c.acked[idx].Add(1)
	}
	return err
}

// readBalances sums the counter pages through read-only transactions
// (which must work even in degraded mode).
func readBalances(db *core.DB, pages []txn.OID) ([]int64, error) {
	out := make([]int64, len(pages))
	for i, p := range pages {
		tx := db.Begin()
		v, err := tx.Exec(p, "read")
		if err != nil {
			_ = tx.Abort()
			return nil, fmt.Errorf("reading account %d: %w", i, err)
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("read-only commit on account %d: %w", i, err)
		}
		if v != "" {
			if out[i], err = strconv.ParseInt(v, 10, 64); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// drive runs the increment workload across workers; faultAt, when > 0,
// arms the given failpoints after that many total attempts. It returns
// the per-error-class counts (keyed by a short label).
func drive(db *core.DB, pages []txn.OID, c *counters, cfg chaosConfig, faultAt int64, arm []string) map[string]int64 {
	var attempts atomic.Int64
	var armOnce sync.Once
	classes := struct {
		sync.Mutex
		m map[string]int64
	}{m: make(map[string]int64)}
	count := func(k string) {
		classes.Lock()
		classes.m[k]++
		classes.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			for i := 0; i < cfg.txns; i++ {
				if faultAt > 0 && attempts.Add(1) == faultAt {
					armOnce.Do(func() {
						for _, kv := range arm {
							if err := fault.Default.ArmString(kv); err != nil {
								panic(err)
							}
						}
					})
				}
				idx := rr.Intn(len(pages))
				err := increment(db, pages[idx], c, idx)
				switch {
				case err == nil:
					count("acked")
				case errors.Is(err, core.ErrOverloaded):
					count("overloaded")
				case errors.Is(err, storage.ErrWALPoisoned):
					count("poisoned")
					return // degraded: this worker is done writing
				default:
					count("other:" + firstLine(err))
				}
			}
		}(w)
	}
	wg.Wait()
	classes.Lock()
	defer classes.Unlock()
	return classes.m
}

func firstLine(err error) string {
	s := err.Error()
	if len(s) > 60 {
		s = s[:60]
	}
	return s
}

// verifyConservation checks invariant 1 on a live engine: every page's
// balance equals the acked increments exactly (mem-only rounds: nothing is
// in doubt, a rolled-back transaction must not leave a partial increment).
func verifyConservation(db *core.DB, pages []txn.OID, c *counters) error {
	bals, err := readBalances(db, pages)
	if err != nil {
		return err
	}
	for i, b := range bals {
		if want := c.acked[i].Load(); b != want {
			return fmt.Errorf("account %d: balance %d != %d acked increments", i, b, want)
		}
	}
	return nil
}

// verifyLiveness checks invariant 3: with all faults disarmed, one more
// increment per account must succeed.
func verifyLiveness(db *core.DB, pages []txn.OID, c *counters) error {
	fault.Default.DisarmAll()
	for i, p := range pages {
		if err := increment(db, p, c, i); err != nil {
			return fmt.Errorf("post-disarm increment on account %d: %w", i, err)
		}
	}
	return nil
}

func openMem(cfg chaosConfig, maxInflight int, admitTimeout time.Duration) (*core.DB, []txn.OID) {
	db := core.Open(core.Options{
		DisableTrace:     true,
		DisableSpans:     true,
		LockTimeout:      5 * time.Second,
		MaxInflight:      maxInflight,
		AdmissionTimeout: admitTimeout,
	})
	pages := make([]txn.OID, cfg.accounts)
	for i := range pages {
		pages[i] = db.AllocPage()
	}
	return db, pages
}

// runLockDelay stretches every lock acquire by a random delay on a
// fifth of the acquires — conflict windows widen, deadlock/timeout retries
// fire, and yet no increment may be lost or doubled.
func runLockDelay(cfg chaosConfig) error {
	db, pages := openMem(cfg, 0, 0)
	c := newCounters(cfg.accounts)
	classes := drive(db, pages, c, cfg, 1, []string{
		fmt.Sprintf("lock.acquire=delay(200us);p=0.2;seed=%d", cfg.seed),
	})
	if classes["acked"] == 0 {
		return fmt.Errorf("nothing committed under lock delays: %v", classes)
	}
	if err := verifyConservation(db, pages, c); err != nil {
		return err
	}
	return verifyLiveness(db, pages, c)
}

// runRandomFaults arms a seeded pick of failpoints mid-run (invariant 2:
// every attempt must end acked or typed, never hung) and re-checks
// conservation and liveness.
func runRandomFaults(cfg chaosConfig) error {
	menu := []string{
		fmt.Sprintf("store.read=error(chaos read);p=0.02;seed=%d", cfg.seed),
		fmt.Sprintf("lock.acquire=delay(500us);p=0.1;seed=%d", cfg.seed),
		fmt.Sprintf("lock.acquire=error(chaos acquire);p=0.02;seed=%d", cfg.seed),
		fmt.Sprintf("store.read=delay(1ms);p=0.05;seed=%d", cfg.seed),
	}
	rr := rand.New(rand.NewSource(cfg.seed))
	picks := []string{menu[rr.Intn(2)], menu[2+rr.Intn(2)]}
	fmt.Printf("chaos:   random picks: %v\n", picks)

	db, pages := openMem(cfg, 0, 0)
	c := newCounters(cfg.accounts)
	mid := max(int64(cfg.workers*cfg.txns)/3, 1)
	classes := drive(db, pages, c, cfg, mid, picks)
	if classes["acked"] == 0 {
		return fmt.Errorf("nothing committed under random faults: %v", classes)
	}
	fault.Default.DisarmAll()
	if err := verifyConservation(db, pages, c); err != nil {
		return err
	}
	return verifyLiveness(db, pages, c)
}

// runOverload pairs a small MaxInflight with a slowed lock path: admission
// waits time out with ErrOverloaded (typed, invariant 2), everything acked
// is conserved, and the engine drains normally once the drag is gone.
func runOverload(cfg chaosConfig) error {
	db, pages := openMem(cfg, 2, 3*time.Millisecond)
	c := newCounters(cfg.accounts)
	classes := drive(db, pages, c, cfg, 1, []string{
		fmt.Sprintf("lock.acquire=delay(2ms);p=0.5;seed=%d", cfg.seed),
	})
	fmt.Printf("chaos:   overload classes: acked=%d overloaded=%d\n", classes["acked"], classes["overloaded"])
	if classes["acked"] == 0 {
		return fmt.Errorf("nothing committed under overload: %v", classes)
	}
	if db.Degraded() != nil {
		return fmt.Errorf("overload must not degrade the engine")
	}
	if err := verifyConservation(db, pages, c); err != nil {
		return err
	}
	if err := verifyLiveness(db, pages, c); err != nil {
		return err
	}
	if classes["overloaded"] > 0 && db.Health().Overloads == 0 {
		return fmt.Errorf("ErrOverloaded returned but engine.overloads metric is zero")
	}
	return nil
}

// runFsyncError is the acceptance round: a durable engine runs the
// increment workload, wal.fsync starts failing mid-run, the WAL poisons,
// writers are rejected with ErrWALPoisoned, reads still serve — then the
// process "restarts" via RecoverDir and every acked increment must be
// recovered (per account, recovered ≥ acked; nothing silently lost).
func runFsyncError(cfg chaosConfig) error {
	dir, err := os.MkdirTemp("", "chaos-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := core.Options{
		DisableTrace: true,
		DisableSpans: true,
		LockTimeout:  5 * time.Second,
		Durability:   storage.GroupCommit,
		WALDir:       dir,
	}
	db, err := core.OpenDurable(opts)
	if err != nil {
		return err
	}
	pages := make([]txn.OID, cfg.accounts)
	for i := range pages {
		pages[i] = db.AllocPage()
	}
	c := newCounters(cfg.accounts)
	mid := int64(cfg.workers*cfg.txns) / 2
	classes := drive(db, pages, c, cfg, mid, []string{"wal.fsync=error(chaos fsync)"})
	fmt.Printf("chaos:   fsync classes: acked=%d poisoned=%d\n", classes["acked"], classes["poisoned"])
	if classes["poisoned"] == 0 {
		return fmt.Errorf("no writer observed ErrWALPoisoned: %v", classes)
	}
	if db.Degraded() == nil {
		return fmt.Errorf("engine not degraded after WAL poison")
	}
	// Invariant 2, degraded half: reads still serve while writes are refused.
	if _, err := readBalances(db, pages); err != nil {
		return fmt.Errorf("degraded engine refused reads: %w", err)
	}
	wtx := db.Begin()
	if _, err := wtx.Exec(pages[0], "write", "evil"); err != nil {
		return err
	}
	if err := wtx.Commit(); !errors.Is(err, storage.ErrWALPoisoned) {
		return fmt.Errorf("degraded engine accepted a write-commit: %v", err)
	}
	_ = db.Close()
	fault.Default.DisarmAll()

	// Restart. Recovery replays the durable log; invariant 1: nothing acked
	// may be missing.
	db2, rep, err := recovery.RecoverDir(dir, opts, func(*core.DB) error { return nil })
	if err != nil {
		return fmt.Errorf("recovery after poison: %w", err)
	}
	defer db2.Close()
	bals, err := readBalances(db2, pages)
	if err != nil {
		return err
	}
	for i, b := range bals {
		if acked := c.acked[i].Load(); b < acked {
			return fmt.Errorf("SILENT LOSS on account %d: recovered %d < acked %d (winners=%d losers=%d)",
				i, b, acked, len(rep.Winners), len(rep.Losers))
		}
	}
	// Invariant 3: the recovered engine acknowledges commits again.
	for i := range bals {
		c.acked[i].Store(bals[i])
	}
	for i, p := range pages {
		if err := increment(db2, p, c, i); err != nil {
			return fmt.Errorf("post-recovery increment on account %d: %w", i, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The banking schema the replication and crash rounds share.

// acct names banking account i (workload.RegisterBanking's "Acct<i>").
func acct(i int) txn.OID {
	return txn.OID{Type: workload.AccountType, Name: "Acct" + strconv.Itoa(i)}
}

// balance reads account i's balance in a transaction of its own.
func balance(db *core.DB, i int) (bal int64, err error) {
	err = db.RunWithRetry(core.RetryPolicy{MaxAttempts: 10}, func(tx *core.Txn) error {
		s, err := tx.Exec(acct(i), "balance")
		if err == nil {
			bal, err = strconv.ParseInt(s, 10, 64)
		}
		return err
	})
	return bal, err
}

// registerBank is the write-free recovery hook for the banking schema.
func registerBank(accounts int) recovery.RegisterTypes {
	return func(db *core.DB) error {
		_, err := workload.RegisterBanking(db, accounts)
		return err
	}
}

// ---------------------------------------------------------------------------
// leader-kill: a real replicated cluster under repeated leader SIGKILL.

// replBankOpen is the promotion hook both replication rounds share: fresh
// directories get an unfunded banking schema, restarts recover it.
func replBankOpen(accounts int) func(dir string, fresh bool) (*core.DB, error) {
	return func(dir string, fresh bool) (*core.DB, error) {
		opts := core.Options{
			DisableTrace: true,
			DisableSpans: true,
			LockTimeout:  5 * time.Second,
			Durability:   storage.GroupCommit,
			WALDir:       dir,
		}
		if fresh {
			db, err := core.OpenDurable(opts)
			if err != nil {
				return nil, err
			}
			if _, err := workload.InstallBanking(db, accounts, 0); err != nil {
				db.Close()
				return nil, err
			}
			return db, nil
		}
		db, _, err := recovery.RecoverDir(dir, opts, registerBank(accounts))
		return db, err
	}
}

// runReplChild is the -repl-child entry point: one replica process — a
// repl.Node fronted by a replicated session layer — that reports role
// transitions on stdout ("role=<r> term=<t>") for the parent to parse and
// then waits to be SIGKILLed.
func runReplChild(id, dir, addr, replAddr, peerList string, accounts int) {
	var peers []repl.Peer
	for _, part := range strings.Split(peerList, ",") {
		pid, paddr, ok := strings.Cut(part, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "chaos child: bad peer %q\n", part)
			os.Exit(2)
		}
		peers = append(peers, repl.Peer{ID: pid, Addr: paddr})
	}
	node, err := repl.Open(repl.Config{
		ID:         id,
		Addr:       replAddr,
		Advertise:  addr,
		Peers:      peers,
		Dir:        dir,
		OpenEngine: replBankOpen(accounts),
		Durability: storage.GroupCommit,
		OnRole: func(role repl.Role, term uint64) {
			fmt.Printf("role=%s term=%d\n", role, term)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child %s: %v\n", id, err)
		os.Exit(1)
	}
	srv := server.NewReplicated(node, nil, server.Options{})
	if _, err := srv.Start(addr); err != nil {
		fmt.Fprintf(os.Stderr, "chaos child %s: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Println("serving")
	select {} // the parent SIGKILLs us; there is no graceful exit to test
}

// proc is a child process running this binary (the crash and leader-kill
// rounds re-exec chaos with an internal -*-child flag).
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the child has exited
}

// spawnSelf re-execs this binary with args. Every stdout line goes to
// onLine, stderr goes to ours.
func spawnSelf(onLine func(string), args ...string) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			onLine(sc.Text())
		}
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child — no drain, no fsync, no goodbyes — and waits
// until it has exited and its output is consumed.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the child already exited
	<-p.done
}

// childProc is the parent's handle on one replica child: the process plus
// the role/term state parsed from its stdout.
type childProc struct {
	id, dir, addr, replAddr, peers string
	accounts                       int

	mu    sync.Mutex
	p     *proc
	ready bool
	role  string
	term  uint64
}

func (cp *childProc) spawn() error {
	cp.mu.Lock()
	cp.ready, cp.role, cp.term = false, "", 0
	cp.mu.Unlock()
	p, err := spawnSelf(cp.scan, "-repl-child",
		"-child-node", cp.id, "-child-dir", cp.dir,
		"-child-addr", cp.addr, "-child-repl-addr", cp.replAddr,
		"-child-peers", cp.peers, "-accounts", strconv.Itoa(cp.accounts))
	if err != nil {
		return err
	}
	cp.mu.Lock()
	cp.p = p
	cp.mu.Unlock()
	return nil
}

// scan parses one stdout line of the replica child.
func (cp *childProc) scan(line string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if line == "serving" {
		cp.ready = true
	} else if rest, ok := strings.CutPrefix(line, "role="); ok {
		if role, termStr, ok := strings.Cut(rest, " term="); ok {
			if term, err := strconv.ParseUint(termStr, 10, 64); err == nil {
				cp.role, cp.term = role, term
			}
		}
	}
}

func (cp *childProc) state() (alive, ready bool, role string, term uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return !cp.p.exited(), cp.ready, cp.role, cp.term
}

func (cp *childProc) kill() {
	cp.mu.Lock()
	p := cp.p
	cp.mu.Unlock()
	p.kill()
}

// leaderChild returns the alive child currently claiming leadership at the
// highest term, or nil.
func leaderChild(children []*childProc) *childProc {
	var best *childProc
	var bestTerm uint64
	for _, cp := range children {
		alive, _, role, term := cp.state()
		if alive && role == "leader" && term >= bestTerm {
			best, bestTerm = cp, term
		}
	}
	return best
}

// freeAddrs reserves k distinct kernel-assigned loopback addresses.
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close() // held until return, so the k ports differ
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func waitLeaderChild(children []*childProc, timeout time.Duration) (cp *childProc, err error) {
	if !waitUntil(timeout, func() bool { cp = leaderChild(children); return cp != nil }) {
		return nil, fmt.Errorf("no leader within %v", timeout)
	}
	return cp, nil
}

// waitUntil polls cond every 10ms for up to d and reports whether it held.
func waitUntil(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}

// runLeaderKill is the replication acceptance round. One 3-process cluster
// lives through every iteration: clients credit accounts through the
// redirect-following pool, the leader is SIGKILLed mid-burst, and after
// failover the new leader must hold, per account, at least every acked
// credit and at most acked + in-doubt (nothing lost, nothing doubled).
// The killed process then restarts — recovering its WAL and rejoining as
// a follower — before the next iteration kills the next leader.
func runLeaderKill(cfg chaosConfig) error {
	const k = 3
	tmp, err := os.MkdirTemp("", "chaos-repl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// A child keeps its ports across restarts: the peers know it by them.
	ports, err := freeAddrs(2 * k)
	if err != nil {
		return err
	}
	addrs, replAddrs := ports[:k], ports[k:]
	children := make([]*childProc, k)
	for i := range children {
		var peers []string
		for j := range children {
			if j != i {
				peers = append(peers, fmt.Sprintf("n%d=%s", j, replAddrs[j]))
			}
		}
		dir := fmt.Sprintf("%s/n%d", tmp, i) // repl.Open creates it
		children[i] = &childProc{
			id: fmt.Sprintf("n%d", i), dir: dir, addr: addrs[i],
			replAddr: replAddrs[i],
			peers:    strings.Join(peers, ","), accounts: cfg.accounts,
		}
		if err := children[i].spawn(); err != nil {
			return err
		}
	}
	defer func() {
		for _, cp := range children {
			cp.kill()
		}
	}()
	if _, err := waitLeaderChild(children, 15*time.Second); err != nil {
		return err
	}

	cl, err := client.Dial(addrs[0], client.Options{
		PoolSize: cfg.workers, Fallbacks: addrs[1:], Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	policy := client.RetryPolicy{MaxAttempts: 400, MaxBackoff: 25 * time.Millisecond}

	acked := make([]atomic.Int64, cfg.accounts)
	doubt := make([]atomic.Int64, cfg.accounts)
	readBal := func(i int) (bal int64, err error) {
		err = cl.RunWithRetry(policy, func(tx *client.Tx) error {
			s, err := tx.Invoke(workload.AccountType, acct(i).Name, "balance")
			if err == nil {
				bal, err = strconv.ParseInt(s, 10, 64)
			}
			return err
		})
		return bal, err
	}

	burst := max(cfg.workers*cfg.txns/10, 40)
	for it := 0; it < max(cfg.iters, 1); it++ {
		leader, err := waitLeaderChild(children, 15*time.Second)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", it, err)
		}
		// Make sure promotion finished (a read round-trips through the
		// session layer) before the burst starts.
		if _, err := readBal(0); err != nil {
			return fmt.Errorf("iteration %d: pre-burst read: %w", it, err)
		}

		var sent atomic.Int64
		var killOnce sync.Once
		var wg sync.WaitGroup
		perWorker := max(burst/cfg.workers, 1)
		errCh := make(chan error, cfg.workers)
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(cfg.seed + int64(it*1009+w*7919)))
				for i := 0; i < perWorker; i++ {
					if sent.Add(1) == int64(burst/2) {
						killOnce.Do(leader.kill)
					}
					idx := rr.Intn(cfg.accounts)
					err := cl.RunWithRetry(policy, func(tx *client.Tx) error {
						_, err := tx.Invoke(workload.AccountType, acct(idx).Name, "credit", "1")
						return err
					})
					switch {
					case err == nil:
						acked[idx].Add(1)
					case errors.Is(err, client.ErrCommitInDoubt):
						// The kill raced the COMMIT response; the credit may
						// or may not be durable. Reconciled below.
						doubt[idx].Add(1)
					default:
						errCh <- fmt.Errorf("iteration %d worker %d: %w", it, w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		killOnce.Do(leader.kill) // tiny bursts: kill even if the trigger never hit
		close(errCh)
		if err := <-errCh; err != nil {
			return err
		}

		// Failover: a surviving node must take over, and it must hold the
		// acked history. Reads redirect to the NEW leader, so this check is
		// exactly "recovered ≥ acked on the machine that took over".
		newLeader, err := waitLeaderChild(children, 15*time.Second)
		if err != nil {
			return fmt.Errorf("iteration %d: no failover after killing %s: %w", it, leader.id, err)
		}
		var total int64
		for i := 0; i < cfg.accounts; i++ {
			bal, err := readBal(i)
			if err != nil {
				return fmt.Errorf("iteration %d: verify read: %w", it, err)
			}
			a, d := acked[i].Load(), doubt[i].Load()
			if bal < a {
				return fmt.Errorf("iteration %d: SILENT LOSS on account %d: new leader %s has %d < %d acked",
					it, i, newLeader.id, bal, a)
			}
			if bal > a+d {
				return fmt.Errorf("iteration %d: DOUBLE COMMIT on account %d: new leader %s has %d > %d acked + %d in doubt",
					it, i, newLeader.id, bal, a, d)
			}
			// In-doubt credits are now resolved either way; fold them into
			// the ground truth (the documented reconcile-by-reading contract).
			acked[i].Store(bal)
			doubt[i].Store(0)
			total += bal
		}

		// Restart the killed process: it recovers its WAL and rejoins, so
		// the next iteration again kills a leader out of a full cluster.
		if err := leader.spawn(); err != nil {
			return fmt.Errorf("iteration %d: restart %s: %w", it, leader.id, err)
		}
		if !waitUntil(15*time.Second, func() bool { _, ready, _, _ := leader.state(); return ready }) {
			return fmt.Errorf("iteration %d: restarted %s never came back", it, leader.id)
		}
		fmt.Printf("chaos:   iter %2d: killed %s, %s took over (acked total %d)\n", it, leader.id, newLeader.id, total)
	}
	return nil
}

// ---------------------------------------------------------------------------
// repl-partition: in-process cluster, leader isolated from its peers.

// runReplPartition isolates the leader instead of killing it: its quorum
// waits time out, it abdicates (commits fail typed, never silently), the
// majority elects a successor, and once healed the old leader rejoins as
// a follower. Every acked increment must survive on the new leader.
func runReplPartition(cfg chaosConfig) error {
	const k = 3
	tmp, err := os.MkdirTemp("", "chaos-part-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Reserve repl transport ports so each node can name its peers.
	addrs, err := freeAddrs(k)
	if err != nil {
		return err
	}
	nodes := make([]*repl.Node, k)
	for i := 0; i < k; i++ {
		var peers []repl.Peer
		for j := 0; j < k; j++ {
			if j != i {
				peers = append(peers, repl.Peer{ID: fmt.Sprintf("n%d", j), Addr: addrs[j]})
			}
		}
		dir := fmt.Sprintf("%s/n%d", tmp, i) // repl.Open creates it
		n, err := repl.Open(repl.Config{
			ID: fmt.Sprintf("n%d", i), Addr: addrs[i], Advertise: fmt.Sprintf("node-n%d", i),
			Peers: peers, Dir: dir, OpenEngine: replBankOpen(cfg.accounts),
			ElectionTimeout: 80 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
			AckTimeout: 500 * time.Millisecond,
			Durability: storage.GroupCommit, Seed: cfg.seed + int64(i),
		})
		if err != nil {
			return err
		}
		nodes[i] = n
		defer n.Close()
	}
	waitLeaderNode := func() (*repl.Node, *core.DB, error) {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			for _, n := range nodes {
				if _, ok := n.LeaderCluster(); ok {
					return n, n.DB(), nil
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil, nil, fmt.Errorf("no leader within 15s")
	}

	acked := make([]int64, cfg.accounts)
	doubt := make([]int64, cfg.accounts)
	credit := func(idx int) {
		// Any failure — deposed leader, closed engine mid-demotion — is
		// retried against the freshly polled leader; a commit that errored
		// after quorum may still land, so failures count as in-doubt.
		for attempt := 0; attempt < 40; attempt++ {
			_, db, err := waitLeaderNode()
			if err != nil {
				return
			}
			err = db.RunWithRetry(core.RetryPolicy{MaxAttempts: 10}, func(tx *core.Txn) error {
				_, err := tx.Exec(acct(idx), "credit", "1")
				return err
			})
			if err == nil {
				acked[idx]++
				return
			}
			doubt[idx]++
			time.Sleep(20 * time.Millisecond)
		}
	}

	first, _, err := waitLeaderNode()
	if err != nil {
		return err
	}
	total := max(cfg.txns, 40)
	rr := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < total; i++ {
		if i == total/2 {
			fmt.Printf("chaos:   isolating leader %s\n", first.Status().Node)
			first.SetIsolated(true)
		}
		credit(rr.Intn(cfg.accounts))
	}
	first.SetIsolated(false)

	// The healed cluster converges: some leader serves, and per account the
	// surviving balance is within [acked, acked+doubt].
	newLeader, db, err := waitLeaderNode()
	if err != nil {
		return fmt.Errorf("no leader after healing the partition: %w", err)
	}
	if newLeader == first {
		// Possible only if the isolation window held no commits; the checks
		// below still apply.
		fmt.Println("chaos:   note: original leader still leads (no election was forced)")
	}
	for i := 0; i < cfg.accounts; i++ {
		bal, err := balance(db, i)
		if err != nil {
			return fmt.Errorf("verify read on account %d: %w", i, err)
		}
		if bal < acked[i] {
			return fmt.Errorf("SILENT LOSS on account %d: %d < %d acked (leader %s)", i, bal, acked[i], newLeader.Status().Node)
		}
		if bal > acked[i]+doubt[i] {
			return fmt.Errorf("DOUBLE COMMIT on account %d: %d > %d acked + %d in doubt", i, bal, acked[i], doubt[i])
		}
	}
	// Liveness: the isolated ex-leader rejoined; its term must converge to
	// the cluster's and one more credit must commit.
	st := newLeader.Status()
	waitUntil(10*time.Second, func() bool { fs := first.Status(); return fs.Term >= st.Term && fs.Role != "candidate" })
	credit(0)
	fmt.Printf("chaos:   partition healed; %s leads term %d, %d acked\n", st.Node, st.Term, sumOf(acked))
	return nil
}

func sumOf(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}
