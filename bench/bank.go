package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/txn"
	banking "repro/internal/workload"
)

// The two banking workloads run the same transaction — debit one account,
// credit another (escrow commutativity: both commute with their own kind)
// — over loopback against a durable engine. Frames are small and the
// executor is light, so admission, WAL append and fsync, and on the cluster
// the quorum round, set the figures.
const (
	bankAccounts = 64
	bankInitial  = 1_000_000
	bankMaxAmt   = 9
)

func acctName(i int) string { return "Acct" + strconv.Itoa(i) }

// bankClient is the client side both banking workloads share: the pool,
// and per caller the net amount its acked transfers moved per account.
type bankClient struct {
	cl      *client.Client
	initial []int64   // balances when the load began
	moved   [][]int64 // [caller][account]
}

func (b *bankClient) caller(e *env, w int) txnFunc {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(w)))
	jitter := rand.New(rand.NewSource(int64(w) + 1))
	moved := b.moved[w]
	return func(tr *tracer) (int, error) {
		from := rng.Intn(bankAccounts)
		to := rng.Intn(bankAccounts - 1)
		if to >= from {
			to++
		}
		amt := 1 + rng.Intn(bankMaxAmt)
		amtStr := strconv.Itoa(amt)
		attempts, err := wireTxn(b.cl, tr, jitter, func(tx *client.Tx, parent uint64) error {
			if _, err := invoke(tx, tr, parent, banking.AccountType, acctName(from), "debit", amtStr); err != nil {
				return err
			}
			_, err := invoke(tx, tr, parent, banking.AccountType, acctName(to), "credit", amtStr)
			return err
		})
		if err == nil {
			moved[from] -= int64(amt)
			moved[to] += int64(amt)
		}
		return attempts, err
	}
}

// balances reads every account in one transaction over the wire.
func (b *bankClient) balances() ([]int64, error) {
	out := make([]int64, bankAccounts)
	_, err := wireTxn(b.cl, nil, rand.New(rand.NewSource(1)), func(tx *client.Tx, _ uint64) error {
		for i := range out {
			s, err := tx.Invoke(banking.AccountType, acctName(i), "balance")
			if err != nil {
				return err
			}
			if out[i], err = strconv.ParseInt(s, 10, 64); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// begin records the balances the load starts from.
func (b *bankClient) begin(e *env) (err error) {
	b.moved = make([][]int64, e.callers)
	for w := range b.moved {
		b.moved[w] = make([]int64, bankAccounts)
	}
	b.initial, err = b.balances()
	return err
}

// expected is, per account, the starting balance plus what acked
// transfers moved.
func (b *bankClient) expected() []int64 {
	want := append([]int64(nil), b.initial...)
	for _, m := range b.moved {
		for i, d := range m {
			want[i] += d
		}
	}
	return want
}

// checkBalances holds got against the acked transfers: money is conserved
// and every account holds exactly what its acked transfers left it (the
// load is closed and finished, so nothing is in doubt).
func (b *bankClient) checkBalances(what string, got []int64) error {
	var sumGot, sumWant int64
	for i, want := range b.expected() {
		sumGot, sumWant = sumGot+got[i], sumWant+b.initial[i]
		if got[i] != want {
			return fmt.Errorf("%s: %s holds %d, acked transfers leave %d", what, acctName(i), got[i], want)
		}
	}
	if sumGot != sumWant {
		return fmt.Errorf("%s: balances sum to %d, started at %d", what, sumGot, sumWant)
	}
	return nil
}

// registerBanking is the write-free recovery hook.
func registerBanking(db *core.DB) error {
	_, err := banking.RegisterBanking(db, bankAccounts)
	return err
}

// --- bank_wire_durable --------------------------------------------------

// Fixture size and checkpoint trigger. The fixture is the log a restart
// replays, sized so that set-up — which here IS restart cost — takes a few
// tenths of a second; the trigger fires a checkpoint every second or two
// under the closed loop.
const (
	bankFixtureTxns     = 60000
	bankFixtureLoaders  = 64
	bankCheckpointBytes = 1 << 20
)

type bankDurable struct {
	bankClient
	walDir     string
	walRecords int
}

func durableOptions(dir string) core.Options {
	opts := engineOptions()
	opts.Durability = storage.GroupCommit
	opts.WALDir = dir
	return opts
}

// fixture leaves a WAL directory holding bankFixtureTxns committed
// transfers and no checkpoint: what a server that ran for a while and was
// then stopped leaves behind.
func (wl *bankDurable) fixture(e *env) error {
	wl.walDir = filepath.Join(e.dir, "wal")
	db, err := core.OpenDurable(durableOptions(wl.walDir))
	if err != nil {
		return err
	}
	accts, err := banking.InstallBanking(db, bankAccounts, bankInitial)
	if err != nil {
		_ = db.Close()
		return err
	}
	errs := make(chan error, bankFixtureLoaders)
	for l := 0; l < bankFixtureLoaders; l++ {
		rng := rand.New(rand.NewSource(e.seed*104729 + int64(l)))
		go func() {
			for i := 0; i < bankFixtureTxns/bankFixtureLoaders; i++ {
				from := rng.Intn(bankAccounts)
				to := (from + 1 + rng.Intn(bankAccounts-1)) % bankAccounts
				amt := strconv.Itoa(1 + rng.Intn(bankMaxAmt))
				err := db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
					if _, err := t.Exec(accts[from], "debit", amt); err != nil {
						return err
					}
					_, err := t.Exec(accts[to], "credit", amt)
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for l := 0; l < bankFixtureLoaders; l++ {
		if lerr := <-errs; lerr != nil && err == nil {
			err = lerr
		}
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	records, err := storage.ReadWALDir(wl.walDir)
	wl.walRecords = len(records)
	return err
}

// setup is a restart: recover the directory, serve it, dial, ping.
func (wl *bankDurable) setup(e *env) (*system, error) {
	opts := durableOptions(wl.walDir)
	opts.CheckpointBytes = bankCheckpointBytes
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	db, rep, err := recovery.RecoverDir(wl.walDir, opts, registerBanking)
	if err != nil {
		return nil, err
	}
	took := time.Since(t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	srv, cl, clientReg, err := startServer(db, e.callers)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	wl.cl = cl
	return &system{db: db, reg: db.Obs(), clientReg: clientReg,
		info: map[string]float64{
			"recovery.recover_s":     took.Seconds(),
			"recovery.records_per_s": float64(wl.walRecords) / took.Seconds(),
			"recovery.redone":        float64(rep.Redone),
			"recovery.alloc_mb":      float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		},
		stop: sync.OnceValue(func() error { return stopServer(srv, cl) })}, nil
}

func (wl *bankDurable) start(e *env, sys *system) error { return wl.begin(e) }

func (wl *bankDurable) caller(e *env, sys *system, w int) txnFunc {
	return wl.bankClient.caller(e, w)
}

// verify checks conservation over the wire, then stops the server and
// recovers the directory once more: what the restart finds must be what
// was acked.
func (wl *bankDurable) verify(e *env, sys *system) error {
	got, err := wl.balances()
	if err != nil {
		return err
	}
	if err := wl.checkBalances("live", got); err != nil {
		return err
	}
	if err := sys.stop(); err != nil {
		return err
	}
	db, _, err := recovery.RecoverDir(wl.walDir, durableOptions(wl.walDir), registerBanking)
	if err != nil {
		return fmt.Errorf("recovering after the run: %w", err)
	}
	defer db.Close()
	accts := make([]int64, bankAccounts)
	err = db.RunWithRetry(core.RetryPolicy{}, func(t *core.Txn) error {
		for i := range accts {
			s, err := t.Exec(txn.OID{Type: banking.AccountType, Name: acctName(i)}, "balance")
			if err != nil {
				return err
			}
			if accts[i], err = strconv.ParseInt(s, 10, 64); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return wl.checkBalances("recovered", accts)
}

// --- bank_repl3 ---------------------------------------------------------

// Cluster timing, the repo's defaults. No message delay is injected, so
// replication latency is processor time, loopback and fsync only.
const (
	replNodes           = 3
	replElectionTimeout = 150 * time.Millisecond
	replHeartbeat       = 40 * time.Millisecond
)

type bankRepl struct {
	bankClient
	generation  int
	dirs        []string
	transitions atomic.Int64 // role changes on any node since its Open
	atLoadStart int64
}

// reservePorts picks n free loopback ports. Peers must know one another's
// addresses before any of them listens, so the ports are chosen first —
// and chosen below the kernel's ephemeral range: a port handed out by
// listening on :0 comes from that range, and any outgoing connection of
// this process (there are many between the replicas) may be given the same
// number before the replica binds it.
func reservePorts(n int) ([]string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if _, err := fmt.Sscan(string(data), &low); err != nil || low < 12000 {
			low = 32768
		}
	}
	const span = 10000 // candidates are the span ports below the ephemeral range
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n && tries < span; tries++ {
		port := low - 1 - int(nextPort.Add(1)+uint32(os.Getpid())*97)%span
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken by another service: try the next one
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		return nil, fmt.Errorf("no %d free ports below %d", n, low)
	}
	return addrs, nil
}

// nextPort walks the candidate ports, so that successive set-ups never
// reuse one still in TIME_WAIT.
var nextPort atomic.Uint32

func (wl *bankRepl) fixture(e *env) error { return nil }

// openBankEngine is the OpenEngine closure of every replica: a fresh
// directory gets the funded schema, a promotion over an existing log
// recovers it. The engine publishes into reg (its own registry when nil).
func openBankEngine(reg *obs.Registry) func(dir string, fresh bool) (*core.DB, error) {
	return func(dir string, fresh bool) (*core.DB, error) {
		opts := durableOptions(dir)
		opts.Obs = reg
		if !fresh {
			db, _, err := recovery.RecoverDir(dir, opts, registerBanking)
			return db, err
		}
		db, err := core.OpenDurable(opts)
		if err != nil {
			return nil, err
		}
		if _, err := banking.InstallBanking(db, bankAccounts, bankInitial); err != nil {
			_ = db.Close()
			return nil, err
		}
		return db, nil
	}
}

// setup opens three replicas on fresh directories, waits for the election
// and the leader's promotion, dials, commits one quorum-acked transfer, and
// waits until both followers have applied it.
func (wl *bankRepl) setup(e *env) (*system, error) {
	wl.generation++
	wl.transitions.Store(0)
	replAddrs, err := reservePorts(replNodes)
	if err != nil {
		return nil, err
	}
	clientAddrs, err := reservePorts(replNodes)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	var nodes []*repl.Node
	var servers []*server.Server
	var cl *client.Client
	stop := sync.OnceValue(func() error {
		if cl != nil {
			_ = cl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var errs []error
		for _, srv := range servers {
			errs = append(errs, srv.Shutdown(ctx))
		}
		for _, n := range nodes {
			errs = append(errs, n.Close())
		}
		return errors.Join(errs...)
	})
	wl.dirs = wl.dirs[:0]
	for i := 0; i < replNodes; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("repl%d-n%d", wl.generation, i))
		wl.dirs = append(wl.dirs, dir)
		cfg := repl.Config{
			ID: fmt.Sprintf("n%d", i), Addr: replAddrs[i], Advertise: clientAddrs[i],
			// One registry for the servers and whichever engine leads, as
			// cmd/oodbd wires it.
			Dir: dir, OpenEngine: openBankEngine(reg),
			ElectionTimeout: replElectionTimeout, Heartbeat: replHeartbeat,
			Durability: storage.GroupCommit,
			Seed:       int64(i + 1),
			OnRole:     func(repl.Role, uint64) { wl.transitions.Add(1) },
		}
		for j := 0; j < replNodes; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, repl.Peer{ID: fmt.Sprintf("n%d", j), Addr: replAddrs[j]})
			}
		}
		n, err := repl.Open(cfg)
		if err != nil {
			_ = stop()
			return nil, err
		}
		nodes = append(nodes, n)
		srv := server.NewReplicated(n, reg, server.Options{})
		if _, err := srv.Start(clientAddrs[i]); err != nil {
			_ = stop()
			return nil, err
		}
		servers = append(servers, srv)
	}
	lead := -1
	for deadline := time.Now().Add(20 * time.Second); lead < 0; time.Sleep(2 * time.Millisecond) {
		for i, n := range nodes {
			if _, ok := n.LeaderCluster(); ok {
				lead = i
			}
		}
		if lead < 0 && time.Now().After(deadline) {
			_ = stop()
			return nil, fmt.Errorf("no leader after 20s")
		}
	}
	var fallbacks []string
	for i, a := range clientAddrs {
		if i != lead {
			fallbacks = append(fallbacks, a)
		}
	}
	clientReg := obs.New()
	cl, err = client.Dial(clientAddrs[lead], client.Options{PoolSize: e.callers, Fallbacks: fallbacks, Obs: clientReg, Seed: 1})
	if err != nil {
		_ = stop()
		return nil, err
	}
	wl.cl = cl
	_, err = wireTxn(cl, nil, rand.New(rand.NewSource(1)), func(tx *client.Tx, _ uint64) error {
		if _, err := tx.Invoke(banking.AccountType, acctName(0), "debit", "1"); err != nil {
			return err
		}
		_, err := tx.Invoke(banking.AccountType, acctName(1), "credit", "1")
		return err
	})
	if err != nil {
		_ = stop()
		return nil, fmt.Errorf("first quorum commit: %w", err)
	}
	db := nodes[lead].DB()
	if db == nil {
		_ = stop()
		return nil, fmt.Errorf("leader n%d lost its role during set-up", lead)
	}
	// Ready means the whole cluster is: both followers have applied what
	// the leader committed, so the load starts against replicas in sync.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		committed, behind := nodes[lead].Status().CommitIndex, 0
		for i, n := range nodes {
			if i != lead && n.Status().Applied < committed {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = stop()
			return nil, fmt.Errorf("%d replica(s) still behind the leader after 20s", behind)
		}
	}
	return &system{db: db, reg: reg, clientReg: clientReg, nodes: nodes, stop: stop}, nil
}

func (wl *bankRepl) start(e *env, sys *system) error {
	wl.atLoadStart = wl.transitions.Load()
	return wl.begin(e)
}

func (wl *bankRepl) caller(e *env, sys *system, w int) txnFunc {
	return wl.bankClient.caller(e, w)
}

// verify checks conservation, that no election happened under load, and —
// after the cluster is stopped — that the three logs agree record by
// record over the range they share (the waldump -compare rule: a follower
// may trail, it may not differ).
func (wl *bankRepl) verify(e *env, sys *system) error {
	got, err := wl.balances()
	if err != nil {
		return err
	}
	if err := wl.checkBalances("live", got); err != nil {
		return err
	}
	if n := wl.transitions.Load() - wl.atLoadStart; n != 0 {
		return fmt.Errorf("%d role transition(s) under load: the run measured an election, not steady replication", n)
	}
	if err := sys.stop(); err != nil {
		return err
	}
	logs := make([][]storage.Record, len(wl.dirs))
	shortest := -1
	for i, dir := range wl.dirs {
		if logs[i], err = storage.ReadWALDir(dir); err != nil {
			return err
		}
		if shortest < 0 || len(logs[i]) < shortest {
			shortest = len(logs[i])
		}
	}
	if shortest == 0 {
		return fmt.Errorf("a replica's log is empty")
	}
	for lsn := 0; lsn < shortest; lsn++ {
		want := string(storage.EncodeRecordFrame(nil, logs[0][lsn]))
		for i := 1; i < len(logs); i++ {
			if string(storage.EncodeRecordFrame(nil, logs[i][lsn])) != want {
				return fmt.Errorf("replica logs diverge at record %d (LSN %d): n0 and n%d differ", lsn, logs[0][lsn].LSN, i)
			}
		}
	}
	return nil
}

// probeLayers prices replication against the same engine with no
// replication layer: a single durable node on a fresh directory, the same
// transfers, the same callers, closed loop.
func (wl *bankRepl) probeLayers(e *env, sys *system, window time.Duration, m map[string]float64) error {
	// Role changes since the cluster was opened: the initial election's,
	// if the run was valid.
	m["repl.transitions"] = float64(wl.transitions.Load())
	dir := filepath.Join(e.dir, "baseline")
	db, err := openBankEngine(nil)(dir, true)
	if err != nil {
		return err
	}
	srv, cl, _, err := startServer(db, e.callers)
	if err != nil {
		_ = db.Close()
		return err
	}
	defer stopServer(srv, cl)
	base := &bankClient{cl: cl}
	if err := base.begin(e); err != nil {
		return err
	}
	single, err := measureClosed(e, window, baselineWindows, func(w int) txnFunc { return base.caller(e, w) })
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	m["repl.commit_overhead_us"] = m["load.commit_p50_us"] - single.p50us
	m["repl.throughput_ratio"] = m["load.commits_per_s"] / single.commitsPerS
	return nil
}
