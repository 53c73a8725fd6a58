package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startServer brings up a full oodbd stack (engine + session layer) with
// the banking workload installed.
func startServer(t *testing.T, copts core.Options) (*server.Server, string) {
	t.Helper()
	if copts.Durability == 0 {
		copts.Durability = storage.GroupCommit
	}
	if copts.WALDir == "" {
		copts.WALDir = t.TempDir()
	}
	db, err := core.OpenDurable(copts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.InstallBanking(db, 8, 1000); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr
}

// TestClientBankingE2E: concurrent transfers through the pooled client
// conserve money — the paper's serializability invariant, end to end over
// TCP.
func TestClientBankingE2E(t *testing.T) {
	srv, addr := startServer(t, core.Options{MaxInflight: 16})
	cl, err := Dial(addr, Options{PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, txns = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				from := strconv.Itoa(w % 8)
				to := strconv.Itoa((w + i + 1) % 8)
				if from == to {
					continue
				}
				err := cl.RunWithRetry(RetryPolicy{}, func(tx *Tx) error {
					if _, err := tx.Invoke(workload.AccountType, "Acct"+from, "debit", "5"); err != nil {
						return err
					}
					_, err := tx.Invoke(workload.AccountType, "Acct"+to, "credit", "5")
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	var total int64
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s, err := tx.Invoke(workload.AccountType, "Acct"+strconv.Itoa(i), "balance")
		if err != nil {
			t.Fatal(err)
		}
		bal, _ := strconv.ParseInt(s, 10, 64)
		total += bal
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if total != 8*1000 {
		t.Fatalf("money not conserved over the wire: %d != %d", total, 8*1000)
	}
	if got := srv.DB().Health().Inflight; got != 0 {
		t.Fatalf("leaked admission slots: %d", got)
	}
}

// TestPoolReuse: sequential transactions ride the same pooled connection
// instead of dialing per transaction.
func TestPoolReuse(t *testing.T) {
	srv, addr := startServer(t, core.Options{Obs: obs.New()})
	cl, err := Dial(addr, Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if err := cl.RunWithRetry(RetryPolicy{}, func(tx *Tx) error {
			_, err := tx.Invoke(workload.AccountType, "Acct0", "balance")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Dial's ping opens one connection; the 20 transactions must have
	// reused it rather than opening 20 more.
	if n := srv.DB().Obs().Counter("server.sessions_total").Load(); n > 3 {
		t.Fatalf("20 sequential txns opened %d sessions, want pooled reuse", n)
	}
}

// TestTypedErrorsOverWire: engine failures arrive as wire sentinels the
// caller can errors.Is against, without importing engine packages.
func TestTypedErrorsOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Invoke(workload.AccountType, "Acct0", "nosuch"); !errors.Is(err, wire.ErrUnknownMethod) {
		t.Fatalf("unknown method: %v, want wire.ErrUnknownMethod", err)
	}
	if _, err := tx.Invoke("nosuchtype", "X", "m"); !errors.Is(err, wire.ErrUnknownType) {
		t.Fatalf("unknown type: %v, want wire.ErrUnknownType", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, wire.ErrTxnFinished) {
		t.Fatalf("commit after abort: %v, want wire.ErrTxnFinished", err)
	}
}

// TestRetryOnLockTimeout: a lock-timeout refusal is typed retryable, so
// RunWithRetry transparently waits out a conflicting transaction.
func TestRetryOnLockTimeout(t *testing.T) {
	_, addr := startServer(t, core.Options{LockTimeout: 25 * time.Millisecond})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hold an update lock on Acct0 (credit conflicts with balance).
	holder, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Invoke(workload.AccountType, "Acct0", "credit", "10"); err != nil {
		t.Fatal(err)
	}

	var retries atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- cl.RunWithRetry(RetryPolicy{
			MaxAttempts: 100,
			OnRetry: func(_ int, err error) {
				if errors.Is(err, wire.ErrLockTimeout) {
					retries.Add(1)
				}
			},
		}, func(tx *Tx) error {
			_, err := tx.Invoke(workload.AccountType, "Acct0", "balance")
			return err
		})
	}()

	time.Sleep(100 * time.Millisecond) // let the reader hit the lock timeout at least once
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWithRetry across a lock conflict: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWithRetry never finished")
	}
	if retries.Load() == 0 {
		t.Fatal("conflicting reader never observed a typed lock-timeout retry")
	}
}

// TestOverloadOptIn: overload refusals are terminal by default and
// retryable only with RetryOverload.
func TestOverloadOptIn(t *testing.T) {
	_, addr := startServer(t, core.Options{
		MaxInflight:      1,
		AdmissionTimeout: 20 * time.Millisecond,
	})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	holder, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}

	// Default policy: fail fast with the typed overload error.
	err = cl.RunWithRetry(RetryPolicy{}, func(tx *Tx) error { return nil })
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("overloaded RunWithRetry: %v, want wire.ErrOverloaded", err)
	}

	// Opt-in policy: keep retrying until the slot frees.
	done := make(chan error, 1)
	go func() {
		done <- cl.RunWithRetry(RetryPolicy{
			RetryOverload: true,
			MaxBackoff:    10 * time.Millisecond,
		}, func(tx *Tx) error { return nil })
	}()
	time.Sleep(60 * time.Millisecond)
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RetryOverload RunWithRetry: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RetryOverload RunWithRetry never finished")
	}
}

// TestCommitInDoubt: a connection cut between sending COMMIT and receiving
// its response must surface the distinct in-doubt error, not a silent
// failure and not a retry. Uses a scripted fake server so the cut lands
// exactly on the commit.
func TestCommitInDoubt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					m, err := wire.ReadMsg(c)
					if err != nil {
						return
					}
					switch m.Type {
					case wire.MsgCommit:
						return // die without answering: commit in doubt
					case wire.MsgBegin:
						_, _ = c.Write(wire.AppendMsg(nil, wire.Msg{Seq: m.Seq, Type: wire.MsgResult, Result: "T-1"}))
					default:
						_, _ = c.Write(wire.AppendMsg(nil, wire.Msg{Seq: m.Seq, Type: wire.MsgResult, Result: m.Result}))
					}
				}
			}(c)
		}
	}()

	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrCommitInDoubt) {
		t.Fatalf("cut commit: %v, want ErrCommitInDoubt", err)
	}
	// And RunWithRetry treats it as terminal — no blind re-run.
	attempts := 0
	err = cl.RunWithRetry(RetryPolicy{MaxAttempts: 5}, func(tx *Tx) error {
		attempts++
		return nil
	})
	if !errors.Is(err, ErrCommitInDoubt) {
		t.Fatalf("RunWithRetry across in-doubt commit: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("in-doubt commit was blindly retried %d times", attempts)
	}
}

// TestClientClosed: Close fails future work with the typed client error.
func TestClientClosed(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Begin(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClientClosed", err)
	}
}

// TestClientWrongPartitionTerminal: on a partitioned server, a transaction
// that strays off its pinned partition gets the typed sentinel through the
// pooled client, and RunWithRetry treats it as terminal — the routing is
// deterministic, so a blind replay would stray identically.
func TestClientWrongPartitionTerminal(t *testing.T) {
	const n = 4
	c, err := partition.Open(partition.Options{
		N: n,
		Register: func(i int, db *core.DB) error {
			_, err := workload.InstallBanking(db, 8, 1000)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	// Find two accounts on different partitions.
	pin := "Acct0"
	other := ""
	for i := 1; i < 8; i++ {
		name := "Acct" + strconv.Itoa(i)
		if partition.RouteName(name, n) != partition.RouteName(pin, n) {
			other = name
			break
		}
	}
	if other == "" {
		t.Skip("Acct0..7 all hash to one partition")
	}

	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	attempts := 0
	err = cl.RunWithRetry(RetryPolicy{MaxAttempts: 5}, func(tx *Tx) error {
		attempts++
		if _, err := tx.Invoke(workload.AccountType, pin, "debit", "5"); err != nil {
			return err
		}
		_, err := tx.Invoke(workload.AccountType, other, "credit", "5")
		return err
	})
	if !errors.Is(err, wire.ErrWrongPartition) {
		t.Fatalf("cross-partition transfer: %v, want wire.ErrWrongPartition", err)
	}
	if attempts != 1 {
		t.Fatalf("wrong-partition error was retried %d times — must be terminal", attempts)
	}

	// Same-partition work on the same client is unaffected.
	if err := cl.RunWithRetry(RetryPolicy{}, func(tx *Tx) error {
		_, err := tx.Invoke(workload.AccountType, pin, "balance")
		return err
	}); err != nil {
		t.Fatalf("same-partition txn after refusal: %v", err)
	}
}
