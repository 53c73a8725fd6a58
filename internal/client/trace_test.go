package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestTracePropagationE2E: a client-stamped trace id crosses the wire and
// lands on the engine's span tree — the KSession span carries the remote
// id, so /trace?trace=<id> can join the client's attempt to the server-side
// lock/WAL spans.
func TestTracePropagationE2E(t *testing.T) {
	srv, addr := startServer(t, core.Options{Obs: obs.New()})
	reg := obs.New()
	cl, err := Dial(addr, Options{Trace: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var traceID string
	err = cl.RunWithRetry(RetryPolicy{}, func(tx *Tx) error {
		traceID = tx.TraceID()
		if _, err := tx.Invoke(workload.AccountType, "Acct0", "debit", "5"); err != nil {
			return err
		}
		_, err := tx.Invoke(workload.AccountType, "Acct1", "credit", "5")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if traceID == "" {
		t.Fatal("Options.Trace did not stamp a trace id")
	}

	matches := srv.DB().Spans().LookupRemote(traceID)
	if len(matches) != 1 {
		t.Fatalf("server found %d transactions for trace %s, want 1", len(matches), traceID)
	}
	snap := matches[0].Snapshot()
	if snap.Remote != traceID || snap.RemoteAttempt != 1 {
		t.Fatalf("remote stamp = %q attempt %d, want %q attempt 1", snap.Remote, snap.RemoteAttempt, traceID)
	}
	var sess *span.Span
	for i := range snap.Spans {
		if snap.Spans[i].Kind == span.KSession {
			sess = &snap.Spans[i]
		}
	}
	if sess == nil {
		t.Fatalf("no KSession span on the engine trace: %+v", snap.Spans)
	}
	if sess.Class != "p0" {
		t.Fatalf("session span partition class = %q, want p0", sess.Class)
	}
	// The note reads as fmt renders it: the peer the span is named after,
	// admission wait and execution time rounded to the microsecond, and
	// the four frames BEGIN, two INVOKEs and COMMIT.
	peer, ok := strings.CutPrefix(sess.Name, "session ")
	if !ok || !strings.HasPrefix(peer, "127.0.0.1:") {
		t.Fatalf("session span name = %q, want \"session <client address>\"", sess.Name)
	}
	var admit, exec string
	if _, err := fmt.Sscanf(sess.Note, "peer="+peer+" admit=%s exec=%s frames=4", &admit, &exec); err != nil {
		t.Fatalf("session span note %q: %v", sess.Note, err)
	}
	da, errA := time.ParseDuration(admit)
	de, errE := time.ParseDuration(exec)
	if errA != nil || errE != nil || da != da.Round(time.Microsecond) || de != de.Round(time.Microsecond) {
		t.Fatalf("session span note %q: durations %v, %v", sess.Note, errA, errE)
	}
	if want := fmt.Sprintf("peer=%s admit=%s exec=%s frames=%d", peer, da, de, 4); sess.Note != want {
		t.Fatalf("session span note = %q, want %q", sess.Note, want)
	}

	// Client-side pool instrumentation observed the same run.
	if n := reg.Counter("client.roundtrips").Load(); n == 0 {
		t.Fatal("client.roundtrips never incremented")
	}
	if n := reg.Gauge("client.conns_open").Load(); n < 1 {
		t.Fatalf("client.conns_open = %d with a live pooled connection", n)
	}
}

// TestTraceIDStableAcrossRetries: every attempt of one logical RunWithRetry
// transaction carries the SAME trace id with an increasing attempt counter,
// so the server-side fan-out shows the whole retry history.
func TestTraceIDStableAcrossRetries(t *testing.T) {
	srv, addr := startServer(t, core.Options{
		Obs:         obs.New(),
		LockTimeout: 25 * time.Millisecond,
	})
	reg := obs.New()
	cl, err := Dial(addr, Options{Trace: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	holder, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Invoke(workload.AccountType, "Acct0", "credit", "10"); err != nil {
		t.Fatal(err)
	}

	ids := make(map[string]bool)
	var idMu atomic.Value
	var retried atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- cl.RunWithRetry(RetryPolicy{
			MaxAttempts: 100,
			OnRetry: func(_ int, err error) {
				if errors.Is(err, wire.ErrLockTimeout) {
					retried.Add(1)
				}
			},
		}, func(tx *Tx) error {
			idMu.Store(tx.TraceID())
			ids[tx.TraceID()] = true
			_, err := tx.Invoke(workload.AccountType, "Acct0", "balance")
			return err
		})
	}()

	time.Sleep(100 * time.Millisecond)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWithRetry never finished")
	}
	if retried.Load() == 0 {
		t.Fatal("holder never forced a lock-timeout retry")
	}
	if len(ids) != 1 {
		t.Fatalf("retry attempts used %d distinct trace ids, want 1: %v", len(ids), ids)
	}
	traceID := idMu.Load().(string)

	// Every attempt is its own engine transaction; the remote fan-out must
	// surface at least the aborted attempt and the committed one, with
	// distinct attempt counters.
	matches := srv.DB().Spans().LookupRemote(traceID)
	if len(matches) < 2 {
		t.Fatalf("server found %d attempts for trace %s, want >= 2", len(matches), traceID)
	}
	attempts := make(map[uint32]bool)
	for _, tt := range matches {
		snap := tt.Snapshot()
		if snap.Remote != traceID {
			t.Fatalf("fan-out pulled a foreign trace: %q", snap.Remote)
		}
		attempts[snap.RemoteAttempt] = true
	}
	if !attempts[1] || len(attempts) < 2 {
		t.Fatalf("attempt counters not increasing from 1: %v", attempts)
	}

	// The retry cause landed on the client-side counter.
	if n := reg.Counter("client.retries.lock-timeout").Load(); n == 0 {
		t.Fatal("client.retries.lock-timeout never incremented")
	}
}

// TestConnGaugeLifecycle: conns_open tracks dial and close, conns_in_use
// returns to zero when no transaction holds a connection.
func TestConnGaugeLifecycle(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	reg := obs.New()
	cl, err := Dial(addr, Options{PoolSize: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Gauge("client.conns_inuse").Load(); n != 1 {
		t.Fatalf("conns_in_use = %d with one open transaction", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Gauge("client.conns_inuse").Load(); n != 0 {
		t.Fatalf("conns_in_use = %d after commit", n)
	}
	if n := reg.Gauge("client.conns_open").Load(); n < 1 {
		t.Fatalf("conns_open = %d with a pooled connection", n)
	}
	cl.Close()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("client.conns_open").Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conns_open = %d after Close", reg.Gauge("client.conns_open").Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthzDraining: the health endpoint flips ready(200) → draining(503)
// when shutdown begins, and stays answerable through the drain.
func TestHealthzDraining(t *testing.T) {
	srv, addr := startServer(t, core.Options{MaxInflight: 4})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	h := srv.HealthzHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("ready server /healthz = %d: %s", rec.Code, rec.Body.String())
	}
	var reply struct {
		Status     string `json:"status"`
		Partitions []struct {
			Partition string `json:"partition"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ready" || len(reply.Partitions) != 1 || reply.Partitions[0].Partition != "p0" {
		t.Fatalf("ready reply = %+v", reply)
	}

	// The test-cleanup Shutdown hasn't run yet; trigger one and observe the
	// draining status.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == 503 {
			body := rec.Body.String()
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
			if reply.Status != "draining" {
				t.Fatalf("503 with status %q: %s", reply.Status, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-shutdownDone
}
