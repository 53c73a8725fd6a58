package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/wire"
)

// env is what a run hands every phase of a workload. The seed stays on
// this side of the boundary: the program under test sees only the keys,
// accounts and texts generated from it.
type env struct {
	seed    int64
	dir     string // scratch directory of this run, removed on exit
	callers int
	log     io.Writer
}

// system is what a set-up left running: the handles the load, the
// per-layer reader and the correctness checks need.
type system struct {
	// db is the engine that executes the load (the leader's on a cluster).
	db *core.DB
	// reg is the registry the engine and the server publish into;
	// clientReg is the client pool's own (nil in-process).
	reg       *obs.Registry
	clientReg *obs.Registry
	// nodes are the replicas of a cluster (nil on a single node).
	nodes []*repl.Node
	// info carries what the set-up itself measured (recovery.*).
	info map[string]float64
	// stop tears the system down; it must tolerate a second call.
	stop func() error
}

// txnFunc runs one logical transaction, retries included, recording spans
// on tr when it is non-nil, and returns how many attempts it took.
type txnFunc func(tr *tracer) (attempts int, err error)

// workload is one system configuration plus one traffic mix.
type workload interface {
	// fixture builds what set-up starts from (untimed, seed-derived).
	fixture(e *env) error
	// setup brings the system to "ready for the first measured request"
	// the way an operator would; it is the timed setup_s phase and runs
	// several times per run, each after the previous system was stopped.
	setup(e *env) (*system, error)
	// start records, untimed and before any load, the state the final
	// checks compare the end state with.
	start(e *env, sys *system) error
	// caller returns closed-loop caller w's transaction function.
	caller(e *env, sys *system, w int) txnFunc
	// verify checks the system's final state against what was acked. It
	// may stop the system to inspect what it left on disk.
	verify(e *env, sys *system) error
}

// layerProber is implemented by workloads with per-layer figures only
// they can produce (a validation burst, a single-node baseline).
type layerProber interface {
	probeLayers(e *env, sys *system, window time.Duration, m map[string]float64) error
}

// workloadSpec names a workload, says why it exists, and fixes its paced
// rate: about a quarter of the closed-loop median measured on the
// reference box when the benchmark was defined, never computed at run time
// — a rate that followed the system would hide a slowdown.
type workloadSpec struct {
	name      string
	pacedRate int // transactions per second, all callers together
	build     func() workload
}

var workloadSpecs = []workloadSpec{
	{"enc_inproc_hot", 800, func() workload { return &encInproc{} }},
	{"enc_wire_read", 600, func() workload { return &encWire{} }},
	{"bank_wire_durable", 1500, func() workload { return &bankDurable{} }},
	{"bank_repl3", 600, func() workload { return &bankRepl{} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// Retry shape of both transaction loops, mirroring core.RetryPolicy and
// client.RetryPolicy defaults.
const (
	maxAttempts = 50
	baseBackoff = 200 * time.Microsecond
	maxBackoff  = 10 * time.Millisecond
)

// backoff is the jittered exponential delay before attempt n+1.
func backoff(n int, jitter *rand.Rand) time.Duration {
	d := baseBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d/2 + time.Duration(jitter.Int63n(int64(d/2)))
}

// coreTxn runs body as one logical transaction directly on the engine. It
// is core.RunWithRetry unrolled — one admission slot across attempts, the
// first attempt's age re-applied to restarts, commit errors terminal — so
// that Begin, Exec and Commit can be timed apart.
func coreTxn(db *core.DB, tr *tracer, jitter *rand.Rand, body func(t *core.Txn, parent uint64) error) (int, error) {
	release, err := db.Admit()
	if err != nil {
		return 0, err
	}
	defer release()
	id := tr.beginTxn()
	defer tr.endTxn(id)
	age := int64(-1)
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff(attempt-1, jitter))
		}
		t0 := tr.now()
		t := db.Begin()
		tr.add("core.Begin", id, t0)
		if age < 0 {
			age = t.Seq()
		} else {
			t.SetPriority(age)
		}
		if lastErr = body(t, id); lastErr == nil {
			t0 = tr.now()
			err := t.Commit()
			tr.add("core.Commit", id, t0)
			return attempt, err
		}
		_ = t.Abort() // ErrTxnFinished when the engine already rolled it back
		if errors.Is(lastErr, storage.ErrWALPoisoned) || errors.Is(lastErr, core.ErrOverloaded) ||
			errors.Is(lastErr, core.ErrClosed) || errors.Is(lastErr, errCheck) {
			return attempt, lastErr
		}
	}
	return maxAttempts, fmt.Errorf("gave up after %d attempts: %w", maxAttempts, lastErr)
}

// wireTxn runs body as one logical transaction through the client: the
// loop of client.RunWithRetry for the failures these workloads can meet
// (deadlock victims and lock timeouts retry, everything else is terminal).
func wireTxn(cl *client.Client, tr *tracer, jitter *rand.Rand, body func(tx *client.Tx, parent uint64) error) (int, error) {
	id := tr.beginTxn()
	defer tr.endTxn(id)
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff(attempt-1, jitter))
		}
		t0 := tr.now()
		tx, err := cl.Begin()
		tr.add("client.Begin", id, t0)
		// BEGIN is answered with a transaction id; to the codec probe only
		// its length matters.
		tr.sample(wire.Msg{Type: wire.MsgBegin}, "T1000000", err)
		if err == nil {
			if err = body(tx, id); err == nil {
				t0 = tr.now()
				err = tx.Commit()
				tr.add("client.Commit", id, t0)
				tr.sample(wire.Msg{Type: wire.MsgCommit}, "", err)
				tr.sampleTxnDone()
				return attempt, err
			}
			_ = tx.Abort()
		}
		if lastErr = err; !wire.Retryable(err) {
			return attempt, err
		}
	}
	return maxAttempts, fmt.Errorf("gave up after %d attempts: %w", maxAttempts, lastErr)
}

// invoke is Tx.Invoke with a span around it.
func invoke(tx *client.Tx, tr *tracer, parent uint64, objType, objName, method string, params ...string) (string, error) {
	t0 := tr.now()
	res, err := tx.Invoke(objType, objName, method, params...)
	tr.add("client.Invoke", parent, t0)
	tr.sample(wire.Msg{Type: wire.MsgInvoke, ObjType: objType, ObjName: objName, Method: method, Params: params}, res, err)
	return res, err
}

// errCheck marks a transaction whose reply was wrong: retrying cannot fix
// it, and it counts as failed.
var errCheck = errors.New("wrong result")

// engineOptions are cmd/oodbd's defaults — what an operator who starts the
// server without tuning flags runs.
func engineOptions() core.Options {
	return core.Options{
		LockTimeout:      10 * time.Second,
		MaxInflight:      256,
		AdmissionTimeout: time.Second,
		DisableTrace:     true,
	}
}
