package workload

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLatenciesFillConcurrentWithAdd is the regression for the fill race:
// fill's emptiness check used to read len(l.ds) outside l.mu, racing with
// any straggler worker's add. Under -race this polling pattern flagged the
// unsynchronized read; it must stay silent now, and every observed
// snapshot must be internally consistent (P50 <= P99 <= Max).
func TestLatenciesFillConcurrentWithAdd(t *testing.T) {
	l := &latencies{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.add(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		var r Result
		l.fill(&r)
		if r.LatencyMax != 0 && (r.LatencyP50 > r.LatencyP99 || r.LatencyP99 > r.LatencyMax) {
			t.Fatalf("inconsistent snapshot: p50=%v p99=%v max=%v", r.LatencyP50, r.LatencyP99, r.LatencyMax)
		}
	}
	close(stop)
	wg.Wait()
	var r Result
	l.fill(&r)
	if r.LatencyMax == 0 {
		t.Fatal("no latencies recorded")
	}
}

// TestFinishResultConcurrentWithWorkers sweeps the Result-assembly path
// the same way (mirroring the PR 3 atomic sweep): a poller assembles
// Results from the engine's counters while workers are still running
// transactions. Everything finishResult reads must come from synchronized
// sources (engine stats, lock stats, latencies) — -race watches.
func TestFinishResultConcurrentWithWorkers(t *testing.T) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested})
	defer db.Close()
	accts, err := InstallBanking(db, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	preLock := db.LockStats()
	preEng := db.Stats()

	lat := &latencies{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local int64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := accts[w%4], accts[(w+i+1)%4]
				if from == to {
					continue
				}
				amt := []string{"1"}
				if err := execOps(db, 3, &local, lat, []opCall{
					{obj: from, method: "debit", params: amt},
					{obj: to, method: "credit", params: amt},
				}); err != nil {
					return
				}
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		r, err := finishResult(db, "poll", core.ProtocolOpenNested, 4, false, time.Second, 0, preLock, preEng)
		if err != nil {
			t.Fatalf("finishResult while workers run: %v", err)
		}
		lat.fill(&r)
		if r.Committed < 0 || r.Aborted < 0 {
			t.Fatalf("counter snapshot went backwards: %+v", r)
		}
	}
	close(stop)
	wg.Wait()
}
