package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestDegenerateResultNoNaN: a measurement window with zero elapsed time
// and zero lock acquires must report 0 throughput and 0 conflict rate —
// not NaN or Inf. Regression test for the derived-rate guards: NaN fails
// every threshold comparison silently and Inf wrecks the report table.
func TestDegenerateResultNoNaN(t *testing.T) {
	db := core.Open(core.Options{})
	pre := db.LockStats()
	preEng := db.Stats()
	r, err := finishResult(db, "degenerate", core.Protocol2PLPage, 1, false, 0, 0, pre, preEng)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"Throughput":   r.Throughput,
		"ConflictRate": r.ConflictRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a degenerate run, want 0", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if row := r.Row(); strings.Contains(row, "NaN") || strings.Contains(row, "Inf") {
		t.Errorf("rendered row contains NaN/Inf: %q", row)
	}
}

func TestSafeDiv(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{10, 2, 5},
		{10, 0, 0},
		{0, 0, 0},
		{-3, 0, 0},
	}
	for _, c := range cases {
		if got := safeDiv(c.num, c.den); got != c.want {
			t.Errorf("safeDiv(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

// TestWorkloadObsThreading: a caller-provided registry reaches the engine
// (encyclopedia) and the bare lock manager (lock-stress), so a metrics
// endpoint watching the registry sees the run.
func TestWorkloadObsThreading(t *testing.T) {
	reg := obs.New()
	_, err := RunEncyclopedia(Config{
		Engine: core.Options{Obs: reg}, Workers: 2, TxnsPerWorker: 5, Keys: 50, Preload: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"engine", "lock", "pool"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("encyclopedia run did not publish %q: have %v", name, reg.Names())
		}
	}

	reg2 := obs.New()
	res, err := RunLockStress(LockStressConfig{
		Goroutines: 2, TxnsPerGoroutine: 50, Obs: reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquires == 0 {
		t.Fatal("lock-stress made no acquires")
	}
	if _, ok := reg2.Snapshot()["lock"]; !ok {
		t.Errorf("lock-stress did not publish lock stats: have %v", reg2.Names())
	}
}
