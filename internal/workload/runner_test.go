package workload

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestClosedLoop: every worker runs its n steps in order from its own
// seeded generator, and the retries the steps count are summed.
func TestClosedLoop(t *testing.T) {
	const workers, n, seed, stride = 4, 10, 5, 7919
	steps := make([][]int, workers)
	firstDraw := make([]int, workers)
	_, retries, err := closedLoop(workers, n, seed, stride, func(w int, rr *rand.Rand) func(int, *int64) error {
		firstDraw[w] = rr.Int()
		return func(i int, retries *int64) error {
			steps[w] = append(steps[w], i)
			*retries += int64(w + 1)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if len(steps[w]) != n || steps[w][0] != 0 || steps[w][n-1] != n-1 {
			t.Errorf("worker %d ran steps %v, want 0..%d", w, steps[w], n-1)
		}
		if want := rand.New(rand.NewSource(seed + int64(w)*stride)).Int(); firstDraw[w] != want {
			t.Errorf("worker %d generator not seeded with seed+w*stride", w)
		}
	}
	if want := int64(n * (1 + 2 + 3 + 4)); retries != want {
		t.Fatalf("retries = %d, want %d summed over workers", retries, want)
	}
}

// TestClosedLoopError: a failing worker stops at its failing step, the
// others still finish, and its error comes back naming the worker.
func TestClosedLoopError(t *testing.T) {
	const workers, n = 3, 20
	errBoom := errors.New("boom")
	ran := make([]int, workers)
	_, _, err := closedLoop(workers, n, 1, 1, func(w int, _ *rand.Rand) func(int, *int64) error {
		return func(i int, _ *int64) error {
			ran[w]++
			if w == 1 && i == 3 {
				return errBoom
			}
			return nil
		}
	})
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("err = %v, want worker 1's boom", err)
	}
	if ran[0] != n || ran[1] != 4 || ran[2] != n {
		t.Fatalf("steps run per worker = %v, want [%d 4 %d]", ran, n, n)
	}
}

// TestEnginePlumbing: the Engine options a workload is given reach the
// engine it opens — the file WAL, the registry and the span tracer — and
// TraceFile turns tracing on and writes a trace cmd/schedcheck can read.
func TestEnginePlumbing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	tr := span.New()
	_, err := RunBanking(BankingConfig{
		Engine: core.Options{
			Durability: storage.GroupCommit,
			WALDir:     dir,
			Obs:        reg,
			Tracer:     tr,
		},
		Workers: 2, TxnsPerWorker: 5, Accounts: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs, err := storage.WALSegments(dir); err != nil || len(segs) == 0 {
		t.Errorf("no WAL segments in %s (err %v)", dir, err)
	}
	if _, ok := reg.Snapshot()["engine"]; !ok {
		t.Errorf("banking run did not publish \"engine\": have %v", reg.Names())
	}
	if len(tr.Completed(0)) == 0 {
		t.Error("banking run recorded no traces into the given tracer")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := RunEncyclopedia(Config{Workers: 2, TxnsPerWorker: 5, Keys: 50, Preload: 5, TraceFile: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Events) == 0 {
		t.Fatal("trace file holds no events")
	}
}
