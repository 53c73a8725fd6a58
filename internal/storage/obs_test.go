package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/span"
)

// TestPoolStatsConcurrentWithFetches: Stats() must be readable while many
// goroutines fetch and unpin — the counters are atomics, so a metrics
// poller never contends with (or races against) the fetch path. This is
// the satellite-1 regression: run with -race.
func TestPoolStatsConcurrentWithFetches(t *testing.T) {
	store := NewMemStore(0)
	ids := make([]PageID, 8)
	for i := range ids {
		ids[i] = store.Allocate()
	}
	bp := NewBufferPool(store, 4) // smaller than the working set: forces evictions
	var wg sync.WaitGroup
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() { // the poller
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
				bp.Stats()
			}
		}
	}()
	// No more workers than frames: each pins one frame at a time, so a
	// fetch never finds every frame pinned and fails "pool exhausted".
	const workers, iters = 4, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f, err := bp.FetchPage(ids[(w+i)%len(ids)])
				if err != nil {
					t.Error(err)
					return
				}
				f.Latch()
				f.SetData("v")
				f.Unlatch()
				bp.Unpin(f)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-pollerDone
	hits, misses, evictions := bp.Stats()
	if hits+misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*iters)
	}
	if evictions == 0 {
		t.Fatal("expected evictions with a pool smaller than the working set")
	}
}

// TestPoolObsPublishesAndRecordsEvictions: with a registry attached the
// pool publishes its counters under "pool" and dirty evictions land on the
// flight recorder with the write-back note.
func TestPoolObsPublishesAndRecordsEvictions(t *testing.T) {
	store := NewMemStore(0)
	a, b := store.Allocate(), store.Allocate()
	bp := NewBufferPool(store, 1)
	reg := obs.New()
	bp.SetObs(reg)

	f, err := bp.FetchPage(a)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	f.SetData("dirty page")
	f.Unlatch()
	bp.Unpin(f)
	if _, err := bp.FetchPage(b); err != nil { // evicts the dirty frame
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	pool, ok := snap["pool"].(map[string]int64)
	if !ok {
		t.Fatalf("snapshot[pool] = %T, want map[string]int64", snap["pool"])
	}
	if pool["evictions"] != 1 || pool["capacity"] != 1 {
		t.Fatalf("published pool stats = %v", pool)
	}
	var sawDirtyEvict bool
	for _, e := range reg.Recorder().Tail(0) {
		if e.Kind == obs.EvPoolEvict && e.Note == "dirty" && e.Dur > 0 {
			sawDirtyEvict = true
		}
	}
	if !sawDirtyEvict {
		t.Fatal("no dirty pool.evict event with write-back duration recorded")
	}
	if got, err := store.Read(a); err != nil || got != "dirty page" {
		t.Fatalf("write-back before evict: %q, %v", got, err)
	}
}

// TestFileWALObs: group-commit flushes must observe fsync latency and batch
// size and publish WAL counters under "wal".
func TestFileWALObs(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := openFileWAL(dir, FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh dir has %d records", len(recs))
	}
	reg := obs.New()
	w.SetObs(reg)

	for lsn := uint64(1); lsn <= 3; lsn++ {
		w.Append(Record{LSN: lsn, Kind: RecCommit, Owner: ParseOwner("T1")})
	}
	if err := w.WaitDurable(3); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("wal.fsync_ns", obs.LatencyBounds()).Count(); n == 0 {
		t.Fatal("no fsync latency observed")
	}
	batch := reg.Histogram("wal.batch_records", obs.SizeBounds())
	if batch.Count() == 0 || batch.Sum() != 3 {
		t.Fatalf("batch histogram count=%d sum=%d, want all 3 records flushed", batch.Count(), batch.Sum())
	}
	var sawBatch bool
	for _, e := range reg.Recorder().Tail(0) {
		if e.Kind == obs.EvWALBatch && e.N >= 1 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatal("no wal.batch event recorded")
	}
	snap := reg.Snapshot()
	wal, ok := snap["wal"].(map[string]int64)
	if !ok {
		t.Fatalf("snapshot[wal] = %T, want map[string]int64", snap["wal"])
	}
	if wal["durable_lsn"] != 3 || wal["fsyncs"] < 1 {
		t.Fatalf("published wal stats = %v", wal)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionNames: an eviction's flight-recorder event and a write-back's
// engine span name the page as they always have ("page 7",
// "pool/writeback/page7", "write-back page 7"), and a clean eviction's
// event costs no allocation: the names come from the pool's tables, so a
// miss that evicts allocates only the frame it loads into.
func TestEvictionNames(t *testing.T) {
	store := NewMemStore(0)
	a, b := store.Allocate(), store.Allocate()
	bp := NewBufferPool(store, 1)
	reg := obs.New()
	bp.SetObs(reg)
	tr := span.New()
	bp.SetSpans(tr)
	fetch := func(id PageID, data string) {
		f, err := bp.FetchPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if data != "" {
			f.Latch()
			f.SetData(data)
			f.Unlatch()
		}
		bp.Unpin(f)
	}
	fetch(a, "dirty")
	fetch(b, "") // evicts a, writing it back
	evs := reg.Recorder().Tail(1)
	if len(evs) != 1 || evs[0].Kind != obs.EvPoolEvict || evs[0].Object != fmt.Sprintf("page %d", a) || evs[0].Note != "dirty" {
		t.Fatalf("eviction event = %+v", evs)
	}
	sps := tr.EngineSpans()
	if len(sps) != 1 || sps[0].ID != fmt.Sprintf("pool/writeback/page%d", a) ||
		sps[0].Name != fmt.Sprintf("write-back page %d", a) || sps[0].Object != fmt.Sprintf("page %d", a) {
		t.Fatalf("write-back span = %+v", sps)
	}
	if allocs := testing.AllocsPerRun(100, func() { fetch(a, ""); fetch(b, "") }); allocs != 0 {
		t.Fatalf("two evicting misses = %.1f allocs, want 0 (each reuses its victim's frame)", allocs)
	}
}
