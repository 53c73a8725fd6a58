package main

import (
	"fmt"
	"time"

	"repro/bench/stats"
	"repro/internal/cc"
	"repro/internal/commut"
	"repro/internal/enc"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wire"
)

// Microprobes time one public function of one layer in isolation, on the
// benchmark's own instance of the layer, with inputs shaped like (or
// sampled from) the run's. They price a layer when nothing contends for
// it; the counters and spans of the loaded windows show what it costs
// under load.

// sink keeps probed results alive so the calls are not optimised away.
var sink int

// probe reports fn's time and heap allocations per call: the median of
// probeReps batches of iters calls, after one warm-up batch.
func probe(iters int, fn func()) (nsPerCall, allocsPerCall float64) {
	const probeReps = 3
	var ns, allocs []float64
	for rep := 0; rep <= probeReps; rep++ {
		before, t0 := mallocs(), time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		took, after := time.Since(t0), mallocs()
		if rep > 0 {
			ns = append(ns, float64(took.Nanoseconds())/float64(iters))
			allocs = append(allocs, float64(after-before)/float64(iters))
		}
	}
	return stats.Median(ns), stats.Median(allocs)
}

// staticProbes are the probes that need nothing from the run.
func staticProbes(m map[string]float64) error {
	lm := cc.NewLockManager()
	res := txn.OID{Type: "page", Name: "Page1"}
	var lockErr error
	m["cc.acquire_release_ns"], m["cc.acquire_release_allocs"] = probe(100000, func() {
		if err := lm.Acquire("T1", res, cc.X); err != nil {
			lockErr = err
		}
		lm.Release("T1", res)
	})
	if lockErr != nil {
		return fmt.Errorf("lock probe: %w", lockErr)
	}

	spec := enc.Spec()
	a := commut.Invocation{Method: "insert", Params: []string{encKey(1), "text"}}
	b := commut.Invocation{Method: "search", Params: []string{encKey(2)}}
	m["commut.commutes_ns"], _ = probe(500000, func() {
		if spec.Commutes(a, b) {
			sink++
		}
	})

	// A pool of the engine's default size over twice as many pages: one
	// page fetched again and again always hits, a sweep over all of them
	// always misses and evicts.
	const frames = 1024
	store := storage.NewMemStore(0)
	ids := make([]storage.PageID, 2*frames)
	for i := range ids {
		ids[i] = store.Allocate()
		if err := store.Write(ids[i], "page contents of a realistic few dozen bytes"); err != nil {
			return fmt.Errorf("pool probe: %w", err)
		}
	}
	pool := storage.NewBufferPool(store, frames)
	var poolErr error
	next := 0
	fetch := func(id storage.PageID) {
		f, err := pool.FetchPage(id)
		if err != nil {
			poolErr = err
			return
		}
		pool.Unpin(f)
	}
	m["pool.fetch_hit_ns"], _ = probe(200000, func() { fetch(ids[0]) })
	m["pool.fetch_miss_ns"], _ = probe(50000, func() {
		fetch(ids[next])
		next = (next + 1) % len(ids)
	})
	if poolErr != nil {
		return fmt.Errorf("pool probe: %w", poolErr)
	}

	names := make([]string, bankAccounts)
	for i := range names {
		names[i] = acctName(i)
	}
	m["partition.route_ns"], _ = probe(500000, func() {
		next = (next + 1) % len(names)
		sink += partition.RouteName(names[next], 4)
	})
	return nil
}

// wireProbes replay the request and reply frames sampled from the traced
// windows through the codec, and size a transaction's traffic from them.
func wireProbes(tracers []*tracer, m map[string]float64) error {
	var frames []wire.Msg
	sampled := 0
	for _, tr := range tracers {
		frames = append(frames, tr.frames...)
		sampled += tr.sampled
	}
	if len(frames) == 0 || sampled == 0 {
		return nil
	}
	encoded := make([][]byte, len(frames))
	total := 0
	for i, msg := range frames {
		encoded[i] = wire.AppendMsg(nil, msg)
		total += len(encoded[i])
	}
	// The sample ends with the sampleTxns-th commit of each caller; frames
	// of retried attempts are in it, as they are on the wire.
	m["wire.bytes_per_commit"] = float64(total) / float64(sampled)
	iters := max(1, 50000/len(frames))
	perMsg := float64(len(frames))
	ns, allocs := probe(iters, func() {
		for _, msg := range frames {
			sink += len(wire.AppendMsg(nil, msg))
		}
	})
	m["wire.encode_ns_per_msg"], m["wire.encode_allocs_per_msg"] = ns/perMsg, allocs/perMsg
	var decodeErr error
	ns, allocs = probe(iters, func() {
		for _, buf := range encoded {
			msg, _, err := wire.DecodeMsg(buf)
			if err != nil {
				decodeErr = err
			}
			sink += len(msg.Result)
		}
	})
	m["wire.decode_ns_per_msg"], m["wire.decode_allocs_per_msg"] = ns/perMsg, allocs/perMsg
	if decodeErr != nil {
		return fmt.Errorf("wire probe: %w", decodeErr)
	}
	return nil
}

// walProbes replay the newest records of the run's log through the record
// codec. A MemOnly engine has no log directory and reports zeros.
func walProbes(walDir string, m map[string]float64) error {
	if walDir == "" {
		return nil
	}
	records, err := storage.ReadWALDir(walDir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	const sample = 2048
	if len(records) > sample {
		records = records[len(records)-sample:]
	}
	if len(records) == 0 {
		return nil
	}
	frames := make([][]byte, len(records))
	for i, rec := range records {
		frames[i] = storage.EncodeRecordFrame(nil, rec)
	}
	iters := max(1, 100000/len(records))
	ns, _ := probe(iters, func() {
		for _, rec := range records {
			sink += len(storage.EncodeRecordFrame(nil, rec))
		}
	})
	m["wal.encode_ns_per_record"] = ns / float64(len(records))
	var decodeErr error
	ns, _ = probe(iters, func() {
		for _, buf := range frames {
			rec, _, err := storage.DecodeRecordFrame(buf)
			if err != nil {
				decodeErr = err
			}
			sink += int(rec.Kind)
		}
	})
	m["wal.decode_ns_per_record"] = ns / float64(len(records))
	if decodeErr != nil {
		return fmt.Errorf("wal probe: %w", decodeErr)
	}
	return nil
}
