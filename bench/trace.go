package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/bench/stats"
)

// lagSampler polls the replicas' lag while traced windows run; window
// edges alone would always catch the cluster idle.
type lagSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  uint64
}

func startLagSampler(sys *system) *lagSampler {
	s := &lagSampler{stop: make(chan struct{})}
	if len(sys.nodes) == 0 {
		return s
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for _, n := range sys.nodes {
					if lag := n.Status().LagEntries; lag > s.max {
						s.max = lag
					}
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the largest lag it saw.
func (s *lagSampler) finish() uint64 {
	close(s.stop)
	s.done.Wait()
	return s.max
}

// runTraced is the separate traced run that produces the per-layer
// metrics. One set-up, a warm-up window, then untraced and traced
// closed-loop windows in alternation — counters snapshotted at the traced
// windows' edges, spans recorded in memory around every call into a layer
// boundary — one traced paced window, the microprobes, and the same
// correctness checks as the untraced run. End-to-end metrics never come
// from here.
func runTraced(e *env, spec workloadSpec, unit time.Duration, traceDir string) (*result, error) {
	window := tracedUnits * unit
	wl := spec.build()
	sys, _, err := prepare(e, wl, 1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.stop() }()

	epoch := time.Now()
	g := newLoadGen(e.callers, func(w int) txnFunc { return wl.caller(e, sys, w) })
	for w := range g.tracers {
		g.tracers[w] = newTracer(epoch, w)
	}
	g.window(warmupUnits*unit, 0, false)

	var plain, traced phase
	var delta counters
	var tracedSpans []interval // when the traced windows ran
	lag := startLagSampler(sys)
	for i := 0; i < tracedPairs; i++ {
		plain.windows = append(plain.windows, g.window(window, 0, false))
		before, from := snapshot(sys), time.Now()
		traced.windows = append(traced.windows, g.window(window, 0, true))
		delta.addDelta(before, snapshot(sys))
		tracedSpans = append(tracedSpans, interval{from, time.Now()})
	}
	maxLag := lag.finish()
	// The per-layer figures use the closed-loop spans, which the counter
	// deltas cover too; the paced window's spans only go to the file.
	var closedSpans []span
	for _, tr := range g.tracers {
		closedSpans = append(closedSpans, tr.spans...)
	}
	paced := g.window(window, spec.pacedRate, true)

	res := &result{workload: spec.name, correct: true, metrics: map[string]metric{}}
	res.countLoad(g, phase{append(append([]windowStats{paced}, plain.windows...), traced.windows...)})

	m := map[string]float64{}
	commits, attempts := traced.total(commitsOf), traced.total(attemptsOf)
	var spans []span
	for _, tr := range g.tracers {
		spans = append(spans, tr.spans...)
	}
	summary := summarize(closedSpans)
	layerFigures(delta, commits, attempts, summary, m)
	checkpointFigures(checkpointRuns(sys.db, tracedSpans), epoch, closedSpans, m)
	for name, v := range sys.info {
		m[name] = v
	}
	m["repl.lag_entries_max"] = float64(maxLag)

	tracedRate := stats.Median(traced.values(func(w windowStats) float64 { return w.commitsPerS }))
	plainRate := stats.Median(plain.values(func(w windowStats) float64 { return w.commitsPerS }))
	m["load.commits_per_s"] = tracedRate
	m["load.commit_p50_us"] = stats.Median(traced.values(func(w windowStats) float64 { return w.p50us }))
	m["commit_p99_us"] = stats.Median(traced.values(func(w windowStats) float64 { return w.p99us }))
	m["paced_p99_us"] = paced.p99us
	m["load.paced_late_ratio"] = float64(paced.late) / float64(max(paced.sent, 1))
	m["load.paced_queued_ratio"] = float64(paced.queued) / float64(max(paced.sent, 1))
	if plainRate > 0 {
		m["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	}

	probes := []func() error{
		func() error { return staticProbes(m) },
		func() error { return wireProbes(g.tracers, m) },
		func() error {
			if _, durable := delta.scalars["wal.bytes"]; !durable {
				return nil
			}
			return walProbes(sys.db.WALDir(), m)
		},
	}
	if lp, ok := wl.(layerProber); ok {
		probes = append(probes, func() error { return lp.probeLayers(e, sys, window, m) })
	}
	for _, p := range probes {
		res.attempted++
		if err := p(); err != nil {
			res.fail("%v", err)
		}
	}
	res.attempted++
	if err := wl.verify(e, sys); err != nil {
		res.fail("final state: %v", err)
	}

	path := filepath.Join(traceDir, "trace-"+spec.name+".json")
	if err := writeTraceFile(path, spec.name, spans, summarize(spans)); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	for _, name := range perLayerNames {
		res.metrics[name] = metric{value: m[name], unit: perLayerUnit(name)}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("traced: %d callers, %d traced and %d untraced closed windows of %v alternated, one paced at %d/s; %d spans in %s",
			e.callers, tracedPairs, tracedPairs, window, spec.pacedRate, len(spans), path))
	if len(sys.nodes) > 0 {
		res.notes = append(res.notes, "message delay injected between cluster nodes: 0 (latency is processor, loopback and fsync only)")
	}
	names := make([]string, 0, len(summary))
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := summary[name]
		res.notes = append(res.notes, fmt.Sprintf("span %-14s n=%-7d p50=%9.1fus p%g=%9.1fus total=%12.0fus self=%12.0fus",
			name, s.Count, s.P50us, s.TailP, s.Tailus, s.TotalUs, s.SelfUs))
	}
	return res, nil
}
