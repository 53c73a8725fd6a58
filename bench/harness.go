package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/load"
	"repro/bench/stats"
)

// Run shape. A run's measured time is cut into forty windows of one unit
// (half a second by default): twenty-eight closed-loop, twelve paced. A
// metric's value is the better quartile over its windows — the upper one
// of a throughput, the lower one of a latency or a cost. The reference box
// (a 2-core VM) slows by ±10 % for seconds to minutes at a time whatever
// runs on it (a fixed spin loop shows it), its disk's fsync latency moves
// by a factor of two, and interference only ever slows: the median over
// windows swings with the box, the quartile of windows it disturbed least
// does so far less, and short windows let more of them fall between the
// disturbances. Set-up is timed setupReps times and reported as the median.
const (
	closedWindows = 28
	pacedWindows  = 12
	windowsPerRun = closedWindows + pacedWindows
	warmupUnits   = 4
	setupReps     = 5
	// Traced run and baselines use windows of tracedUnits units:
	// tracedPairs × (one untraced, one traced) closed windows, alternated so
	// that drift hits both sides alike, then one paced window.
	tracedUnits     = 4
	tracedPairs     = 3
	baselineWindows = 3
)

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStats is one window reduced to the figures metrics are built from.
type windowStats struct {
	commits, failed, sent, late, queued int
	attempts                            int
	commitsPerS                         float64
	p50us, p99us                        float64
	cpuUsPerCommit                      float64
	allocsPerCommit                     float64
}

// loadGen drives one workload's callers through windows. The callers (and
// the random streams they draw from) live as long as the run: a window is
// a stretch of one continuous stream of requests, not a restart.
type loadGen struct {
	callers  []txnFunc
	tracers  []*tracer // per caller; nil entries when not tracing
	attempts atomic.Int64
	firstErr atomic.Value // error of the first failed transaction
}

func newLoadGen(callers int, mk func(w int) txnFunc) *loadGen {
	g := &loadGen{callers: make([]txnFunc, callers), tracers: make([]*tracer, callers)}
	for w := range g.callers {
		g.callers[w] = mk(w)
	}
	return g
}

// txn adapts the callers to load.Txn. traced selects whether this window
// records spans.
func (g *loadGen) txn(traced bool) load.Txn {
	return func(w int) bool {
		var tr *tracer
		if traced {
			tr = g.tracers[w]
		}
		n, err := g.callers[w](tr)
		g.attempts.Add(int64(n))
		if err != nil {
			g.firstErr.CompareAndSwap(nil, err)
			return false
		}
		return true
	}
}

// window runs one window and reduces it. rate 0 is a closed loop.
func (g *loadGen) window(d time.Duration, rate int, traced bool) windowStats {
	attempts0, cpu0, mallocs0 := g.attempts.Load(), cpuTime(), mallocs()
	var win load.Window
	if rate == 0 {
		win = load.Closed(load.Real{}, len(g.callers), d, g.txn(traced))
	} else {
		win = load.Paced(load.Real{}, len(g.callers), d, rate, g.txn(traced))
	}
	cpu, allocs := cpuTime()-cpu0, mallocs()-mallocs0
	sort.Slice(win.Lat, func(i, j int) bool { return win.Lat[i] < win.Lat[j] })
	commits := len(win.Lat)
	ws := windowStats{
		commits: commits, failed: win.Failed, sent: win.Sent, late: win.Late, queued: win.Queued,
		attempts: int(g.attempts.Load() - attempts0),
		p50us:    float64(stats.Percentile(win.Lat, 50)) / 1e3,
		p99us:    float64(stats.Percentile(win.Lat, 99)) / 1e3,
	}
	if commits > 0 {
		ws.commitsPerS = float64(commits) / win.Elapsed.Seconds()
		ws.cpuUsPerCommit = float64(cpu.Microseconds()) / float64(commits)
		ws.allocsPerCommit = float64(allocs) / float64(commits)
	}
	return ws
}

// err returns the first transaction failure seen, if any.
func (g *loadGen) err() error {
	if err, ok := g.firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// phase is a series of like windows and the per-metric reduction of it.
type phase struct{ windows []windowStats }

func (p *phase) values(pick func(windowStats) float64) []float64 {
	out := make([]float64, len(p.windows))
	for i, w := range p.windows {
		out[i] = pick(w)
	}
	return out
}

// total sums one count over the phase's windows.
func (p *phase) total(pick func(windowStats) int) int {
	n := 0
	for _, w := range p.windows {
		n += pick(w)
	}
	return n
}

func sentOf(w windowStats) int     { return w.sent }
func failedOf(w windowStats) int   { return w.failed }
func commitsOf(w windowStats) int  { return w.commits }
func attemptsOf(w windowStats) int { return w.attempts }

// closedSummary is what measureClosed reports for a baseline.
type closedSummary struct{ commitsPerS, p50us float64 }

// measureClosed runs a short closed-loop measurement of its own: one
// discarded window, then n measured ones, medians reported.
func measureClosed(e *env, window time.Duration, n int, mk func(w int) txnFunc) (closedSummary, error) {
	g := newLoadGen(e.callers, mk)
	g.window(window/2, 0, false)
	var p phase
	for i := 0; i < n; i++ {
		p.windows = append(p.windows, g.window(window, 0, false))
	}
	if err := g.err(); err != nil {
		return closedSummary{}, err
	}
	return closedSummary{
		commitsPerS: stats.Median(p.values(func(w windowStats) float64 { return w.commitsPerS })),
		p50us:       stats.Median(p.values(func(w windowStats) float64 { return w.p50us })),
	}, nil
}

// metric is one reported figure: its value, and how it was arrived at.
type metric struct {
	value  float64
	unit   string
	n      int     // windows (or repetitions) behind the value
	spread float64 // their inter-quartile distance over their median
}

func medianOf(values []float64, unit string) metric {
	return metric{value: stats.Median(values), unit: unit, n: len(values), spread: stats.Spread(values)}
}

// betterQuartile reduces a metric's windows to the quartile on its good
// side: see the run-shape comment for why not the median.
func betterQuartile(values []float64, unit string, higherIsBetter bool) metric {
	q1, _, q3 := stats.Quartiles(values)
	m := metric{value: q1, unit: unit, n: len(values), spread: stats.Spread(values)}
	if higherIsBetter {
		m.value = q3
	}
	return m
}

// result is everything one run of one workload produced.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.failed++
	r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

// countLoad enters the windows' transactions into the result.
func (r *result) countLoad(g *loadGen, windows phase) {
	r.attempted, r.failed = windows.total(sentOf), windows.total(failedOf)
	if err := g.err(); err != nil {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("FAILED: %d transaction(s) failed, first: %v", r.failed, err))
	}
}

// prepare runs a workload up to the point where load can start: fixture,
// set-up (timed `reps` times, the last one kept) and start.
func prepare(e *env, wl workload, reps int) (*system, []float64, error) {
	if err := wl.fixture(e); err != nil {
		return nil, nil, fmt.Errorf("fixture: %w", err)
	}
	var sys *system
	var setups []float64
	for i := 0; i < reps; i++ {
		next, took, err := timedSetup(e, wl, sys)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		sys = next
		setups = append(setups, took.Seconds())
	}
	if err := wl.start(e, sys); err != nil {
		_ = sys.stop()
		return nil, nil, fmt.Errorf("start: %w", err)
	}
	return sys, setups, nil
}

// timedSetup stops the running system, if any, and times one set-up.
func timedSetup(e *env, wl workload, prev *system) (*system, time.Duration, error) {
	if prev != nil {
		if err := prev.stop(); err != nil {
			return nil, 0, fmt.Errorf("stopping the previous set-up: %w", err)
		}
	}
	// Collect the previous system's garbage outside the timed region, so a
	// set-up is not billed for its predecessor.
	runtime.GC()
	t0 := time.Now()
	sys, err := wl.setup(e)
	return sys, time.Since(t0), err
}

// runEndToEnd is the untraced run: set-up timed setupReps times, a
// discarded warm-up, the closed-loop windows, the paced windows, then the
// correctness checks.
func runEndToEnd(e *env, spec workloadSpec, unit time.Duration) (*result, error) {
	wl := spec.build()
	sys, setups, err := prepare(e, wl, setupReps)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.stop() }()

	g := newLoadGen(e.callers, func(w int) txnFunc { return wl.caller(e, sys, w) })
	g.window(warmupUnits*unit, 0, false) // discarded: caches fill, pools grow, lazy set-up ends
	var closed, paced phase
	for i := 0; i < closedWindows; i++ {
		closed.windows = append(closed.windows, g.window(unit, 0, false))
	}
	for i := 0; i < pacedWindows; i++ {
		paced.windows = append(paced.windows, g.window(unit, spec.pacedRate, false))
	}

	res := &result{workload: spec.name, correct: true}
	res.countLoad(g, phase{append(closed.windows, paced.windows...)})
	psent := paced.total(sentOf)
	res.attempted++ // the final-state check counts as one operation
	if err := wl.verify(e, sys); err != nil {
		res.fail("final state: %v", err)
	}

	res.metrics = endToEndMetrics(closed, paced, setups)

	late := paced.total(func(w windowStats) int { return w.late })
	queued := paced.total(func(w windowStats) int { return w.queued })
	lateRatio := float64(late) / float64(max(psent, 1))
	res.notes = append(res.notes,
		fmt.Sprintf("closed loop: %d callers, %d windows of %v, smallest window %d commits (tail percentile supported: p%g)",
			e.callers, closedWindows, unit, minCommits(closed), stats.TopPercentile(minCommits(closed))),
		fmt.Sprintf("paced: %d/s over %d callers, %d windows of %v; of %d sends, %d began more than %v late because the generator overslept (paced_late_ratio %.5f) and %d because their caller still awaited a reply (queued; charged to the system from the due time)",
			spec.pacedRate, e.callers, pacedWindows, unit, psent, late, load.LateAfter, lateRatio, queued))
	if lateRatio > maxLateRatio {
		res.notes = append(res.notes, fmt.Sprintf("WARNING: paced_late_ratio above %.2f: the generator, not the system, set part of the paced latencies", maxLateRatio))
	}
	return res, nil
}

// endToEndMetrics reduces a run's windows to the end-to-end metrics.
func endToEndMetrics(closed, paced phase, setups []float64) map[string]metric {
	return map[string]metric{
		"commits_per_s":     betterQuartile(closed.values(func(w windowStats) float64 { return w.commitsPerS }), "1/s", true),
		"commit_p50_us":     betterQuartile(closed.values(func(w windowStats) float64 { return w.p50us }), "us", false),
		"paced_p50_us":      betterQuartile(paced.values(func(w windowStats) float64 { return w.p50us }), "us", false),
		"cpu_us_per_commit": betterQuartile(closed.values(func(w windowStats) float64 { return w.cpuUsPerCommit }), "us", false),
		"allocs_per_commit": betterQuartile(closed.values(func(w windowStats) float64 { return w.allocsPerCommit }), "1", false),
		"setup_s":           medianOf(setups, "s"),
	}
}

// maxLateRatio is the share of paced sends the generator may start late
// before the paced figures describe it rather than the system.
const maxLateRatio = 0.01

func minCommits(p phase) int {
	least := -1
	for _, w := range p.windows {
		if least < 0 || w.commits < least {
			least = w.commits
		}
	}
	return max(least, 0)
}
