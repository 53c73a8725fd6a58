package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/bench/stats"
	"repro/internal/core"
	"repro/internal/obs"
)

// counters is a snapshot of every already-public counter the per-layer
// figures are built from, taken at window edges. Scalars are cumulative;
// hists are the registry's cumulative histograms.
type counters struct {
	scalars map[string]float64
	hists   map[string]obs.HistogramValue
}

// snapshot reads the counters of a running system.
func snapshot(sys *system) counters {
	c := counters{scalars: map[string]float64{}, hists: map[string]obs.HistogramValue{}}
	for name, v := range sys.reg.Snapshot() {
		switch v := v.(type) {
		case int64:
			c.scalars[name] = float64(v)
		case map[string]int64: // "pool", "wal"
			for k, n := range v {
				c.scalars[name+"."+k] = float64(n)
			}
		case obs.HistogramValue:
			c.hists[name] = v
		}
	}
	if _, durable := c.scalars["wal.fsyncs"]; durable {
		c.scalars["wal.bytes"] = float64(sys.db.WALBytes())
	}
	ls := sys.db.LockStats()
	c.scalars["lock.acquires"] = float64(ls.Acquires)
	c.scalars["lock.blocked"] = float64(ls.Blocked)
	c.scalars["lock.deadlocks"] = float64(ls.Deadlocks)
	c.scalars["lock.timeouts"] = float64(ls.Timeouts)
	c.scalars["lock.wait_us"] = float64(ls.WaitTime.Microseconds())
	es := sys.db.Stats()
	c.scalars["engine.aborted"] = float64(es.TxnsAborted)
	c.scalars["engine.actions"] = float64(es.Actions)
	c.scalars["engine.compensations"] = float64(es.Compensations)
	for name, v := range sys.clientReg.Snapshot() {
		if n, ok := v.(int64); ok {
			c.scalars[name] = float64(n)
		}
	}
	for _, n := range sys.nodes {
		if st := n.Status(); st.Role == "leader" {
			c.scalars["repl.commit_index"] = float64(st.CommitIndex)
		}
	}
	return c
}

// addDelta folds (after − before) into c.
func (c *counters) addDelta(before, after counters) {
	if c.scalars == nil {
		c.scalars, c.hists = map[string]float64{}, map[string]obs.HistogramValue{}
	}
	for name, v := range after.scalars {
		c.scalars[name] += v - before.scalars[name]
	}
	for name, h := range after.hists {
		c.hists[name] = histAdd(c.hists[name], histSub(h, before.hists[name]))
	}
}

func histSub(a, b obs.HistogramValue) obs.HistogramValue { return histCombine(a, b, -1) }
func histAdd(a, b obs.HistogramValue) obs.HistogramValue { return histCombine(a, b, +1) }

func histCombine(a, b obs.HistogramValue, sign int64) obs.HistogramValue {
	byLE := map[int64]int64{}
	for _, bk := range a.Buckets {
		byLE[bk.LE] += bk.N
	}
	for _, bk := range b.Buckets {
		byLE[bk.LE] += sign * bk.N
	}
	out := obs.HistogramValue{Count: a.Count + sign*b.Count, Sum: a.Sum + sign*b.Sum}
	for le, n := range byLE {
		if n != 0 {
			out.Buckets = append(out.Buckets, obs.Bucket{LE: le, N: n})
		}
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].LE < out.Buckets[j].LE })
	return out
}

// histMedian estimates the median of a doubling-bucket histogram (both
// obs.LatencyBounds and obs.SizeBounds double) by interpolating inside the
// bucket the middle observation falls in.
func histMedian(h obs.HistogramValue) float64 {
	var total int64
	for _, bk := range h.Buckets {
		total += bk.N
	}
	if total == 0 {
		return 0
	}
	rank, seen := float64(total)/2, int64(0)
	for _, bk := range h.Buckets {
		if float64(seen+bk.N) >= rank {
			if bk.LE == math.MaxInt64 { // overflow bucket: no upper edge
				return float64(h.Sum) / float64(h.Count)
			}
			lo := float64(bk.LE) / 2
			if bk.LE <= 1 {
				lo = 0
			}
			return lo + (float64(bk.LE)-lo)*(rank-float64(seen))/float64(bk.N)
		}
		seen += bk.N
	}
	return 0
}

// interval is a stretch of wall time.
type interval struct{ start, end time.Time }

// checkpointRuns returns the checkpoints that ran during any of the given
// stretches, from the engine track of the engine's span tracer.
func checkpointRuns(db *core.DB, during []interval) []interval {
	var out []interval
	for _, sp := range db.Spans().EngineSpans() {
		if !strings.HasPrefix(sp.ID, "checkpoint/") {
			continue
		}
		for _, d := range during {
			if sp.Start.Before(d.end) && sp.End.After(d.start) {
				out = append(out, interval{sp.Start, sp.End})
				break
			}
		}
	}
	return out
}

// perLayerNames lists every per-layer metric, in report order. A workload
// that bypasses a layer reports that layer's figures as 0.
var perLayerNames = []string{
	"commit_p99_us", "paced_p99_us",
	"load.commits_per_s", "load.commit_p50_us", "load.paced_late_ratio", "load.paced_queued_ratio",
	"client.begin_us_p50", "client.invoke_us_p50", "client.commit_us_p50",
	"client.roundtrips_per_commit", "client.retries_per_commit",
	"wire.encode_ns_per_msg", "wire.decode_ns_per_msg", "wire.encode_allocs_per_msg", "wire.decode_allocs_per_msg",
	"wire.bytes_per_commit", "wire.transit_us_per_commit",
	"server.msg.begin_us_p50", "server.msg.invoke_us_p50", "server.msg.commit_us_p50",
	"server.msg.invoke_bytes_p50", "server.frame_errors",
	"core.begin_us_p50", "core.exec_us_p50", "core.commit_us_p50", "core.actions_per_commit",
	"core.aborts_per_commit", "core.compensations_per_commit", "core.exec_allocs_per_txn",
	"cc.acquires_per_commit", "cc.block_ratio", "cc.wait_us_per_commit", "cc.deadlocks_per_kcommit",
	"cc.timeouts", "cc.acquire_release_ns", "cc.acquire_release_allocs",
	"commut.commutes_ns",
	"pool.hit_ratio", "pool.evictions_per_commit", "pool.fetch_hit_ns", "pool.fetch_miss_ns",
	"wal.bytes_per_commit", "wal.records_per_commit", "wal.fsyncs_per_commit", "wal.batch_records_p50",
	"wal.fsync_us_p50", "wal.encode_ns_per_record", "wal.decode_ns_per_record",
	"checkpoint.runs", "checkpoint.run_ms_p50", "checkpoint.truncated_segments", "checkpoint.commit_p99_ratio",
	"recovery.recover_s", "recovery.records_per_s", "recovery.redone", "recovery.alloc_mb",
	"repl.entries_per_commit", "repl.lag_entries_max", "repl.transitions",
	"repl.commit_overhead_us", "repl.throughput_ratio",
	"partition.route_ns",
	"sched.analyze_us_per_action",
	"trace.overhead_pct",
}

// perLayerUnit derives a per-layer metric's unit from the words of its
// name.
func perLayerUnit(name string) string {
	words := strings.FieldsFunc(name, func(r rune) bool { return r == '_' || r == '.' })
	has := func(w string) bool {
		for _, word := range words {
			if word == w {
				return true
			}
		}
		return false
	}
	last := words[len(words)-1]
	switch {
	case last == "pct":
		return "%"
	case has("us"), has("ns"), has("ms"):
		for _, u := range []string{"us", "ns", "ms"} {
			if has(u) {
				return u
			}
		}
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case last == "s":
		return "s"
	case last == "mb":
		return "MiB"
	case has("bytes"):
		return "B"
	case has("ratio"), has("per"):
		return "1"
	}
	return "count"
}

// layerFigures turns the counter deltas and spans of the traced windows
// into the counter- and span-derived per-layer metrics.
func layerFigures(d counters, commits, attempts int, spans map[string]spanSummary, m map[string]float64) {
	n := float64(max(commits, 1))
	s := d.scalars
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	for _, call := range []string{"begin", "invoke", "commit"} {
		m["client."+call+"_us_p50"] = spans["client."+strings.ToUpper(call[:1])+call[1:]].P50us
		m["server.msg."+call+"_us_p50"] = histMedian(d.hists["server.msg."+call+"_ns"]) / 1e3
	}
	m["client.roundtrips_per_commit"] = s["client.roundtrips"] / n
	m["client.retries_per_commit"] = float64(attempts-commits) / n
	m["server.msg.invoke_bytes_p50"] = histMedian(d.hists["server.msg.invoke_bytes"])
	m["server.frame_errors"] = s["server.frame_errors"]
	// Transit is what the client waited beyond what the server's handlers
	// account for: both codecs' work outside the handler, the kernel, and
	// the wake-ups on either side.
	var clientUs, serverNs float64
	for _, call := range []string{"Begin", "Invoke", "Commit"} {
		clientUs += spans["client."+call].TotalUs
		serverNs += float64(d.hists["server.msg."+strings.ToLower(call)+"_ns"].Sum)
	}
	if clientUs > 0 {
		m["wire.transit_us_per_commit"] = (clientUs - serverNs/1e3) / n
	}

	m["core.begin_us_p50"] = spans["core.Begin"].P50us
	m["core.exec_us_p50"] = spans["core.Exec"].P50us
	m["core.commit_us_p50"] = spans["core.Commit"].P50us
	m["core.actions_per_commit"] = s["engine.actions"] / n
	m["core.aborts_per_commit"] = s["engine.aborted"] / n
	m["core.compensations_per_commit"] = s["engine.compensations"] / n

	m["cc.acquires_per_commit"] = s["lock.acquires"] / n
	m["cc.block_ratio"] = ratio(s["lock.blocked"], s["lock.acquires"])
	m["cc.wait_us_per_commit"] = s["lock.wait_us"] / n
	m["cc.deadlocks_per_kcommit"] = 1000 * s["lock.deadlocks"] / n
	m["cc.timeouts"] = s["lock.timeouts"]

	m["pool.hit_ratio"] = ratio(s["pool.hits"], s["pool.hits"]+s["pool.misses"])
	m["pool.evictions_per_commit"] = s["pool.evictions"] / n

	m["wal.bytes_per_commit"] = s["wal.bytes"] / n
	m["wal.records_per_commit"] = s["wal.appended_lsn"] / n
	m["wal.fsyncs_per_commit"] = s["wal.fsyncs"] / n
	m["wal.batch_records_p50"] = histMedian(d.hists["wal.batch_records"])
	m["wal.fsync_us_p50"] = histMedian(d.hists["wal.fsync_ns"]) / 1e3

	m["checkpoint.truncated_segments"] = s["wal.truncated_segments"]
	m["repl.entries_per_commit"] = s["repl.commit_index"] / n
}

// checkpointFigures prices checkpoints against the transactions of the
// traced windows: how long a run takes, and how much worse the tail of the
// commits that overlapped one is than the tail of those that did not. Both
// tails are read at the highest percentile the smaller group supports.
func checkpointFigures(runs []interval, epoch time.Time, spans []span, m map[string]float64) {
	m["checkpoint.runs"] = float64(len(runs))
	if len(runs) == 0 {
		return
	}
	var took []int64
	for _, r := range runs {
		took = append(took, int64(r.end.Sub(r.start)))
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	m["checkpoint.run_ms_p50"] = float64(stats.Percentile(took, 50)) / 1e6
	var during, outside []int64
	for _, sp := range spans {
		if sp.Name != "txn" {
			continue
		}
		start, end := epoch.Add(time.Duration(sp.Start)), epoch.Add(time.Duration(sp.End))
		overlapped := false
		for _, r := range runs {
			if start.Before(r.end) && end.After(r.start) {
				overlapped = true
				break
			}
		}
		if overlapped {
			during = append(during, sp.End-sp.Start)
		} else {
			outside = append(outside, sp.End-sp.Start)
		}
	}
	p := stats.TopPercentile(min(len(during), len(outside)))
	if p == 0 {
		return
	}
	sort.Slice(during, func(i, j int) bool { return during[i] < during[j] })
	sort.Slice(outside, func(i, j int) bool { return outside[i] < outside[j] })
	if base := stats.Percentile(outside, p); base > 0 {
		m["checkpoint.commit_p99_ratio"] = float64(stats.Percentile(during, p)) / float64(base)
	}
}
