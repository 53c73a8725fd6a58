package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/bench/stats"
	"repro/internal/wire"
)

// A span is one timed call across a layer boundary, recorded by the
// harness around the call (spans inside the engine are a later change).
// Spans of one logical transaction share Txn; Parent is the enclosing
// span's ID, 0 for the transaction span itself.
type span struct {
	Name   string `json:"name"`
	Txn    uint64 `json:"txn"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer is one caller's span buffer. A nil tracer records nothing and
// reads no clock, so the untraced path costs one nil check per call.
type tracer struct {
	epoch  time.Time
	caller uint64
	spans  []span
	txns   uint64
	// frames are the request and reply messages of the first sampleTxns
	// committed wire transactions, replayed by the codec microprobes.
	frames  []wire.Msg
	sampled int
}

const sampleTxns = 256

func newTracer(epoch time.Time, caller int) *tracer {
	return &tracer{epoch: epoch, caller: uint64(caller) << 48, spans: make([]span, 0, 1<<16)}
}

// now returns the clock reading a later add call takes as the span start.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// beginTxn opens a transaction span and returns its id, the parent of the
// calls made inside it.
func (t *tracer) beginTxn() uint64 {
	if t == nil {
		return 0
	}
	t.txns++
	id := t.caller | uint64(len(t.spans)+1)
	t.spans = append(t.spans, span{Name: "txn", Txn: t.caller | t.txns, ID: id, Start: t.now()})
	return id
}

// endTxn closes the transaction span opened by beginTxn.
func (t *tracer) endTxn(id uint64) {
	if t == nil {
		return
	}
	t.spans[(id&^t.caller)-1].End = t.now()
}

// add records a finished call under the transaction span parent.
func (t *tracer) add(name string, parent uint64, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Txn: t.spans[(parent&^t.caller)-1].Txn,
		ID: t.caller | uint64(len(t.spans)+1), Parent: parent, Start: start, End: t.now(),
	})
}

// sample keeps one answered request and its reply for the codec probes.
func (t *tracer) sample(req wire.Msg, result string, err error) {
	if t == nil || t.sampled >= sampleTxns || err != nil {
		return
	}
	t.frames = append(t.frames, req, wire.Msg{Type: wire.MsgResult, Result: result})
}

// sampleTxnDone counts one fully sampled transaction.
func (t *tracer) sampleTxnDone() {
	if t != nil && t.sampled < sampleTxns {
		t.sampled++
	}
}

// spanSummary is the per-name reduction of a span set.
type spanSummary struct {
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	TailP  float64 `json:"tail_percentile"`
	Tailus float64 `json:"tail_us"`
	// TotalUs is the summed duration; SelfUs is that minus the time the
	// span's children cover (children of one parent never overlap here: a
	// caller makes its calls one after the other).
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// summarize reduces spans to per-name counts, percentiles and self time.
func summarize(spans []span) map[string]spanSummary {
	childTime := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	durs := make(map[string][]int64)
	self := make(map[string]int64)
	for _, s := range spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], d)
		self[s.Name] += d - childTime[s.ID]
	}
	out := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		var total int64
		for _, v := range d {
			total += v
		}
		tail := stats.TopPercentile(len(d))
		out[name] = spanSummary{
			Count:   len(d),
			P50us:   float64(stats.Percentile(d, 50)) / 1e3,
			TailP:   tail,
			Tailus:  float64(stats.Percentile(d, tail)) / 1e3,
			TotalUs: float64(total) / 1e3,
			SelfUs:  float64(self[name]) / 1e3,
		}
	}
	return out
}

// writeTraceFile stores the spans and their summary as one JSON document.
func writeTraceFile(path, workload string, spans []span, sum map[string]spanSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string                 `json:"workload"`
		Summary  map[string]spanSummary `json:"summary"`
		Spans    []span                 `json:"spans"`
	}{workload, sum, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
