package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units: the driver looks every declared metric up by name.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads declared, %d built", len(spec.Workloads), len(workloadSpecs))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		ws := workloadSpecs[i]
		if w.Name != ws.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, ws.name)
		}
		// The paced rate is part of the committed benchmark: the program
		// holds it as a constant, the spec states it.
		if want := fmt.Sprintf("paced at %d/s", ws.pacedRate); !strings.Contains(w.Why, want) {
			t.Errorf("workload %s: why does not state %q: %q", w.Name, want, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	// Every workload reduces its windows through endToEndMetrics, so what it
	// emits for empty phases is what every workload emits.
	emitted := endToEndMetrics(phase{}, phase{}, nil)
	if len(spec.EndToEnd) != len(emitted) {
		t.Errorf("%d end-to-end metrics declared, %d emitted", len(spec.EndToEnd), len(emitted))
	}
	hasSetup := false
	for _, ms := range spec.EndToEnd {
		check(ms.Name)
		m, ok := emitted[ms.Name]
		if !ok {
			t.Errorf("end-to-end metric %s is declared but not emitted", ms.Name)
		} else if m.unit != ms.Unit {
			t.Errorf("end-to-end metric %s: declared in %q, emitted in %q", ms.Name, ms.Unit, m.unit)
		}
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g is outside (0, 0.25]", ms.Name, ms.Bound)
		}
		hasSetup = hasSetup || (ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}

	var declared []string
	for _, ms := range spec.PerLayer {
		check(ms.Name)
		declared = append(declared, ms.Name)
		if want := perLayerUnit(ms.Name); ms.Unit != want {
			t.Errorf("per-layer metric %s: declared in %q, emitted in %q", ms.Name, ms.Unit, want)
		}
		if ms.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", ms.Name)
		}
	}
	want := append([]string(nil), perLayerNames...)
	sort.Strings(declared)
	sort.Strings(want)
	if strings.Join(declared, " ") != strings.Join(want, " ") {
		t.Errorf("per-layer metrics declared and emitted differ:\n declared %v\n emitted  %v", declared, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(time.Time{}, 1)
	id := tr.beginTxn()
	tr.spans[0].Start = 0
	tr.spans = append(tr.spans,
		span{Name: "client.Begin", Txn: tr.spans[0].Txn, ID: id + 1, Parent: id, Start: 10, End: 30},
		span{Name: "client.Commit", Txn: tr.spans[0].Txn, ID: id + 2, Parent: id, Start: 50, End: 90})
	tr.spans[0].End = 100
	sum := summarize(tr.spans)
	if got := sum["txn"]; got.TotalUs != 0.1 || got.SelfUs != 0.04 {
		t.Errorf("txn: total %gus self %gus, want 0.1 and 0.04 (100ns minus 60ns of children)", got.TotalUs, got.SelfUs)
	}
	if got := sum["client.Commit"]; got.Count != 1 || got.SelfUs != got.TotalUs {
		t.Errorf("a leaf span's self time is its duration; got %+v", got)
	}
	// The untraced path: a nil tracer records nothing and never panics.
	var off *tracer
	off.add("x", off.beginTxn(), off.now())
	off.endTxn(0)
}

func TestHistogramDeltaMedian(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyBounds())
	h.Observe(1500) // bucket (1000, 2000]
	before := h.Value().(obs.HistogramValue)
	for i := 0; i < 4; i++ {
		h.Observe(5000) // bucket (4000, 8000]
	}
	d := histSub(h.Value().(obs.HistogramValue), before)
	if d.Count != 4 || len(d.Buckets) != 1 || d.Buckets[0].LE != 8000 {
		t.Fatalf("delta = %+v, want the four new observations in the 8000 bucket", d)
	}
	// The middle of four observations spread over (4000, 8000] is 6000.
	if got := histMedian(d); got != 6000 {
		t.Errorf("histMedian = %g, want 6000", got)
	}
	if got := histMedian(obs.HistogramValue{}); got != 0 {
		t.Errorf("histMedian of nothing = %g, want 0", got)
	}
}

func TestPerLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"wire.decode_allocs_per_msg": "1", "wire.encode_ns_per_msg": "ns", "client.begin_us_p50": "us",
		"checkpoint.run_ms_p50": "ms", "recovery.records_per_s": "1/s", "recovery.recover_s": "s",
		"recovery.alloc_mb": "MiB", "server.msg.invoke_bytes_p50": "B", "cc.block_ratio": "1",
		"trace.overhead_pct": "%", "checkpoint.runs": "count", "wire.bytes_per_commit": "B",
	} {
		if got := perLayerUnit(name); got != want {
			t.Errorf("perLayerUnit(%s) = %q, want %q", name, got, want)
		}
	}
}
