package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if c2 := r.Counter("c"); c2 != c {
		t.Fatal("Counter must be get-or-create, got a fresh instance")
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", SizeBounds()).Observe(3)
	r.PublishFunc("f", func() any { return 1 })
	r.Recorder().Record(Event{Kind: "k"})
	if got := r.Recorder().Tail(5); got != nil {
		t.Fatalf("nil recorder Tail = %v, want nil", got)
	}
	if r.Snapshot() != nil || r.Names() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var h *Histogram
	h.Observe(1)
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("nil histogram must report zeros")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name under two kinds must panic")
		}
	}()
	r.Gauge("dual")
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound contract:
// a value equal to a bound lands IN that bucket, one above lands in the
// next, and values beyond the last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{0, 1, 10} { // all <= 10
		h.Observe(v)
	}
	h.Observe(11)   // (10, 100]
	h.Observe(100)  // (10, 100]
	h.Observe(101)  // (100, 1000]
	h.Observe(1000) // (100, 1000]
	h.Observe(1001) // overflow
	h.Observe(1 << 40)

	val := h.Value().(HistogramValue)
	if val.Count != 9 {
		t.Fatalf("count = %d, want 9", val.Count)
	}
	want := map[int64]int64{10: 3, 100: 2, 1000: 2, math.MaxInt64: 2}
	if len(val.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", val.Buckets, want)
	}
	for _, b := range val.Buckets {
		if want[b.LE] != b.N {
			t.Fatalf("bucket le=%d has n=%d, want %d", b.LE, b.N, want[b.LE])
		}
	}
	sum := int64(0 + 1 + 10 + 11 + 100 + 101 + 1000 + 1001 + 1<<40)
	if val.Sum != sum {
		t.Fatalf("sum = %d, want %d", val.Sum, sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(8)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 8 {
		t.Fatalf("p99 = %d, want 8", q)
	}
	var empty = NewHistogram([]int64{1})
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty p50 = %d, want 0", q)
	}
}

func TestLatencyAndSizeBoundsShape(t *testing.T) {
	lb := LatencyBounds()
	if lb[0] != int64(time.Microsecond) {
		t.Fatalf("first latency bound = %d, want 1µs", lb[0])
	}
	for i := 1; i < len(lb); i++ {
		if lb[i] != 2*lb[i-1] {
			t.Fatalf("latency bounds must double: %d after %d", lb[i], lb[i-1])
		}
	}
	sb := SizeBounds()
	if sb[0] != 1 || sb[len(sb)-1] != 65536 {
		t.Fatalf("size bounds = [%d..%d], want [1..65536]", sb[0], sb[len(sb)-1])
	}
}

// TestRecorderWraparound fills the ring far past capacity and checks that
// Tail returns exactly the newest events in order.
func TestRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(64)
	if fr.Cap() != 64 {
		t.Fatalf("cap = %d, want 64", fr.Cap())
	}
	const total = 1000
	for i := 1; i <= total; i++ {
		fr.Record(Event{Kind: "k", N: int64(i)})
	}
	tail := fr.Tail(0)
	if len(tail) != 64 {
		t.Fatalf("tail length = %d, want full ring 64", len(tail))
	}
	for i, e := range tail {
		wantSeq := uint64(total - 64 + 1 + i)
		if e.Seq != wantSeq || e.N != int64(wantSeq) {
			t.Fatalf("tail[%d] = seq %d n %d, want seq %d", i, e.Seq, e.N, wantSeq)
		}
	}
	last := fr.Tail(5)
	if len(last) != 5 || last[4].Seq != total {
		t.Fatalf("Tail(5) = %+v, want newest 5 ending at %d", last, total)
	}
}

// TestRecordAllocs: Record copies the event into its slot, so recording
// allocates nothing.
func TestRecordAllocs(t *testing.T) {
	fr := NewFlightRecorder(64)
	if allocs := testing.AllocsPerRun(100, func() {
		fr.Record(Event{Kind: EvTxnBegin, Actor: "T1"})
	}); allocs != 0 {
		t.Fatalf("Record = %.1f allocs, want 0", allocs)
	}
}

// TestRecorderConcurrentAppend hammers Record from many goroutines while
// readers Tail concurrently; under -race this proves every slot copy is
// guarded. Afterwards the tail must be strictly ordered and hold plausible
// events.
func TestRecorderConcurrentAppend(t *testing.T) {
	fr := NewFlightRecorder(256)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fr.Tail(64)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fr.Record(Event{Kind: "stress", Actor: fmt.Sprintf("w%d", w), N: int64(i)})
			}
		}(w)
	}
	for fr.Seq() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if fr.Seq() != writers*perWriter {
		t.Fatalf("seq = %d, want %d", fr.Seq(), writers*perWriter)
	}
	tail := fr.Tail(0)
	if len(tail) == 0 {
		t.Fatal("empty tail after stress")
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail not strictly ordered at %d: %d after %d", i, tail[i].Seq, tail[i-1].Seq)
		}
	}
}

// TestRegistrySnapshotUnderRace snapshots and serializes the registry
// while counters, histograms, and the recorder are being written.
func TestRegistrySnapshotUnderRace(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	h := r.Histogram("lat", LatencyBounds())
	r.PublishFunc("fn", func() any { return map[string]int64{"x": c.Load()} })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(1500)
					r.Recorder().Record(Event{Kind: "tick"})
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var decoded map[string]any
		if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
		}
		for _, k := range []string{"hits", "lat", "fn"} {
			if _, ok := decoded[k]; !ok {
				t.Fatalf("snapshot missing %q: %v", k, decoded)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDumpFiresOnInjectedFailure mirrors the chaos crash round's wiring: a
// failure path records an EvFailure event and dumps the tail; the dump
// must carry both the failure and the events leading up to it.
func TestDumpFiresOnInjectedFailure(t *testing.T) {
	r := New()
	rec := r.Recorder()
	rec.Record(Event{Kind: EvTxnBegin, Actor: "T1"})
	rec.Record(Event{Kind: EvLockBlock, Actor: "T2", Object: "Page3", Note: "X"})
	injected := fmt.Errorf("round 3: recovered total 977, want 8000 or 0")

	var dump strings.Builder
	// The tool-side contract: on failure, record the failure itself, then
	// dump the tail so the timeline arrives with the error.
	rec.Record(Event{Kind: EvFailure, Note: injected.Error()})
	rec.Dump(&dump, 50)

	out := dump.String()
	for _, want := range []string{EvTxnBegin, EvLockBlock, EvFailure, "recovered total 977"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "last 3 events") {
		t.Fatalf("dump header wrong:\n%s", out)
	}
}

func TestEmptyDump(t *testing.T) {
	var b strings.Builder
	NewFlightRecorder(64).Dump(&b, 10)
	if !strings.Contains(b.String(), "no events") {
		t.Fatalf("empty dump = %q", b.String())
	}
}

// TestHTTPEndpoint boots the server on a free port and samples /metrics,
// /debug/vars, and /events.
func TestHTTPEndpoint(t *testing.T) {
	r := New()
	r.Counter("served").Add(3)
	r.Recorder().Record(Event{Kind: EvWALBatch, N: 17})
	addr, shutdown, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	for _, path := range []string{"/metrics", "/debug/vars"} {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(get(path)), &decoded); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
		if v, ok := decoded["served"].(float64); !ok || v != 3 {
			t.Fatalf("%s served = %v, want 3", path, decoded["served"])
		}
	}
	if events := get("/events?n=10"); !strings.Contains(events, EvWALBatch) {
		t.Fatalf("/events missing %s:\n%s", EvWALBatch, events)
	}
}
