package span

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNilSafety: the disabled/unsampled path holds nil handles everywhere;
// every method must degrade to a no-op without branching at call sites.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tt := tr.BeginTxn("T1", time.Now())
	if tt != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	as := tt.BeginSpan("T1.1", "T1", KMethod, "m")
	if as != nil {
		t.Fatal("nil trace must hand out nil spans")
	}
	as.SetClass("X")
	as.SetN(1)
	as.SetNote("note")
	as.AddEdge(Edge{Kind: EdgeTimeout})
	as.End(errors.New("boom"))
	tr.FinishTxn(tt, StatusAborted)
	tr.RecordEngine(Span{ID: "e"})
	if tr.Lookup("T1") != nil || tr.Slowest(1) != nil || tr.Aborted(1) != nil ||
		tr.Completed(1) != nil || tr.TxnIDs() != nil || tr.EngineSpans() != nil {
		t.Fatal("nil tracer queries must return nil")
	}
	if got := tt.TxnID(); got != "" {
		t.Fatalf("nil trace TxnID = %q", got)
	}
	if snap := tt.Snapshot(); snap.TxnID != "" || snap.Spans != nil {
		t.Fatalf("nil trace snapshot = %+v", snap)
	}
}

func TestSampling(t *testing.T) {
	tr := NewTracer(Options{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 9; i++ {
		if tt := tr.BeginTxn(fmt.Sprintf("T%d", i), time.Now()); tt != nil {
			sampled++
			tr.FinishTxn(tt, StatusCommitted)
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 with SampleEvery=3", sampled)
	}
}

// TestSnapshotAbortProvenance: a failing span's LAST edge becomes the
// trace's abort explanation, stamped on the synthesized root.
func TestSnapshotAbortProvenance(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T7", time.Now())
	var ms Method
	tt.BeginMethod(&ms)
	ls := tt.BeginSpan("T7.1/lock(P1)", "T7.1", KLock, "lock P1")
	ls.AddEdge(Edge{Kind: EdgeBlockedOn, Peer: "T3.1", PeerRoot: "T3", Object: "P1", Mode: "X"})
	ls.AddEdge(Edge{Kind: EdgeVictimOf, Peer: "T3", PeerRoot: "T3", Object: "P1", Note: "cycle T7→T3→T7"})
	ls.End(errors.New("cc: deadlock victim"))
	ms.End(&dispatch{"T7.1", "T7", "Acct", "debit"}, errors.New("cc: deadlock victim"))
	tr.FinishTxn(tt, StatusAborted)

	snap := tr.Lookup("T7").Snapshot()
	if snap.Status != StatusAborted {
		t.Fatalf("status = %s", snap.Status)
	}
	root := snap.Spans[0]
	if root.Kind != KTxn || root.ID != "T7" {
		t.Fatalf("first span must be the root: %+v", root)
	}
	if root.Err != "aborted" {
		t.Fatalf("aborted root must carry Err: %+v", root)
	}
	if len(root.Edges) != 1 || root.Edges[0].Kind != EdgeVictimOf || root.Edges[0].Peer != "T3" {
		t.Fatalf("root must inherit the terminal victim-of edge: %+v", root.Edges)
	}
	// Begin order: root, method, lock.
	if snap.Spans[1].Kind != KMethod || snap.Spans[2].Kind != KLock {
		t.Fatalf("spans out of begin order: %+v", snap.Spans)
	}
}

// TestAbortRingSurvivesCommitFlood: aborted traces live in their own ring;
// a healthy workload's committed flood must not evict them.
func TestAbortRingSurvivesCommitFlood(t *testing.T) {
	tr := NewTracer(Options{Retain: 4})
	bad := tr.BeginTxn("Tbad", time.Now())
	ls := bad.BeginSpan("Tbad/lock(P)", "Tbad", KLock, "lock P")
	ls.AddEdge(Edge{Kind: EdgeTimeout, Peer: "Thog", Object: "P"})
	ls.End(errors.New("cc: lock wait timeout"))
	tr.FinishTxn(bad, StatusAborted)
	for i := 0; i < 20; i++ {
		tt := tr.BeginTxn(fmt.Sprintf("T%d", i), time.Now())
		tr.FinishTxn(tt, StatusCommitted)
	}
	aborted := tr.Aborted(0)
	if len(aborted) != 1 || aborted[0].TxnID != "Tbad" {
		t.Fatalf("aborted trace evicted by committed flood: %+v", aborted)
	}
	if got := len(tr.Completed(0)); got != 4 {
		t.Fatalf("retention ring holds %d, want 4", got)
	}
	if tr.Lookup("Tbad") == nil {
		t.Fatal("Lookup must reach the abort ring")
	}
}

// TestTxnIDsListsEveryRetainedTrace: the /trace index names every trace
// Lookup resolves — an aborted one kept only by the abort ring and the
// slowest-K set too — each once, newest first.
func TestTxnIDsListsEveryRetainedTrace(t *testing.T) {
	tr := NewTracer(Options{Retain: 4})
	tr.FinishTxn(tr.BeginTxn("T1", time.Now()), StatusAborted)
	for i := 2; i <= 9; i++ {
		tr.FinishTxn(tr.BeginTxn(fmt.Sprintf("T%d", i), time.Now()), StatusCommitted)
	}
	live := tr.BeginTxn("T10", time.Now())
	if tr.Lookup("T1") == nil {
		t.Fatal("Lookup must reach the aborted trace")
	}
	got := strings.Join(tr.TxnIDs(), " ")
	if want := "T10 T9 T8 T7 T6 T5 T4 T3 T2 T1"; got != want {
		t.Fatalf("TxnIDs = %s, want %s", got, want)
	}
	tr.FinishTxn(live, StatusCommitted)
}

func TestSlowestK(t *testing.T) {
	tr := NewTracer(Options{TopK: 2})
	now := time.Now()
	for i, d := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond} {
		tt := tr.BeginTxn(fmt.Sprintf("T%d", i), now.Add(-d))
		tr.FinishTxn(tt, StatusCommitted)
	}
	slow := tr.Slowest(0)
	if len(slow) != 2 {
		t.Fatalf("topK=2 retained %d", len(slow))
	}
	if slow[0].TxnID != "T2" || slow[1].TxnID != "T1" {
		t.Fatalf("slowest order wrong: %s, %s", slow[0].TxnID, slow[1].TxnID)
	}
	if slow[0].Dur < slow[1].Dur {
		t.Fatal("slowest first")
	}
}

func TestEngineRing(t *testing.T) {
	tr := NewTracer(Options{EngineCap: 3})
	for i := 0; i < 5; i++ {
		tr.RecordEngine(Span{ID: fmt.Sprintf("e%d", i), Kind: KPool, Name: "wb"})
	}
	got := tr.EngineSpans()
	if len(got) != 3 || got[0].ID != "e2" || got[2].ID != "e4" {
		t.Fatalf("engine ring = %+v", got)
	}
}

// TestConcurrentRecording exercises the tracer and one shared trace from
// many goroutines (parallel subtransactions) under the race detector,
// with concurrent readers snapshotting mid-flight.
func TestConcurrentRecording(t *testing.T) {
	tr := NewTracer(Options{Retain: 64, TopK: 8})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Slowest(4)
			tr.Aborted(4)
			tr.TxnIDs()
			if tt := tr.Lookup("T1"); tt != nil {
				tt.Snapshot()
			}
			tr.EngineSpans()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("T%d_%d", g, i)
				tt := tr.BeginTxn(id, time.Now())
				// Parallel subtransactions recording into one trace.
				var sub sync.WaitGroup
				for p := 0; p < 3; p++ {
					sub.Add(1)
					go func(p int) {
						defer sub.Done()
						ms := new(Method)
						tt.BeginMethod(ms)
						as := tt.BeginSpan(fmt.Sprintf("%s.%d/lock", id, p), id, KLock, "lock O")
						as.AddEdge(Edge{Kind: EdgeBlockedOn, Peer: "Tx", Object: "O"})
						as.End(nil)
						ms.End(&dispatch{fmt.Sprintf("%s.%d", id, p), id, "O", "m"}, nil)
					}(p)
				}
				sub.Wait()
				tr.RecordEngine(Span{ID: id + "/wb", Kind: KPool})
				if i%5 == 0 {
					ls := tt.BeginSpan(id+"/lock", id, KLock, "lock O")
					ls.AddEdge(Edge{Kind: EdgeTimeout, Peer: "Thog", Object: "O"})
					ls.End(errors.New("cc: lock wait timeout"))
					tr.FinishTxn(tt, StatusAborted)
				} else {
					tr.FinishTxn(tt, StatusCommitted)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for _, snap := range tr.Aborted(0) {
		if len(snap.Spans) == 0 || snap.Spans[0].Kind != KTxn {
			t.Fatalf("malformed snapshot: %+v", snap)
		}
		if len(snap.Spans[0].Edges) == 0 {
			t.Fatalf("aborted root lost its provenance edge: %+v", snap.Spans[0])
		}
	}
}

func TestHandler(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T1", time.Now())
	ls := tt.BeginSpan("T1/lock(P)", "T1", KLock, "lock P")
	ls.AddEdge(Edge{Kind: EdgeTimeout, Peer: "T9", Object: "P"})
	ls.End(errors.New("cc: lock wait timeout"))
	tr.FinishTxn(tt, StatusAborted)
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/trace"); code != 200 || !strings.Contains(body, "T1") {
		t.Fatalf("index: %d %q", code, body)
	}
	code, body := get("/trace?txn=T1")
	if code != 200 {
		t.Fatalf("lookup: %d", code)
	}
	var traces []TxnSpans
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("lookup JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].TxnID != "T1" || traces[0].Status != StatusAborted {
		t.Fatalf("lookup = %+v", traces)
	}
	if code, _ := get("/trace?txn=nope"); code != 404 {
		t.Fatalf("unknown txn: %d", code)
	}
	if code, body := get("/trace/slowest?n=-5"); code != 200 || !strings.Contains(body, `"txn"`) {
		t.Fatalf("slowest with bad n: %d %q", code, body)
	}
	if code, body := get("/trace/aborted?format=text"); code != 200 || !strings.Contains(body, "timeout") {
		t.Fatalf("aborted text: %d %q", code, body)
	}
	if code, body := get("/trace?txn=T1&format=text"); code != 200 || !strings.Contains(body, "T1 aborted") {
		t.Fatalf("blame text: %d %q", code, body)
	}
}

func TestWriteBlame(t *testing.T) {
	base := time.Unix(100, 0)
	trc := TxnSpans{
		TxnID: "T7", Status: StatusAborted,
		Start: base, End: base.Add(time.Millisecond), Dur: time.Millisecond,
		Spans: []Span{
			{ID: "T7", Kind: KTxn, Name: "T7", Start: base, End: base.Add(time.Millisecond),
				Err:   "aborted",
				Edges: []Edge{{Kind: EdgeVictimOf, Peer: "T3", Object: "P1", Note: "cycle T7→T3→T7"}}},
			{ID: "T7.1", Parent: "T7", Kind: KMethod, Name: "Acct.debit", Object: "Acct", Method: "debit",
				Class: "debit[acct1]", Start: base, End: base.Add(900 * time.Microsecond), Seq: 1},
			{ID: "T7.1/lock(P1)", Parent: "T7.1", Kind: KLock, Name: "lock P1", Class: "X",
				Start: base, End: base.Add(800 * time.Microsecond), Err: "cc: deadlock victim", Seq: 2,
				Edges: []Edge{
					{Kind: EdgeBlockedOn, Peer: "T3.1", PeerRoot: "T3", Object: "P1", Mode: "X", Wait: 750 * time.Microsecond},
					{Kind: EdgeVictimOf, Peer: "T3", Object: "P1", Note: "cycle T7→T3→T7"},
				}},
		},
	}
	var b strings.Builder
	WriteBlame(&b, trc)
	out := b.String()
	for _, want := range []string{
		"T7 aborted in 1ms",
		"⇐ victim-of T3 on P1 [cycle T7→T3→T7]",
		"method Acct.debit [debit[acct1]]",
		"└─ lock P1 [X]",
		"⇐ blocked-on T3.1 (txn T3) on P1 (X) after 750µs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("blame output missing %q:\n%s", want, out)
		}
	}
}

// stringer is a fixed mode: its class is itself.
type stringer string

func (s stringer) Class() Class {
	return Class{Render: func(string, []string) string { return string(s) }}
}

// countingStringer counts its renderings.
type countingStringer struct{ n *atomic.Int64 }

func (s countingStringer) Class() Class {
	return Class{Render: func(string, []string) string {
		s.n.Add(1)
		return "sem:insert(k)"
	}}
}

// TestSetModeRenderedAtSnapshot: a mode handed to Method.SetMode is
// rendered into Class only when the trace is read, once per Snapshot, and
// SetClass keeps working for spans that carry a ready-made class.
func TestSetModeRenderedAtSnapshot(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T1", time.Now())
	var renders atomic.Int64
	var ms Method
	tt.BeginMethod(&ms)
	ms.SetMode(countingStringer{&renders})
	ms.End(&dispatch{"T1.1", "T1", "Tree", "insert"}, nil)
	cs := tt.BeginSpan("T1.2", "T1", KSession, "session")
	cs.SetClass("p0")
	cs.End(nil)
	tr.FinishTxn(tt, StatusCommitted)
	if n := renders.Load(); n != 0 {
		t.Fatalf("mode rendered %d times before any read", n)
	}
	for i := 1; i <= 2; i++ {
		snap := tt.Snapshot()
		if got := snap.Spans[1]; got.Class != "sem:insert(k)" || got.Name != "Tree.insert" {
			t.Fatalf("method span = %+v", got)
		}
		if got := snap.Spans[2]; got.Class != "p0" {
			t.Fatalf("session span class = %q, want p0", got.Class)
		}
		if n := renders.Load(); n != int64(i) {
			t.Fatalf("after %d snapshots the mode rendered %d times", i, n)
		}
	}
}

// TestSnapshotWhileSpansEnd: Snapshot renders the dispatch records and
// spans that goroutines still recording the trace end meanwhile (run under
// -race).
func TestSnapshotWhileSpansEnd(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T1", time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make([]Method, 50)
			for i := range recs {
				id := fmt.Sprintf("T1.%d.%d", g, i)
				tt.BeginMethod(&recs[i])
				recs[i].SetMode(stringer("X"))
				as := tt.BeginSpan(id+"/lock(O)", id, KLock, "lock O")
				as.SetClass("X")
				as.End(nil)
				recs[i].End(&dispatch{id, "T1", "O", "m"}, nil)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		for _, sp := range tt.Snapshot().Spans[1:] {
			if sp.Class != "X" {
				t.Fatalf("span %s class = %q", sp.ID, sp.Class)
			}
		}
	}
	wg.Wait()
	if n := len(tt.Snapshot().Spans); n != 401 {
		t.Fatalf("snapshot has %d spans, want 401", n)
	}
}

// dispatch is a fixed span.Dispatch, standing in for an engine action.
type dispatch struct{ id, parent, object, method string }

func (d *dispatch) Dispatch() (path Path, object, method string) {
	return pathOf(d.id), d.object, d.method
}

// pathOf parses a rendered id back into the path it names.
func pathOf(id string, more ...int32) Path {
	parts := strings.Split(id, ".")
	var nums []int32
	for _, p := range parts[1:] {
		n, err := strconv.Atoi(p)
		if err != nil {
			panic(err)
		}
		nums = append(nums, int32(n))
	}
	nums = append(nums, more...)
	var steps Steps
	if len(nums) > len(steps) {
		return RenderedPath(string(AppendID(nil, parts[0], nums)))
	}
	for i, n := range nums {
		steps[i] = uint16(n)
	}
	return InlinePath(steps, len(nums))
}

// TestMethodRendersAsActiveSpan: a dispatch record and an ActiveSpan fed
// the same dispatch, mode and error snapshot to the same Span apart from
// the times, and the record's times lie between its Begin and End calls,
// inside the trace.
func TestMethodRendersAsActiveSpan(t *testing.T) {
	tr := New()
	boom := errors.New("cc: deadlock victim")
	begin := time.Now().Add(-time.Millisecond)

	ta := tr.BeginTxn("T1", begin)
	as := ta.BeginSpan("T2.2", "T2", KMethod, "Acct.debit")
	as.sp.Object, as.sp.Method = "Acct", "debit"
	as.SetClass("sem:debit(5)")
	as.End(boom)
	tr.FinishTxn(ta, StatusAborted)

	tm := tr.BeginTxn("T2", begin)
	var ms Method
	before := time.Now()
	tm.BeginMethod(&ms)
	ms.SetMode(stringer("sem:debit(5)"))
	ms.End(&dispatch{"T2.2", "T2", "Acct", "debit"}, boom)
	after := time.Now()
	tr.FinishTxn(tm, StatusAborted)

	want, snap := ta.Snapshot().Spans[1], tm.Snapshot()
	got := snap.Spans[1]
	if got.Start.Before(before) || got.End.Before(got.Start) || after.Before(got.End) || snap.End.Before(got.End) {
		t.Fatalf("record [%v, %v] outside its calls [%v, %v] or its trace [%v, %v]",
			got.Start, got.End, before, after, snap.Start, snap.End)
	}
	want.Start, want.End, got.Start, got.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record renders as\n%+v\nActiveSpan as\n%+v", got, want)
	}
}

// TestMethodSeqInterleavesWithLocks: a record takes its begin sequence from
// the trace's shared counter, so a lock span opened inside a dispatch sorts
// after it and before the dispatch's next child.
func TestMethodSeqInterleavesWithLocks(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T1", time.Now())
	var outer, inner Method
	tt.BeginMethod(&outer)
	ls := tt.BeginSpan("T1.1/lock(Tree)", "T1.1", KLock, "lock Tree")
	ls.End(nil)
	tt.BeginMethod(&inner)
	inner.End(&dispatch{"T1.1.1", "T1.1", "P3", "write"}, nil)
	outer.End(&dispatch{"T1.1", "T1", "Tree", "insert"}, nil)
	tr.FinishTxn(tt, StatusCommitted)
	var ids []string
	for _, sp := range tt.Snapshot().Spans {
		ids = append(ids, fmt.Sprintf("%s#%d", sp.ID, sp.Seq))
	}
	if got, want := strings.Join(ids, " "), "T1#0 T1.1#1 T1.1/lock(Tree)#2 T1.1.1#3"; got != want {
		t.Fatalf("begin order = %s, want %s", got, want)
	}
}

// TestMethodAllocs pins what dispatch records cost a trace: BeginMethod
// and End allocate nothing once a reused buffer has grown, and finishing
// the trace makes one allocation, the slice its records keep — so a
// 64-record trace pays for that slice and for itself.
func TestMethodAllocs(t *testing.T) {
	const records = 64
	tr := New()
	recs := make([]Method, records)
	src := &pathDispatch{pathOf("T1.1"), "O", "m"}
	allocs := testing.AllocsPerRun(50, func() {
		tt := tr.BeginTxn("T1", time.Now())
		for i := range recs {
			tt.BeginMethod(&recs[i])
			recs[i].SetMode(fixedMode{})
			recs[i].End(src, nil)
		}
		tr.FinishTxn(tt, StatusCommitted)
	})
	if allocs > 2 {
		t.Fatalf("a %d-record trace = %.1f allocs, want <= 2", records, allocs)
	}
}

// fixedMode is a mode whose class renders from a static function, as the
// lock manager's are: copying it allocates nothing.
type fixedMode struct{}

func (fixedMode) Class() Class { return Class{Render: renderX} }

func renderX(string, []string) string { return "X" }

// TestFinishedTraceKeepsValues: a finished trace renders its dispatch
// records from values copied at End — the source and mode may change or be
// reused afterwards — and a parameter list of up to two is copied, a longer
// one kept.
func TestFinishedTraceKeepsValues(t *testing.T) {
	tr := New()
	tt := tr.BeginTxn("T1", time.Now())
	d := &dispatch{"", "T1", "P3", "write"}
	params := []string{"a", "b"}
	var ms Method
	tt.BeginMethod(&ms)
	ms.SetMode(paramMode{params})
	ms.End(&numbered{d, 4}, nil)
	long := []string{"x", "y", "z"}
	var ml Method
	tt.BeginMethod(&ml)
	ml.SetMode(paramMode{long})
	ml.End(&dispatch{"T1.5", "T1", "O", "m"}, nil)
	tr.FinishTxn(tt, StatusCommitted)
	*d = dispatch{"T9.9", "T9", "Q", "read"}
	params[0], params[1] = "reused", "reused"
	ms, ml = Method{}, Method{}
	got := tt.Snapshot().Spans
	if got[1].ID != "T1.4" || got[1].Name != "P3.write" || got[1].Class != "write(a,b)" {
		t.Fatalf("page dispatch = %+v", got[1])
	}
	if got[2].ID != "T1.5" || got[2].Class != "m(x,y,z)" {
		t.Fatalf("dispatch with 3 params = %+v", got[2])
	}
}

// pathDispatch is a dispatch whose path is made once.
type pathDispatch struct {
	path           Path
	object, method string
}

func (d *pathDispatch) Dispatch() (path Path, object, method string) {
	return d.path, d.object, d.method
}

// numbered gives a fixed dispatch a child number.
type numbered struct {
	*dispatch
	n int32
}

func (d *numbered) Dispatch() (path Path, object, method string) {
	return pathOf(d.parent, d.n), d.object, d.method
}

// paramMode copies its parameters like a semantic mode.
type paramMode struct{ params []string }

func (m paramMode) Class() Class {
	c := Class{Render: func(method string, params []string) string {
		return method + "(" + strings.Join(params, ",") + ")"
	}}
	c.SetParams(m.params)
	return c
}

// TestMethodNilTraceInert: on an unsampled transaction the record stays
// zero — nothing is stamped, nothing published.
func TestMethodNilTraceInert(t *testing.T) {
	var tt *TxnTrace
	var ms Method
	tt.BeginMethod(&ms)
	ms.SetMode(stringer("X"))
	ms.End(&dispatch{"T1.1", "T1", "O", "m"}, errors.New("boom"))
	if ms != (Method{}) {
		t.Fatalf("record on a nil trace = %+v, want zero", ms)
	}
}

// TestEndAllocs pins the cost of recording a span: End publishes a pointer
// to the ActiveSpan's own storage, so BeginSpan+End over a 64-span trace is
// one allocation per span plus the trace slice's few doublings.
func TestEndAllocs(t *testing.T) {
	const spans = 64
	allocs := testing.AllocsPerRun(50, func() {
		tt := &TxnTrace{txnID: "T1"}
		for i := 0; i < spans; i++ {
			tt.BeginSpan("T1.1", "T1", KMethod, "").End(nil)
		}
	})
	if per := allocs / spans; per > 1.1 {
		t.Fatalf("BeginSpan+End = %.2f allocs per span, want <= 1.1", per)
	}
}
