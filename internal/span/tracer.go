package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options.
const (
	DefaultRetain    = 1024
	DefaultTopK      = 64
	DefaultEngineCap = 1024
	DefaultSlowCap   = 256
)

// Options configure a Tracer.
type Options struct {
	// SampleEvery enables head-based per-transaction sampling: 1 (and 0)
	// traces every transaction, N traces every Nth Begin. Sampling is
	// decided at Begin, so an unsampled transaction pays a single atomic
	// add and nothing else.
	SampleEvery int
	// Retain bounds the ring of completed traces (default DefaultRetain).
	Retain int
	// TopK bounds the separately retained slowest-transaction set
	// (default DefaultTopK).
	TopK int
	// EngineCap bounds the engine-track span ring — recovery phases and
	// pool write-backs, which belong to no transaction (default
	// DefaultEngineCap).
	EngineCap int
	// SlowThreshold enables the slow-query log: a completed transaction at
	// or over the threshold is pinned into its own retention ring (see
	// SlowLog), immune to eviction by the flood of fast transactions. Zero
	// disables; adjustable at runtime via SetSlowThreshold.
	SlowThreshold time.Duration
	// SlowCap bounds the slow-query ring (default DefaultSlowCap).
	SlowCap int
}

// Tracer owns the traces of one engine: the live set (running sampled
// transactions), a bounded ring of completed traces, the slowest-K set,
// and the engine track. All methods are nil-receiver safe.
type Tracer struct {
	sampleEvery uint64
	counter     atomic.Uint64

	mu       sync.Mutex
	live     map[string]*TxnTrace
	done     []*TxnTrace // ring, oldest overwritten first
	doneNext int
	doneSeen uint64
	// abort is a separate ring for aborted traces: they are the traces a
	// "why did T7 abort?" query needs, and on a healthy workload a flood of
	// committed transactions would evict every one of them from done.
	abort     []*TxnTrace
	abortNext int
	// slow is a min-heap on dur (cached at finish, so heap operations take
	// no per-trace locks): the root is the fastest of the slowest-K and is
	// evicted first. A full re-sort per commit was a measurable convoy on
	// the group-commit benchmark.
	slow    []slowEntry // len <= topK
	topK    int
	engine  []Span // ring
	engNext int
	engSeen uint64
	engSeq  int
	// pinned is the slow-query log: traces at or over slowThresh, in their
	// own ring so fast traffic cannot evict them (the slowest-K heap keeps
	// only K; the log keeps the last SlowCap offenders in arrival order).
	pinned     []*TxnTrace
	pinNext    int
	slowThresh atomic.Int64 // nanoseconds; 0 = disabled
	// bufs are the dispatch-record buffers of finished traces, handed to
	// the next traces begun; bufRecs is their total capacity in records.
	bufs    []*dispatchBuf
	bufRecs int
}

// maxFreeRecs bounds the capacity, in records, of the dispatch-record
// buffers a tracer keeps for reuse: 16,384 records are 2.8 MB.
const maxFreeRecs = 16384

// New returns a tracer with default options (sample everything).
func New() *Tracer { return NewTracer(Options{}) }

// NewTracer returns a tracer with the given options.
func NewTracer(o Options) *Tracer {
	if o.SampleEvery < 1 {
		o.SampleEvery = 1
	}
	if o.Retain < 1 {
		o.Retain = DefaultRetain
	}
	if o.TopK < 1 {
		o.TopK = DefaultTopK
	}
	if o.EngineCap < 1 {
		o.EngineCap = DefaultEngineCap
	}
	if o.SlowCap < 1 {
		o.SlowCap = DefaultSlowCap
	}
	tr := &Tracer{
		sampleEvery: uint64(o.SampleEvery),
		live:        make(map[string]*TxnTrace),
		done:        make([]*TxnTrace, o.Retain),
		abort:       make([]*TxnTrace, o.Retain),
		topK:        o.TopK,
		engine:      make([]Span, o.EngineCap),
		pinned:      make([]*TxnTrace, o.SlowCap),
	}
	tr.slowThresh.Store(int64(o.SlowThreshold))
	return tr
}

// SetSlowThreshold adjusts the slow-query pin threshold at runtime (zero
// disables pinning; existing pins are kept).
func (tr *Tracer) SetSlowThreshold(d time.Duration) {
	if tr == nil {
		return
	}
	tr.slowThresh.Store(int64(d))
}

// SlowThreshold returns the current slow-query pin threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return time.Duration(tr.slowThresh.Load())
}

// BeginTxn starts tracing a top-level transaction. Returns nil — which
// every TxnTrace method tolerates — on a nil tracer or an unsampled
// transaction.
func (tr *Tracer) BeginTxn(id string, start time.Time) *TxnTrace {
	if tr == nil {
		return nil
	}
	if tr.sampleEvery > 1 && (tr.counter.Add(1)-1)%tr.sampleEvery != 0 {
		return nil
	}
	tt := &TxnTrace{txnID: id, start: start, status: StatusRunning}
	tr.mu.Lock()
	tr.live[id] = tt
	if n := len(tr.bufs); n > 0 {
		tt.buf, tr.bufs = tr.bufs[n-1], tr.bufs[:n-1]
		tr.bufRecs -= cap(tt.buf.recs)
	}
	tr.mu.Unlock()
	return tt
}

// FinishTxn seals a trace with its outcome and moves it from the live set
// into the retention ring (and the slowest-K set when it qualifies).
func (tr *Tracer) FinishTxn(tt *TxnTrace, status Status) {
	if tr == nil || tt == nil {
		return
	}
	end := time.Now()
	buf := tt.finish(status, end)
	dur := end.Sub(tt.start)
	tr.mu.Lock()
	if buf != nil && tr.bufRecs+cap(buf.recs) <= maxFreeRecs {
		tr.bufs = append(tr.bufs, buf)
		tr.bufRecs += cap(buf.recs)
	}
	delete(tr.live, tt.txnID)
	tr.done[tr.doneNext] = tt
	tr.doneNext = (tr.doneNext + 1) % len(tr.done)
	tr.doneSeen++
	if status == StatusAborted {
		tr.abort[tr.abortNext] = tt
		tr.abortNext = (tr.abortNext + 1) % len(tr.abort)
	}
	if len(tr.slow) < tr.topK {
		tr.slow = append(tr.slow, slowEntry{tt, dur})
		siftUp(tr.slow, len(tr.slow)-1)
	} else if dur > tr.slow[0].dur {
		tr.slow[0] = slowEntry{tt, dur}
		siftDown(tr.slow, 0)
	}
	if thresh := tr.slowThresh.Load(); thresh > 0 && int64(dur) >= thresh {
		tr.pinned[tr.pinNext] = tt
		tr.pinNext = (tr.pinNext + 1) % len(tr.pinned)
	}
	tr.mu.Unlock()
}

// slowEntry pairs a completed trace with its duration so heap maintenance
// never touches the trace's own mutex.
type slowEntry struct {
	tt  *TxnTrace
	dur time.Duration
}

func siftUp(h []slowEntry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dur <= h[i].dur {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []slowEntry, i int) {
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].dur < h[min].dur {
			min = l
		}
		if r < len(h) && h[r].dur < h[min].dur {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Lookup returns the trace of the given transaction id — live, retained,
// or slowest-set — or nil.
func (tr *Tracer) Lookup(id string) *TxnTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tt := tr.live[id]; tt != nil {
		return tt
	}
	for _, tt := range tr.retainedLocked() {
		if tt.txnID == id {
			return tt
		}
	}
	return nil
}

// retainedLocked lists the retained traces: the done and abort rings, the
// slowest-K set and the slow-query pins, each ring newest first so an id
// reused across engine epochs resolves to the most recent trace. A trace
// may appear more than once. Call with tr.mu held.
func (tr *Tracer) retainedLocked() []*TxnTrace {
	out := ringNewestFirst(tr.done, tr.doneNext)
	out = append(out, ringNewestFirst(tr.abort, tr.abortNext)...)
	for _, e := range tr.slow {
		out = append(out, e.tt)
	}
	return append(out, ringNewestFirst(tr.pinned, tr.pinNext)...)
}

// LookupRemote returns every retained trace whose remote (client-stamped)
// trace id matches, newest first among the retained — one logical client
// transaction maps to one engine transaction per retry attempt, so a
// retried transaction legitimately yields several.
func (tr *Tracer) LookupRemote(remote string) []*TxnTrace {
	if tr == nil || remote == "" {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*TxnTrace
	seen := make(map[*TxnTrace]bool)
	add := func(tt *TxnTrace) {
		if tt == nil || seen[tt] {
			return
		}
		tt.mu.Lock()
		match := tt.remoteID == remote
		tt.mu.Unlock()
		if match {
			seen[tt] = true
			out = append(out, tt)
		}
	}
	for _, tt := range tr.live {
		add(tt)
	}
	for _, tt := range tr.retainedLocked() {
		add(tt)
	}
	return out
}

// SlowLog returns snapshots of up to n pinned slow transactions, newest
// first (n <= 0 returns all retained).
func (tr *Tracer) SlowLog(n int) []TxnSpans {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	ring := ringNewestFirst(tr.pinned, tr.pinNext)
	tr.mu.Unlock()
	return snapshotN(ring, n)
}

// Slowest returns snapshots of the n slowest completed transactions,
// slowest first.
func (tr *Tracer) Slowest(n int) []TxnSpans {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	entries := append([]slowEntry{}, tr.slow...)
	tr.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].dur > entries[j].dur
	})
	if n <= 0 || n > len(entries) {
		n = len(entries)
	}
	out := make([]TxnSpans, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, entries[i].tt.Snapshot())
	}
	return out
}

// Aborted returns snapshots of up to n retained aborted transactions,
// newest first (n <= 0 returns all retained). Aborted traces survive in
// their own ring, so a flood of committed transactions cannot evict them.
func (tr *Tracer) Aborted(n int) []TxnSpans {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	ring := ringNewestFirst(tr.abort, tr.abortNext)
	tr.mu.Unlock()
	return snapshotN(ring, n)
}

// Completed returns snapshots of up to n retained completed transactions
// (any outcome), newest first (n <= 0 returns all retained).
func (tr *Tracer) Completed(n int) []TxnSpans {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	ring := ringNewestFirst(tr.done, tr.doneNext)
	tr.mu.Unlock()
	return snapshotN(ring, n)
}

// ringNewestFirst flattens a trace ring whose next write position is at
// next, newest entry first. Call with the tracer's mutex held.
func ringNewestFirst(ring []*TxnTrace, next int) []*TxnTrace {
	out := make([]*TxnTrace, 0, len(ring))
	n := len(ring)
	for i := 1; i <= n; i++ {
		if tt := ring[((next-i)%n+n)%n]; tt != nil {
			out = append(out, tt)
		}
	}
	return out
}

func snapshotN(traces []*TxnTrace, n int) []TxnSpans {
	var out []TxnSpans
	for _, tt := range traces {
		if n > 0 && len(out) >= n {
			break
		}
		out = append(out, tt.Snapshot())
	}
	return out
}

// TxnIDs returns the ids Lookup resolves, each once, for the /trace index:
// the live traces sorted, then every retained one newest first.
func (tr *Tracer) TxnIDs() []string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, 0, len(tr.live)+len(tr.done))
	for id := range tr.live {
		out = append(out, id)
	}
	sort.Strings(out)
	// A retained trace's end was set before FinishTxn published it under
	// tr.mu, and never changes after.
	retained := tr.retainedLocked()
	sort.SliceStable(retained, func(i, j int) bool { return retained[i].end.After(retained[j].end) })
	listed := make(map[string]bool, len(out)+len(retained))
	for _, id := range out {
		listed[id] = true
	}
	for _, tt := range retained {
		if !listed[tt.txnID] {
			listed[tt.txnID] = true
			out = append(out, tt.txnID)
		}
	}
	return out
}

// RecordEngine appends a span to the engine track (recovery phases, pool
// write-backs — work that belongs to no transaction).
func (tr *Tracer) RecordEngine(sp Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.engSeq++
	sp.Seq = tr.engSeq
	tr.engine[tr.engNext] = sp
	tr.engNext = (tr.engNext + 1) % len(tr.engine)
	tr.engSeen++
	tr.mu.Unlock()
}

// EngineSpans returns the retained engine-track spans, oldest first.
func (tr *Tracer) EngineSpans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := len(tr.engine)
	out := make([]Span, 0, n)
	for i := n; i >= 1; i-- {
		sp := tr.engine[((tr.engNext-i)%n+n)%n]
		if sp.Seq != 0 {
			out = append(out, sp)
		}
	}
	return out
}
