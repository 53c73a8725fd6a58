// Package span is the engine's per-transaction structured tracing layer:
// one span tree per top-level transaction, mirroring the paper's nested
// action tree (Definitions 2-4). Where internal/obs answers "how is the
// engine doing" in aggregate, span answers the per-transaction question
// "why did T7 wait / abort / serialize after T3":
//
//   - a span per method dispatch (object, method, and the commutativity
//     class — the lock mode — it ran under),
//   - a span per CONTENDED lock acquisition, carrying the wait interval
//     and the holder identities that blocked it (an uncontended grant
//     leaves no lock span: that absence is exactly where Definition 11
//     cuts the inherited dependency — commuting callers stop inheriting),
//   - a span per WAL group-commit participation (batch id, records,
//     fsync latency) and per recovery phase,
//   - provenance edges (blocked-on / victim-of / timeout /
//     inherited-from) on every blocking or abort event, so an aborted or
//     slow transaction's trace is a causal chain ending at the
//     conflicting peer.
//
// Design rules follow internal/obs: every method is nil-receiver safe, so
// the disabled (DisableSpans) and unsampled paths need no "tracing
// enabled?" branches — they simply hold nil handles. Retention is bounded
// (a ring of completed traces plus a slowest-K set), so the layer can stay
// always-on in production serving.
package span

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span.
type Kind uint8

// The span kinds.
const (
	KTxn      Kind = iota // the top-level transaction root
	KMethod               // one method dispatch (subtransaction)
	KLock                 // one contended lock acquisition
	KWAL                  // group-commit participation of the commit
	KRecovery             // one restart-recovery phase (engine track)
	KPool                 // one buffer-pool write-back (engine track)
	KSession              // one server session's handling of the transaction
	KRepl                 // one replication role transition (engine track)
)

func (k Kind) String() string {
	switch k {
	case KTxn:
		return "txn"
	case KMethod:
		return "method"
	case KLock:
		return "lock"
	case KWAL:
		return "wal"
	case KRecovery:
		return "recovery"
	case KPool:
		return "pool"
	case KSession:
		return "session"
	case KRepl:
		return "repl"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON parses the string form, so exported traces round-trip.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for c := KTxn; c <= KRepl; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("span: unknown kind %q", s)
}

// EdgeKind classifies a provenance edge.
type EdgeKind string

// The provenance edge kinds.
const (
	// EdgeBlockedOn: the span waited for a conflicting (non-commuting)
	// holder; Wait is the interval, Peer the holder's action id.
	EdgeBlockedOn EdgeKind = "blocked-on"
	// EdgeVictimOf: the transaction was chosen as deadlock victim; Peer is
	// a conflicting transaction on the waits-for cycle, Note renders the
	// cycle.
	EdgeVictimOf EdgeKind = "victim-of"
	// EdgeTimeout: the wait exceeded the configured bound; Peer names a
	// holder still blocking at expiry.
	EdgeTimeout EdgeKind = "timeout"
	// EdgeInheritedFrom: the dependency belongs to a subtransaction but is
	// inherited by the named owning (calling) action — the paper's
	// Definition 10/11 inheritance made explicit. Absent when the caller's
	// invocations commute: commuting callers stop inheriting.
	EdgeInheritedFrom EdgeKind = "inherited-from"
)

// Edge is one provenance edge: the causal reason a span (and therefore its
// transaction) waited, aborted, or must serialize after a peer.
type Edge struct {
	Kind EdgeKind `json:"kind"`
	// Peer is the conflicting action's full hierarchical id; PeerRoot its
	// top-level transaction.
	Peer     string `json:"peer,omitempty"`
	PeerRoot string `json:"peerRoot,omitempty"`
	// Object and Mode describe the contested resource and the peer's lock
	// mode (its commutativity class).
	Object string `json:"object,omitempty"`
	Mode   string `json:"mode,omitempty"`
	// Wait is how long this edge held the span up.
	Wait time.Duration `json:"wait,omitempty"`
	Note string        `json:"note,omitempty"`
}

// Span is one node of a transaction's span tree. Parent/ID links encode
// the tree; Seq is the begin order within the trace.
type Span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name"`
	// Object and Method identify a dispatch; Class is the lock mode (the
	// commutativity class) the dispatch ran under.
	Object string    `json:"object,omitempty"`
	Method string    `json:"method,omitempty"`
	Class  string    `json:"class,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Err    string    `json:"err,omitempty"`
	N      int64     `json:"n,omitempty"`
	Note   string    `json:"note,omitempty"`
	Edges  []Edge    `json:"edges,omitempty"`
	Seq    int       `json:"seq"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Status is a transaction trace's outcome.
type Status string

// The trace statuses.
const (
	StatusRunning   Status = "running"
	StatusCommitted Status = "committed"
	StatusAborted   Status = "aborted"
)

// TxnTrace collects the span tree of one (sampled) top-level transaction.
// All methods are nil-receiver safe: an unsampled transaction holds a nil
// trace and every recording call degrades to a no-op.
type TxnTrace struct {
	txnID string
	start time.Time
	// seq is atomic (not under mu): BeginSpan is on the dispatch fast path
	// and only needs a unique, roughly-ordered begin sequence.
	seq atomic.Int64

	mu sync.Mutex
	// spans points at the ended spans' ActiveSpan storage: End publishes a
	// pointer, not a copy. buf holds the ended dispatch records of a
	// running trace; finish moves them into methods, sized to the trace.
	// Snapshot renders both.
	spans   []*Span
	buf     *dispatchBuf
	methods []dispatchRec
	end     time.Time
	status  Status
	// lastAbortEdge is the most recent provenance edge recorded on a span
	// that ended in error — the causal explanation an aborted transaction's
	// root span is stamped with.
	lastAbortEdge *Edge
	// remoteID/remoteAttempt carry the client-stamped distributed trace
	// context (wire extTrace) the server session joined this transaction to;
	// empty for transactions with no remote originator.
	remoteID      string
	remoteAttempt uint32
}

// SetRemote stamps the client-side trace context onto the trace: the
// cross-process joint /trace?trace= lookups resolve.
func (tt *TxnTrace) SetRemote(id string, attempt uint32) {
	if tt == nil || id == "" {
		return
	}
	tt.mu.Lock()
	tt.remoteID, tt.remoteAttempt = id, attempt
	tt.mu.Unlock()
}

// Remote returns the client-stamped trace id ("" when none).
func (tt *TxnTrace) Remote() string {
	if tt == nil {
		return ""
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.remoteID
}

// TxnID returns the traced transaction's id ("" on nil).
func (tt *TxnTrace) TxnID() string {
	if tt == nil {
		return ""
	}
	return tt.txnID
}

// BeginSpan opens a span. The returned ActiveSpan is owned by the calling
// goroutine until End; nil receivers yield nil (nil-safe) handles.
func (tt *TxnTrace) BeginSpan(id, parent string, kind Kind, name string) *ActiveSpan {
	return tt.BeginSpanAt(id, parent, kind, name, time.Now())
}

// BeginSpanAt opens a span with an explicit start time — used to backdate
// a lock span to the moment the wait began.
func (tt *TxnTrace) BeginSpanAt(id, parent string, kind Kind, name string, start time.Time) *ActiveSpan {
	if tt == nil {
		return nil
	}
	s := int(tt.seq.Add(1))
	return &ActiveSpan{tt: tt, sp: Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: start, Seq: s}}
}

// ActiveSpan is an open span. It is confined to one goroutine (the one
// executing the action) until End publishes it into the trace. End hands
// the span's storage to the trace: the handle must not be touched after End.
type ActiveSpan struct {
	tt *TxnTrace
	sp Span
}

// SetClass records the commutativity class (lock mode) the span ran under.
func (a *ActiveSpan) SetClass(class string) {
	if a == nil {
		return
	}
	a.sp.Class = class
}

// SetN records a count (group-commit batch size, records redone, ...).
func (a *ActiveSpan) SetN(n int64) {
	if a == nil {
		return
	}
	a.sp.N = n
}

// SetNote attaches free-form detail.
func (a *ActiveSpan) SetNote(note string) {
	if a == nil {
		return
	}
	a.sp.Note = note
}

// AddEdge attaches a provenance edge.
func (a *ActiveSpan) AddEdge(e Edge) {
	if a == nil {
		return
	}
	a.sp.Edges = append(a.sp.Edges, e)
}

// End closes the span (stamping err, when non-nil) and publishes it into
// the trace. A span that ends in error and carries provenance edges
// becomes the trace's current abort explanation. The trace keeps a pointer
// to the span, so the ActiveSpan must not be used after End.
func (a *ActiveSpan) End(err error) {
	if a == nil {
		return
	}
	a.sp.End = time.Now()
	if err != nil {
		a.sp.Err = err.Error()
	}
	tt := a.tt
	tt.mu.Lock()
	if err != nil && len(a.sp.Edges) > 0 {
		e := a.sp.Edges[len(a.sp.Edges)-1]
		tt.lastAbortEdge = &e
	}
	if tt.spans == nil {
		tt.spans = make([]*Span, 0, initialSpans)
	}
	tt.spans = append(tt.spans, &a.sp)
	tt.mu.Unlock()
}

// initialSpans is the span-pointer capacity a trace starts with: a
// dispatch-heavy transaction ends dozens of spans, and growing from one
// would cost a reallocation per doubling.
const initialSpans = 16

// Dispatch names a method dispatch for its span: its place in the
// transaction's action tree, and the object and method it invokes. The
// executing action implements it; End reads it once.
type Dispatch interface {
	Dispatch() (path Path, object, method string)
}

// Path is a dispatch's place in its transaction's action tree, by value:
// the child numbers from the root down to it. Its id — the transaction's
// id, then "." and each child number, as AppendID renders it — is rendered
// only when a snapshot reads it, so a dispatch record neither renders its
// id nor points at anything that could. A path deeper than the inline
// array, or with a child number past 65535, keeps its id rendered instead.
type Path struct {
	id    string
	n     Steps
	depth uint8
}

// Steps are the child numbers of a path a Path keeps inline: at most
// PathInline of them, each at most 65535.
type Steps [PathInline]uint16

// PathInline is the depth a Path keeps by value; the engine's workloads
// nest four or five deep.
const PathInline = 8

// InlinePath returns the path of the first depth child numbers of steps.
func InlinePath(steps Steps, depth int) Path { return Path{n: steps, depth: uint8(depth)} }

// RenderedPath returns the path whose id is id: one that does not fit a
// Path inline.
func RenderedPath(id string) Path { return Path{id: id} }

// ids renders the dispatch's id and its parent's under the transaction
// root: one string, the parent's a prefix of it.
func (p *Path) ids(root string) (id, parent string) {
	id = p.id
	if id == "" {
		var b [64]byte
		id = string(p.n.AppendID(b[:0], root, int(p.depth)))
	}
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		parent = id[:i]
	}
	return id, parent
}

// AppendID appends the id of the action at path below the top-level
// action root: root, then "." and each child number. It is the one
// renderer of action ids: lock owners, dispatch records and the engine's
// log records all render through it (Steps.AppendID for an inline path).
func AppendID(dst []byte, root string, path []int32) []byte {
	dst = append(dst, root...)
	for _, n := range path {
		dst = appendStep(dst, int64(n))
	}
	return dst
}

// AppendID is AppendID for the first depth child numbers of s.
func (s *Steps) AppendID(dst []byte, root string, depth int) []byte {
	dst = append(dst, root...)
	for _, n := range s[:depth] {
		dst = appendStep(dst, int64(n))
	}
	return dst
}

func appendStep(dst []byte, n int64) []byte {
	return strconv.AppendInt(append(dst, '.'), n, 10)
}

// Mode is the lock mode — the commutativity class — a dispatch runs under.
// End copies its Class into the dispatch's record, so a trace keeps no
// pointer to a mode: the engine's modes live in action records it reuses
// once the transaction ends.
type Mode interface {
	Class() Class
}

// Class is a lock mode copied by value: what renders a method span's Class
// when the trace is read, and the parameters it renders from. It shares no
// storage with the mode it was copied from, except a parameter list longer
// than two, which is kept by reference and must not be reused.
type Class struct {
	// Render renders the class from the dispatch's method and the copied
	// parameters; a nil Render renders no class.
	Render func(method string, params []string) string
	args   [2]string
	more   []string
	n      uint8
}

// SetParams copies params into c: up to two by value, a longer list by
// reference.
func (c *Class) SetParams(params []string) {
	if len(params) > len(c.args) {
		c.more = params
		return
	}
	c.n = uint8(copy(c.args[:], params))
}

func (c *Class) params() []string {
	if c.more != nil {
		return c.more
	}
	return c.args[:c.n]
}

// Method is the span record of one open method dispatch, held by value in
// the action it describes: beginning it allocates nothing. End copies it,
// with what the action names and its mode, into the trace as a value
// record. A record begun on a nil trace stays inert.
type Method struct {
	tt   *TxnTrace
	mode Mode
	// start is an offset from the trace's start: one monotonic clock read.
	start time.Duration
	seq   int
}

// BeginMethod opens m as a dispatch span. The record is owned by the
// calling goroutine.
func (tt *TxnTrace) BeginMethod(m *Method) {
	if tt == nil {
		return
	}
	m.tt = tt
	m.seq = int(tt.seq.Add(1))
	m.start = time.Since(tt.start)
}

// SetMode records the lock mode the dispatch runs under. It is copied at
// End and rendered into Class only when the trace is read.
func (m *Method) SetMode(mode Mode) {
	if m.tt != nil {
		m.mode = mode
	}
}

// End closes the record of dispatch src (stamping err, when non-nil) and
// copies it into the trace. Neither src nor the mode is read afterwards.
func (m *Method) End(src Dispatch, err error) {
	tt := m.tt
	if tt == nil {
		return
	}
	var r dispatchRec
	r.end = time.Since(tt.start)
	r.start, r.seq = m.start, int32(m.seq)
	var p Path
	p, r.object, r.method = src.Dispatch()
	r.id, r.path, r.depth = p.id, p.n, p.depth
	if m.mode != nil {
		r.class = m.mode.Class()
	}
	if err != nil {
		r.err = err.Error()
	}
	tt.mu.Lock()
	if tt.buf == nil {
		tt.buf = new(dispatchBuf)
	}
	tt.buf.recs = append(tt.buf.recs, r)
	tt.mu.Unlock()
}

// dispatchRec is an ended dispatch by value: what its KMethod span renders
// from. It points at no action, so a retained trace keeps none reachable.
type dispatchRec struct {
	object, method string
	err            string
	class          Class
	// start and end are offsets from the trace's start.
	start, end time.Duration
	// path's fields are kept flat, so seq fills its padding.
	id    string
	path  Steps
	depth uint8
	seq   int32
}

// span renders the record as the KMethod span it stands for, in the trace
// of transaction root.
func (r *dispatchRec) span(root string, start time.Time) Span {
	p := Path{id: r.id, n: r.path, depth: r.depth}
	id, parent := p.ids(root)
	sp := Span{
		ID: id, Parent: parent, Kind: KMethod, Name: r.object + "." + r.method,
		Object: r.object, Method: r.method,
		Start: start.Add(r.start), End: start.Add(r.end),
		Err: r.err, Seq: int(r.seq),
	}
	if r.class.Render != nil {
		sp.Class = r.class.Render(r.method, r.class.params())
	}
	return sp
}

// dispatchBuf collects a running trace's dispatch records. The tracer
// reuses buffers across traces: a finished trace keeps an exactly sized copy
// of its records and hands the buffer back, so a steady stream of
// transactions grows none.
type dispatchBuf struct{ recs []dispatchRec }

// finish seals the trace with its outcome and keeps its dispatch records
// in one slice sized to them: the only allocation, and no string rendered.
// It returns the emptied buffer they were collected in (nil when none). A
// dispatch that ends after finish (one racing the transaction's end) starts
// a new buffer, which the trace keeps.
func (tt *TxnTrace) finish(status Status, end time.Time) *dispatchBuf {
	tt.mu.Lock()
	tt.status = status
	tt.end = end
	b := tt.buf
	if b != nil {
		tt.methods = append(tt.methods, b.recs...)
		tt.buf = nil
	}
	tt.mu.Unlock()
	if b != nil {
		clear(b.recs)
		b.recs = b.recs[:0]
	}
	return b
}

// TxnSpans is an immutable snapshot of one transaction's trace: the
// synthesized root span first, then every recorded span in begin order.
type TxnSpans struct {
	TxnID  string        `json:"txn"`
	Status Status        `json:"status"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"`
	Dur    time.Duration `json:"dur"`
	// Remote/RemoteAttempt echo the client-stamped distributed trace
	// context; Partition is the cluster-view qualifier ("p0") stamped by
	// ClusterHandler when merging per-partition tracers.
	Remote        string `json:"remote,omitempty"`
	RemoteAttempt uint32 `json:"remoteAttempt,omitempty"`
	Partition     string `json:"partition,omitempty"`
	Spans         []Span `json:"spans"`
}

// Snapshot renders the trace. Safe to call on a live (running) trace; the
// running root span ends "now".
func (tt *TxnTrace) Snapshot() TxnSpans {
	if tt == nil {
		return TxnSpans{}
	}
	tt.mu.Lock()
	status := tt.status
	if status == "" {
		status = StatusRunning
	}
	end := tt.end
	if end.IsZero() {
		end = time.Now()
	}
	root := Span{ID: tt.txnID, Kind: KTxn, Name: tt.txnID, Start: tt.start, End: end}
	if status == StatusAborted {
		root.Err = "aborted"
		if tt.lastAbortEdge != nil {
			root.Edges = []Edge{*tt.lastAbortEdge}
		}
	}
	// finish sets methods once, so its header copied under mu names final
	// records; a running trace's records sit in a buffer finish hands back
	// for reuse, so they are copied out under mu.
	methods := tt.methods
	var live []dispatchRec
	if tt.buf != nil {
		live = slices.Clone(tt.buf.recs)
	}
	spans := make([]Span, 0, len(tt.spans)+len(methods)+len(live)+1)
	spans = append(spans, root)
	for _, sp := range tt.spans {
		spans = append(spans, *sp)
	}
	remoteID, remoteAttempt := tt.remoteID, tt.remoteAttempt
	tt.mu.Unlock()
	// Dispatch records leave Name and Class unrendered on the hot path;
	// derive them here.
	for i := range methods {
		spans = append(spans, methods[i].span(tt.txnID, tt.start))
	}
	for i := range live {
		spans = append(spans, live[i].span(tt.txnID, tt.start))
	}
	// Recorded spans are appended at End (children before parents);
	// re-establish begin order for rendering. The root keeps Seq 0.
	sortSpans(spans)
	return TxnSpans{
		TxnID:         tt.txnID,
		Status:        status,
		Start:         tt.start,
		End:           end,
		Dur:           end.Sub(tt.start),
		Remote:        remoteID,
		RemoteAttempt: remoteAttempt,
		Spans:         spans,
	}
}

// sortSpans orders by begin sequence (insertion sort: traces are small and
// mostly ordered already).
func sortSpans(s []Span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Seq < s[j-1].Seq; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
