// Package server is oodbd's session layer: it serves the core engine over
// TCP with the internal/wire frame protocol. One connection is one
// session — a goroutine pair (frame reader + request handler) owning at
// most one open transaction at a time, with that transaction mapped onto
// one core.Options.MaxInflight admission slot for its whole lifetime:
// granted on BEGIN via AdmitSlot (so a disconnect cancels a parked
// admission instead of holding a queue position), released on COMMIT,
// ABORT, or disconnect. A client that dies mid-transaction gets its
// transaction aborted and its slot released — sessions cannot leak
// admission capacity.
//
// The backend is a partition.Cluster. With one partition the session layer
// behaves exactly as above. With N > 1 the router lives here: BEGIN defers
// admission until the transaction's first object access, which pins it to
// that object's partition (each partition runs its own admission
// controller, so the slot comes from the pinned partition); any later
// access that routes elsewhere is refused with the typed
// wire.CodeWrongPartition and the transaction stays open on its partition.
// A transaction that commits or aborts without touching any object never
// consumed a slot anywhere.
//
// Shutdown is drain-then-close: stop accepting, cut the in-flight
// sessions (their open transactions abort, their slots release), wait for
// every session goroutine, then close the engine — core.DB.Close itself
// drains admitted transactions before the WAL goes away, so a commit that
// won the race completes durably and one that lost it is refused with the
// typed ErrClosed, never half-logged.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wire"
)

// Options configure a Server.
type Options struct {
	// IdleTimeout reaps sessions with no traffic for this long (default
	// 5m; <0 disables). A reaped session behaves exactly like a
	// disconnected one: open transaction aborted, admission slot released.
	IdleTimeout time.Duration
	// QueueDepth is the per-session request pipeline depth (default 16):
	// how many decoded frames may wait behind the one being executed.
	QueueDepth int
}

func (o Options) withDefaults() Options {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	return o
}

// Replicated is the replication gate a Server consults when it fronts a
// replica instead of owning an engine: whether this node currently leads
// (and over which cluster), where the leader is otherwise, and the warm
// standby image read-only sessions serve from. *repl.Node implements it.
type Replicated interface {
	// LeaderCluster returns the cluster to run write sessions on, false
	// while this node is not a fully promoted leader.
	LeaderCluster() (*partition.Cluster, bool)
	// LeaderHint is the best-known leader client address ("" mid-election);
	// it rides CodeNotLeader rejections so clients redirect.
	LeaderHint() string
	// StandbyRead serves a committed page from the follower's standby image.
	StandbyRead(page uint64) (string, bool)
	// Status is the replication state /healthz reports.
	Status() repl.Status
}

// Server serves a partitioned cluster (possibly of one) over TCP.
type Server struct {
	cluster *partition.Cluster
	// gate, when set, replaces the static cluster: sessions resolve the
	// engine through it at BEGIN, follower sessions run read-only, and
	// Shutdown leaves engine lifecycle to the gate's owner.
	gate Replicated
	opts Options

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	shutErr  error
	shutDone chan struct{}
	shutOnce sync.Once

	wg sync.WaitGroup // accept loop + session goroutines

	reg       *obs.Registry
	sessions  *obs.Gauge   // server.sessions: live sessions
	accepted  *obs.Counter // server.sessions_total
	requests  *obs.Counter // server.requests
	reaped    *obs.Counter // server.sessions_reaped (idle timeouts)
	frameErrs *obs.Counter // server.frame_errors (torn/corrupt frames)
	sessDur   *obs.Histogram
	// Per-request-type frame observability: server.msg.<type>_ns is the
	// arrival-to-response-encoded latency (queue wait + execute + encode),
	// server.msg.<type>_bytes the request frame's size on the wire.
	msgLat  map[wire.MsgType]*obs.Histogram
	msgSize map[wire.MsgType]*obs.Histogram
	rec     *obs.FlightRecorder
}

// New builds a server for a single caller-owned engine — the historical
// entry point, equivalent to NewCluster(partition.Single(db), opts).
func New(db *core.DB, opts Options) *Server {
	return NewCluster(partition.Single(db), opts)
}

// NewCluster builds a server routing sessions across a partitioned
// cluster. The cluster's observability registry (if any) gets the server's
// counters; nil registries degrade to no-ops.
func NewCluster(c *partition.Cluster, opts Options) *Server {
	return newServer(c, nil, c.Obs(), opts)
}

// NewReplicated builds a server fronting a replication gate instead of a
// caller-owned cluster: BEGIN resolves the engine through the gate, writes
// on a non-leader are refused with CodeNotLeader (carrying the leader
// hint), PAGE_READ on a non-leader serves the warm standby, and Shutdown
// does NOT close the engine — the gate's owner (the repl.Node) does.
func NewReplicated(gate Replicated, reg *obs.Registry, opts Options) *Server {
	return newServer(nil, gate, reg, opts)
}

func newServer(c *partition.Cluster, gate Replicated, reg *obs.Registry, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cluster:   c,
		gate:      gate,
		opts:      opts.withDefaults(),
		baseCtx:   ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
		shutDone:  make(chan struct{}),
		reg:       reg,
		sessions:  reg.Gauge("server.sessions"),
		accepted:  reg.Counter("server.sessions_total"),
		requests:  reg.Counter("server.requests"),
		reaped:    reg.Counter("server.sessions_reaped"),
		frameErrs: reg.Counter("server.frame_errors"),
		sessDur:   reg.Histogram("server.session_ns", obs.LatencyBounds()),
		msgLat:    make(map[wire.MsgType]*obs.Histogram),
		msgSize:   make(map[wire.MsgType]*obs.Histogram),
		rec:       reg.Recorder(),
	}
	for t := wire.MsgBegin; t.Request(); t++ {
		name := strings.ToLower(t.String())
		s.msgLat[t] = reg.Histogram("server.msg."+name+"_ns", obs.LatencyBounds())
		s.msgSize[t] = reg.Histogram("server.msg."+name+"_bytes", obs.SizeBounds())
	}
	return s
}

// errCounter returns the wire-error counter for one taxonomy code
// (server.err.<code>), get-or-create so only codes actually returned
// appear in the snapshot.
func (s *Server) errCounter(code wire.ErrCode) *obs.Counter {
	return s.reg.Counter("server.err." + code.String())
}

// Start listens on addr (host:port; port 0 picks a free port) and begins
// accepting sessions. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln)
}

// Serve begins accepting sessions on a listener the caller bound, and owns
// it from then on. It returns the bound address.
func (s *Server) Serve(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// DB returns the served engine's first partition — the whole engine for a
// single-partition server; nil on a replicated server (the engine belongs
// to the gate, and only exists while this node leads).
func (s *Server) DB() *core.DB {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.Part(0)
}

// Cluster returns the served partition cluster (nil on a replicated
// server).
func (s *Server) Cluster() *partition.Cluster { return s.cluster }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				// An accept loop dying outside shutdown is a served-engine
				// outage; make it observable (same rule as obs.ServeListener).
				s.rec.Record(obs.Event{Kind: obs.EvFailure, Actor: "server.accept",
					Note: err.Error()})
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Inc()
		s.sessions.Add(1)
		go s.session(conn)
	}
}

// Shutdown is the drain-then-close path: stop accepting, cut in-flight
// sessions (open transactions abort and release their admission slots),
// wait for every session goroutine — bounded by ctx — then close the
// engine. Idempotent; every caller gets the first shutdown's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		ln := s.ln
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()

		if ln != nil {
			_ = ln.Close() // stop accepting
		}
		s.cancel() // unpark AdmitSlot waiters, signal handlers
		for _, c := range conns {
			_ = c.Close() // unblock session readers; cleanup aborts their txns
		}
		// A replicated server never owns the engine — the repl.Node opened
		// it and closes it (possibly long after this server is gone, if the
		// node keeps replicating); closing it here would double-close.
		closeEngine := func() error {
			if s.cluster == nil {
				return nil
			}
			return s.cluster.Close()
		}
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
			s.shutErr = closeEngine()
		case <-ctx.Done():
			// Sessions still running at the deadline: close the engine
			// anyway (Close drains admitted transactions itself) and report
			// the bounded wait's failure.
			closeErr := closeEngine()
			s.shutErr = errors.Join(fmt.Errorf("server: shutdown wait: %w", ctx.Err()), closeErr)
		}
		close(s.shutDone)
	})
	<-s.shutDone
	return s.shutErr
}

// session is one connection's state: at most one open transaction, pinned
// to one admission slot on one partition.
type session struct {
	peer string
	// spanName is the KSession span's name, "session "+peer, built once.
	spanName string
	txn      *core.Txn
	// slot is the engine whose admission slot the open transaction holds
	// (core.DB.AdmitSlot); nil once released, so a slot goes back once.
	slot *core.DB
	// cluster is the engine this session runs on, pinned at BEGIN. On a
	// static server it is always Server.cluster; on a replicated server it
	// is the leader cluster as of BEGIN — a deposal mid-transaction fails
	// the commit typed (CodeNotLeader) rather than silently rebinding.
	cluster *partition.Cluster
	// ro marks a read-only session on a replicated non-leader: PAGE_READ
	// serves the standby image, writes are refused with CodeNotLeader.
	ro bool
	// pending marks a BEGIN received on a multi-partition cluster whose
	// admission and engine Begin are deferred to the first object access —
	// that access decides the partition. part is the pinned partition index
	// once txn is non-nil.
	pending bool
	part    int

	// Distributed-trace state for the open transaction: the client-stamped
	// context from the BEGIN frame, the BEGIN frame's arrival time (so the
	// KSession span covers queue wait and, on a deferred BEGIN, the window
	// until the partition pin), and the accumulated per-frame figures the
	// span's note reports.
	span          *span.ActiveSpan
	beganAt       time.Time
	remoteID      string
	remoteAttempt uint32
	admitWait     time.Duration
	execTime      time.Duration
	frames        int64
	note          []byte // the span note's buffer, reused per transaction

	// objType and objName are clones of the last invoked object's type and
	// name. A message's strings are views of the whole frame, and the
	// object id becomes a lock-table key, which lives as long as any
	// transaction holds that lock, past this one; a clone pins no frame.
	// Keeping the last one makes a run of calls to one object clone once.
	objType, objName string
}

// object returns the invoked object's id as clones that pin no frame.
func (ss *session) object(m wire.Msg) txn.OID {
	if m.ObjType != ss.objType {
		ss.objType = strings.Clone(m.ObjType)
	}
	if m.ObjName != ss.objName {
		ss.objName = strings.Clone(m.ObjName)
	}
	return txn.OID{Type: ss.objType, Name: ss.objName}
}

// open reports whether the session has a transaction open from the
// client's point of view (started, pending a partition pin, or a
// read-only transaction on a replica).
func (ss *session) open() bool { return ss.txn != nil || ss.pending || ss.ro }

// openSpan grafts the KSession span onto the engine transaction's trace:
// the span carries the peer, the partition route, and — via SetRemote —
// the client's trace id, which is the joint /trace?trace= queries resolve.
// Backdated to the BEGIN frame's arrival so admission wait (and, on a
// multi-partition cluster, the deferred-pin window) is inside the span.
func (ss *session) openSpan(part int) {
	tt := ss.txn.Trace()
	if tt == nil {
		return
	}
	tt.SetRemote(ss.remoteID, ss.remoteAttempt)
	id := ss.txn.ID()
	sp := tt.BeginSpanAt(id+".sess", id, span.KSession, ss.spanName, ss.beganAt)
	sp.SetClass(partClass(part))
	ss.span = sp
}

// partClasses are the session spans' partition classes "p0".."p63",
// rendered once.
var partClasses = func() (c [64]string) {
	for i := range c {
		c[i] = "p" + strconv.Itoa(i)
	}
	return c
}()

// partClass is partition part's span class.
func partClass(part int) string {
	if part >= 0 && part < len(partClasses) {
		return partClasses[part]
	}
	return "p" + strconv.Itoa(part)
}

// appendNote appends the session span's note, byte-identical to
// fmt.Sprintf("peer=%s admit=%s exec=%s frames=%d", …) with both
// durations rounded to the microsecond.
func (ss *session) appendNote(dst []byte) []byte {
	dst = append(append(dst, "peer="...), ss.peer...)
	dst = appendDuration(append(dst, " admit="...), ss.admitWait.Round(time.Microsecond))
	dst = appendDuration(append(dst, " exec="...), ss.execTime.Round(time.Microsecond))
	return strconv.AppendInt(append(dst, " frames="...), ss.frames, 10)
}

// appendDuration appends d as time.Duration.String renders it, without
// the string String allocates: "0s", then hours and minutes when present,
// and the rest in the largest unit that keeps it at or above one —
// s, ms, µs or ns — with trailing fractional zeros dropped.
func appendDuration(dst []byte, d time.Duration) []byte {
	if d == 0 {
		return append(dst, "0s"...)
	}
	u := uint64(d)
	if d < 0 {
		dst = append(dst, '-')
		u = -u
	}
	if u < uint64(time.Second) {
		prec, unit := 0, "ns"
		switch {
		case u < uint64(time.Microsecond):
		case u < uint64(time.Millisecond):
			prec, unit = 3, "\u00b5s"
		default:
			prec, unit = 6, "ms"
		}
		return append(appendFrac(dst, u, prec), unit...)
	}
	if h := u / uint64(time.Hour); h > 0 {
		dst = append(strconv.AppendUint(dst, h, 10), 'h')
	}
	if u >= uint64(time.Minute) {
		dst = append(strconv.AppendUint(dst, u/uint64(time.Minute)%60, 10), 'm')
	}
	return append(appendFrac(dst, u%uint64(time.Minute), 9), 's')
}

// appendFrac appends v/10^prec: the integer part, then the fractional
// digits without trailing zeros, and no point when they are all zero.
func appendFrac(dst []byte, v uint64, prec int) []byte {
	var frac [9]byte
	w := len(frac)
	for i := 0; i < prec; i++ {
		digit := v % 10
		v /= 10
		if w < len(frac) || digit != 0 {
			w--
			frac[w] = byte('0' + digit)
		}
	}
	dst = strconv.AppendUint(dst, v, 10)
	if w < len(frac) {
		dst = append(append(dst, '.'), frac[w:]...)
	}
	return dst
}

// finish closes the session span with the transaction's outcome and
// per-frame accounting, clears the open transaction, and releases its
// admission slot.
func (ss *session) finish(err error) {
	if ss.span != nil {
		ss.span.SetN(ss.frames)
		ss.note = ss.appendNote(ss.note[:0])
		ss.span.SetNote(string(ss.note))
		ss.span.End(err)
		ss.span = nil
	}
	ss.txn = nil
	ss.pending = false
	ss.ro = false
	ss.cluster = nil
	ss.remoteID, ss.remoteAttempt = "", 0
	ss.admitWait, ss.execTime, ss.frames = 0, 0, 0
	if ss.slot != nil {
		ss.slot.ReleaseSlot()
		ss.slot = nil
	}
}

// maxSpareParams caps the params arrays a session recycles (see spare in
// session), so one long parameter list is not kept for the session's life.
const maxSpareParams = 16

// inbound is one decoded request frame plus its arrival time — the zero
// point the per-type latency histograms and the KSession span measure
// from.
type inbound struct {
	m  wire.Msg
	at time.Time
}

func (s *Server) session(conn net.Conn) {
	defer s.wg.Done()
	defer s.sessions.Add(-1)
	start := time.Now()
	defer func() { s.sessDur.ObserveDuration(time.Since(start)) }()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	peer := conn.RemoteAddr().String()
	ss := &session{peer: peer, spanName: "session " + peer}
	// Disconnect, reap, or shutdown — however the session ends, an open
	// transaction is aborted and its admission slot released. This is the
	// no-slot-leak invariant the e2e server tests assert via /metrics.
	defer func() {
		if ss.txn != nil {
			_ = ss.txn.Abort()
			s.rec.Record(obs.Event{Kind: obs.EvTxnAbort, Actor: ss.txn.ID(),
				Note: "session " + ss.peer + " disconnected mid-txn"})
			ss.finish(errors.New("session disconnected mid-txn"))
			return
		}
		ss.finish(nil)
	}()

	// Reader: decodes frames and feeds the handler. It owns the idle
	// deadline; on any read failure it cancels the session so a handler
	// parked in AdmitSlot (or mid-pipeline) unblocks immediately.
	// It reads through a buffer, so a small frame costs one read call, and
	// into one reused frame buffer: a message's strings are a copy. Its
	// params go into an array the handler handed back in spare once done
	// with an earlier request (the engine copies what it keeps), so a
	// steady session allocates none.
	reqs := make(chan inbound, s.opts.QueueDepth)
	// spare holds one array per request in flight: QueueDepth queued, one
	// executing and one being read, so a handler's hand-back never finds
	// it full once the session is warm.
	spare := make(chan []string, s.opts.QueueDepth+2)
	go func() {
		defer cancel()
		defer close(reqs)
		br := bufio.NewReader(conn)
		var rbuf []byte
		var params []string
		for {
			if s.opts.IdleTimeout > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
			}
			if params == nil {
				select {
				case params = <-spare:
				default:
				}
			}
			m, n, err := wire.ReadMsgBuf(br, &rbuf, params, nil)
			if err != nil {
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout():
					s.reaped.Inc()
					s.rec.Record(obs.Event{Kind: obs.EvFailure, Actor: "server.session",
						Object: ss.peer, Note: "idle session reaped"})
				case errors.Is(err, wire.ErrFrameTorn), errors.Is(err, wire.ErrFrameCorrupt):
					s.frameErrs.Inc()
				}
				return
			}
			if len(m.Params) > 0 && len(m.Params) <= cap(params) {
				params = nil // the message holds it now
			}
			s.msgSize[m.Type].Observe(int64(n))
			select {
			case reqs <- inbound{m: m, at: time.Now()}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wbuf []byte // the session's reply encode buffer
	for {
		var in inbound
		var ok bool
		select {
		case in, ok = <-reqs:
		case <-ctx.Done():
			return
		}
		if !ok {
			return
		}
		m := in.m
		s.requests.Inc()
		execStart := time.Now()
		resp := s.handle(ctx, ss, in)
		if len(m.Params) > 0 && cap(m.Params) <= maxSpareParams {
			clear(m.Params) // a spare array must not pin the frame
			select {
			case spare <- m.Params[:0]:
			default:
			}
		}
		if ss.open() {
			ss.execTime += time.Since(execStart)
			ss.frames++
		}
		resp.Seq = m.Seq
		err := wire.WriteMsgBuf(conn, &wbuf, resp)
		s.msgLat[m.Type].ObserveDuration(time.Since(in.at))
		if resp.Type == wire.MsgError {
			s.errCounter(resp.Code).Inc()
		}
		if err != nil {
			return
		}
	}
}

func errResp(err error) wire.Msg {
	return wire.Msg{Type: wire.MsgError, Code: wire.CodeFor(err), Result: err.Error()}
}

// notLeaderResp is the typed write-refusal a replica answers with: the
// detail carries the leader's client address when known, which the client
// parses (wire.LeaderHint) to redirect.
func (s *Server) notLeaderResp() wire.Msg {
	return errRespCode(wire.CodeNotLeader, wire.NotLeaderDetail(s.gate.LeaderHint()))
}

func errRespCode(code wire.ErrCode, detail string) wire.Msg {
	return wire.Msg{Type: wire.MsgError, Code: code, Result: detail}
}

func okResp(result string) wire.Msg {
	return wire.Msg{Type: wire.MsgResult, Result: result}
}

// StatsReply is the STATS response payload (JSON in Msg.Result). On a
// multi-partition server Engine and Health are the cluster aggregates
// (counters summed, degradation sticky).
type StatsReply struct {
	Protocol   string      `json:"protocol"`
	Engine     core.Stats  `json:"engine"`
	Health     core.Health `json:"health"`
	Pages      int         `json:"pages"`
	Partitions int         `json:"partitions"`
}

// Draining reports whether Shutdown has begun: the window in which the
// server stops accepting sessions but the engine may still be flushing —
// /healthz reports "draining" so a load balancer stops routing here.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// healthzReply is the /healthz JSON body.
type healthzReply struct {
	Status   string `json:"status"` // ready | replica | degraded | draining
	Sessions int64  `json:"sessions"`
	// Repl is the node's replication state (role, term, commit index, lag)
	// on a replicated server; absent otherwise.
	Repl       *repl.Status       `json:"repl,omitempty"`
	Partitions []healthzPartition `json:"partitions,omitempty"`
}

type healthzPartition struct {
	Partition string `json:"partition"`
	Degraded  bool   `json:"degraded"`
	Cause     string `json:"cause,omitempty"`
	Inflight  int64  `json:"inflight"`
	Max       int    `json:"max_inflight"`
}

// HealthzHandler serves readiness: 200 {"status":"ready"} while serving,
// 503 "draining" once Shutdown begins, 503 "degraded" when any partition
// engine has gone read-only — with per-partition detail either way. A
// replicated non-leader answers 503 {"status":"replica"} with the node's
// role/term/commit-index in "repl", so load balancers route writes to the
// leader while operators still see every replica's position.
func (s *Server) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reply := healthzReply{Status: "ready", Sessions: s.sessions.Load()}
		cl := s.cluster
		leading := true
		if s.gate != nil {
			st := s.gate.Status()
			reply.Repl = &st
			cl, leading = s.gate.LeaderCluster()
		}
		degraded := false
		if cl != nil {
			for i := 0; i < cl.N(); i++ {
				h := cl.Part(i).Health()
				degraded = degraded || h.Degraded
				reply.Partitions = append(reply.Partitions, healthzPartition{
					Partition: fmt.Sprintf("p%d", i),
					Degraded:  h.Degraded,
					Cause:     h.DegradedCause,
					Inflight:  h.Inflight,
					Max:       h.MaxInflight,
				})
			}
		}
		code := http.StatusOK
		switch {
		case s.Draining():
			reply.Status, code = "draining", http.StatusServiceUnavailable
		case !leading:
			reply.Status, code = "replica", http.StatusServiceUnavailable
		case degraded:
			reply.Status, code = "degraded", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(reply)
	})
}

// txnFor returns the session's transaction for an access to the named
// object. A pending session is pinned here: the first-touched object's
// partition admits the transaction (its own controller, its own slot) and
// begins it. A pinned session's access is checked against the router —
// an object on another partition gets ErrWrongPartition and the
// transaction is left untouched on its partition.
func (s *Server) txnFor(ctx context.Context, ss *session, name string) (*core.Txn, error) {
	if ss.txn != nil {
		if p := ss.cluster.Route(name); p != ss.part {
			return nil, fmt.Errorf("%w: %q is on p%d, transaction pinned to p%d",
				partition.ErrWrongPartition, name, p, ss.part)
		}
		return ss.txn, nil
	}
	p := ss.cluster.Route(name)
	db := ss.cluster.Part(p)
	admitStart := time.Now()
	if err := db.AdmitSlot(ctx); err != nil {
		return nil, err
	}
	ss.admitWait = time.Since(admitStart)
	ss.txn = db.Begin()
	ss.slot = db
	ss.part = p
	ss.pending = false
	ss.openSpan(p)
	return ss.txn, nil
}

// handle executes one request against the session. Responses carry the
// typed taxonomy: every engine failure maps through wire.CodeFor so the
// client can decide retry vs give-up without string matching.
func (s *Server) handle(ctx context.Context, ss *session, in inbound) wire.Msg {
	m := in.m
	switch m.Type {
	case wire.MsgPing:
		return okResp(m.Result)

	case wire.MsgStats:
		cl := s.cluster
		if s.gate != nil {
			lc, ok := s.gate.LeaderCluster()
			if !ok {
				return s.notLeaderResp()
			}
			cl = lc
		}
		reply := StatsReply{
			Protocol:   cl.Protocol().String(),
			Engine:     cl.Stats(),
			Health:     cl.Health(),
			Pages:      cl.NumPages(),
			Partitions: cl.N(),
		}
		data, err := json.Marshal(reply)
		if err != nil {
			return errRespCode(wire.CodeInternal, err.Error())
		}
		return okResp(string(data))

	case wire.MsgBegin:
		if ss.open() {
			detail := "transaction pending partition pin"
			if ss.txn != nil {
				detail = ss.txn.ID() + " still open"
			}
			return errRespCode(wire.CodeTxnOpen, detail)
		}
		ss.beganAt = in.at
		ss.remoteID, ss.remoteAttempt = m.TraceID, m.TraceAttempt
		cl := s.cluster
		if s.gate != nil {
			lc, ok := s.gate.LeaderCluster()
			if !ok {
				// Not the leader: open a read-only session over the standby
				// image. Writes inside it are refused with the redirect hint;
				// BEGIN itself succeeds so read-only clients need no routing.
				ss.ro = true
				return okResp("ro")
			}
			cl = lc
		}
		ss.cluster = cl
		if cl.N() > 1 {
			// Multi-partition: the first object access decides the partition
			// (and takes that partition's admission slot). Deferring keeps a
			// never-used transaction from pinning an arbitrary partition.
			ss.pending = true
			return okResp("pending")
		}
		admitStart := time.Now()
		db := cl.Part(0)
		if err := db.AdmitSlot(ctx); err != nil {
			return errResp(err)
		}
		ss.admitWait = time.Since(admitStart)
		ss.txn = db.Begin()
		ss.slot = db
		ss.openSpan(0)
		return okResp(ss.txn.ID())

	case wire.MsgInvoke:
		if !ss.open() {
			return errRespCode(wire.CodeNoTxn, m.Type.String()+" outside a transaction")
		}
		if ss.ro {
			return s.notLeaderResp()
		}
		if m.ObjType == "" || m.Method == "" {
			return errRespCode(wire.CodeBadRequest, "INVOKE needs object type and method")
		}
		tx, err := s.txnFor(ctx, ss, m.ObjName)
		if err != nil {
			return errResp(err)
		}
		res, err := tx.Exec(ss.object(m), m.Method, m.Params...)
		if err != nil {
			return errResp(err)
		}
		return okResp(res)

	case wire.MsgPageRead:
		if !ss.open() {
			return errRespCode(wire.CodeNoTxn, m.Type.String()+" outside a transaction")
		}
		if ss.ro {
			// Replica read: the warm standby image holds committed state
			// only, exactly what a post-crash recovery would serve.
			data, ok := s.gate.StandbyRead(m.Page)
			if !ok {
				return errRespCode(wire.CodeBadRequest,
					fmt.Sprintf("page %d not in the standby image", m.Page))
			}
			return okResp(data)
		}
		oid := core.PageOID(storage.PageID(m.Page))
		tx, err := s.txnFor(ctx, ss, oid.Name)
		if err != nil {
			return errResp(err)
		}
		res, err := tx.Exec(oid, "read")
		if err != nil {
			return errResp(err)
		}
		return okResp(res)

	case wire.MsgPageWrite:
		if !ss.open() {
			return errRespCode(wire.CodeNoTxn, m.Type.String()+" outside a transaction")
		}
		if ss.ro {
			return s.notLeaderResp()
		}
		if len(m.Params) != 1 {
			return errRespCode(wire.CodeBadRequest, "PAGE_WRITE needs exactly one data parameter")
		}
		oid := core.PageOID(storage.PageID(m.Page))
		tx, err := s.txnFor(ctx, ss, oid.Name)
		if err != nil {
			return errResp(err)
		}
		if _, err := tx.Exec(oid, "write", m.Params[0]); err != nil {
			return errResp(err)
		}
		return okResp("")

	case wire.MsgCommit:
		if !ss.open() {
			return errRespCode(wire.CodeNoTxn, "COMMIT outside a transaction")
		}
		if ss.txn == nil {
			// Pending transaction that never touched an object: nothing was
			// admitted or begun anywhere — an empty commit.
			ss.finish(nil)
			return okResp("")
		}
		err := ss.txn.Commit()
		ss.execTime += time.Since(in.at)
		ss.frames++
		ss.finish(err)
		if err != nil {
			return errResp(err)
		}
		return okResp("")

	case wire.MsgAbort:
		if !ss.open() {
			return errRespCode(wire.CodeNoTxn, "ABORT outside a transaction")
		}
		if ss.txn == nil {
			ss.finish(nil)
			return okResp("")
		}
		err := ss.txn.Abort()
		ss.execTime += time.Since(in.at)
		ss.frames++
		ss.finish(err)
		if err != nil && !errors.Is(err, core.ErrTxnFinished) {
			return errResp(err)
		}
		return okResp("")
	}
	return errRespCode(wire.CodeBadRequest, "unknown request "+m.Type.String())
}
