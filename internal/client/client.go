// Package client is the Go client for oodbd (internal/server): a
// connection pool speaking the internal/wire frame protocol, with a
// RunWithRetry helper mirroring core.RunWithRetry's shape on the client
// side of the wire.
//
// The protocol binds transaction state to a connection — one connection is
// one server session, at most one open transaction — so the pool hands a
// whole connection to each transaction for its lifetime (the database/sql
// model) and multiplexes only session-independent requests (PING, STATS)
// across whatever connection is free. Within a connection, requests carry
// client-chosen sequence numbers and responses echo them, so concurrent
// callers can share a connection without a lock across the round trip: a
// writer registers its sequence, writes the frame, and parks on its own
// channel while a single reader goroutine dispatches responses by sequence.
//
// Failure semantics on the wire: a typed MsgError response becomes a
// *wire.RemoteError matching the wire sentinels (errors.Is(err,
// wire.ErrDeadlock) etc.). A transport error mid-transaction is NOT
// retried by RunWithRetry when the commit was already in flight — the
// client cannot know whether it committed (commit-in-doubt); it surfaces
// ErrCommitInDoubt instead and the caller reconciles by reading.
package client

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Client-side transport errors.
var (
	// ErrClientClosed is returned once Close has been called.
	ErrClientClosed = errors.New("client: closed")
	// ErrConnDead is the transport failure for requests that never got a
	// response because the connection died; the request definitely did not
	// execute or its effects were aborted with the session — EXCEPT for
	// COMMIT, which gets ErrCommitInDoubt instead.
	ErrConnDead = errors.New("client: connection lost")
	// ErrCommitInDoubt means the connection died after a COMMIT was sent and
	// before its response arrived. The server may or may not have committed
	// (if it did, the commit is durable; if it did not, the session abort
	// rolled everything back). The caller must reconcile by reading.
	ErrCommitInDoubt = errors.New("client: commit in doubt (connection lost awaiting COMMIT response)")
	// errNotSent marks transport failures where the request frame provably
	// never left this process (the connection was already dead, or the dial
	// failed). It keeps Commit precise: a COMMIT that was never sent cannot
	// be in doubt, no matter how the connection died.
	errNotSent = errors.New("request not sent")
)

// Options configure Dial.
type Options struct {
	// PoolSize caps pooled idle connections (default 8). More than PoolSize
	// concurrent transactions still work: extra connections are dialed on
	// demand and closed on release instead of pooled.
	PoolSize int
	// DialTimeout bounds each TCP dial (default 5s).
	DialTimeout time.Duration
	// Trace stamps every transaction frame with a distributed trace id (the
	// wire extTrace extension): one id per logical transaction, stable
	// across RunWithRetry attempts, so the server's /trace?trace= surface
	// can join client attempts to engine spans. Opt-in because stamped
	// frames are not decodable by pre-extension servers.
	Trace bool
	// Obs hooks the client pool's own metrics (client.conns_open,
	// client.conns_inuse, client.roundtrips, client.retries.<cause>,
	// client.commit_in_doubt) into a local registry — nil disables at zero
	// cost (every handle is nil-receiver safe).
	Obs *obs.Registry
	// Fallbacks lists additional cluster addresses. When a request is
	// refused with CodeNotLeader, RunWithRetry re-targets the pool at the
	// leader address carried in the refusal — or, lacking a hint, rotates
	// through primary+Fallbacks until one answers as leader.
	Fallbacks []string
	// Seed seeds this pool's backoff-jitter source; 0 derives one from
	// crypto/rand. Each pool owns its source (no cross-pool lock), so two
	// pools with distinct seeds cannot produce lockstep retry storms.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 8
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Client is a pooled connection to one oodbd server (re-targetable to its
// peers on leader change). Safe for concurrent use.
type Client struct {
	opts Options

	mu     sync.Mutex
	addr   string   // current target; moves on redirect
	addrs  []string // primary + Fallbacks, rotation order
	free   []*conn
	closed bool

	jmu  sync.Mutex
	jrnd *rand.Rand // pool-local jitter source (see Options.Seed)

	connsOpen     *obs.Gauge   // client.conns_open: live TCP connections
	connsInUse    *obs.Gauge   // client.conns_inuse: checked out of the pool
	roundTrips    *obs.Counter // client.roundtrips: frames sent and answered
	commitInDoubt *obs.Counter // client.commit_in_doubt
	redirects     *obs.Counter // client.redirects: leader-change re-targets
}

// Dial connects to an oodbd server and verifies liveness with a PING.
// With Options.Fallbacks, addresses are tried in order until one answers.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	reg := opts.Obs
	seed := opts.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			seed = int64(binary.LittleEndian.Uint64(b[:]) >> 1)
		}
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
	}
	c := &Client{
		addr:          addr,
		addrs:         append([]string{addr}, opts.Fallbacks...),
		opts:          opts,
		jrnd:          rand.New(rand.NewSource(seed)),
		connsOpen:     reg.Gauge("client.conns_open"),
		connsInUse:    reg.Gauge("client.conns_inuse"),
		roundTrips:    reg.Counter("client.roundtrips"),
		commitInDoubt: reg.Counter("client.commit_in_doubt"),
		redirects:     reg.Counter("client.redirects"),
	}
	var err error
	for range c.addrs {
		if err = c.Ping(); err == nil {
			return c, nil
		}
		c.rotate()
	}
	return nil, fmt.Errorf("client: dial %s: %w", addr, err)
}

// target returns the pool's current server address.
func (c *Client) target() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// redirect re-targets the pool at addr (a leader hint) and discards idle
// connections to the old target; checked-out connections finish their
// transaction and are culled on release by their stale addr.
func (c *Client) redirect(addr string) {
	c.mu.Lock()
	if c.closed || addr == "" || addr == c.addr {
		c.mu.Unlock()
		return
	}
	c.addr = addr
	free := c.free
	c.free = nil
	c.mu.Unlock()
	c.redirects.Inc()
	for _, nc := range free {
		nc.close(ErrConnDead)
	}
}

// rotate advances to the next known address — the blind fallback when a
// refusal carries no leader hint (an election still in progress).
func (c *Client) rotate() {
	c.mu.Lock()
	next := ""
	for i, a := range c.addrs {
		if a == c.addr {
			next = c.addrs[(i+1)%len(c.addrs)]
			break
		}
	}
	if next == "" && len(c.addrs) > 0 {
		// Current target was a leader hint outside the configured set;
		// restart the rotation from the top.
		next = c.addrs[0]
	}
	c.mu.Unlock()
	c.redirect(next)
}

// retryCounter classifies a retried attempt's failure into its
// client.retries.<cause> counter (no-op without Options.Obs).
func (c *Client) retryCounter(err error) *obs.Counter {
	cause := "other"
	switch {
	case errors.Is(err, wire.ErrDeadlock):
		cause = "deadlock"
	case errors.Is(err, wire.ErrLockTimeout):
		cause = "lock-timeout"
	case errors.Is(err, wire.ErrOverloaded):
		cause = "overloaded"
	case errors.Is(err, wire.ErrNotLeader):
		cause = "not-leader"
	case errors.Is(err, ErrConnDead):
		cause = "conn-dead"
	}
	return c.opts.Obs.Counter("client.retries." + cause)
}

// Close releases every pooled connection. Transactions still holding
// connections keep them until they finish; those connections are closed on
// release.
func (c *Client) Close() error {
	c.mu.Lock()
	free := c.free
	c.free = nil
	c.closed = true
	c.mu.Unlock()
	for _, nc := range free {
		nc.close(ErrClientClosed)
	}
	return nil
}

// get hands out a live pooled connection or dials a fresh one.
func (c *Client) get() (*conn, error) {
	c.mu.Lock()
	addr := c.addr
	for len(c.free) > 0 {
		nc := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		if nc.alive() {
			c.mu.Unlock()
			c.connsInUse.Add(1)
			return nc, nil
		}
		nc.close(ErrConnDead)
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.mu.Unlock()
	nc, err := dialConn(addr, c.opts.DialTimeout, c.connsOpen, c.roundTrips)
	if err != nil {
		return nil, err
	}
	c.connsInUse.Add(1)
	return nc, nil
}

// put returns a connection to the pool (or closes it if dead/full/closed,
// or if the pool has been redirected away from the conn's server since).
func (c *Client) put(nc *conn) {
	c.connsInUse.Add(-1)
	if !nc.alive() {
		nc.close(ErrConnDead)
		return
	}
	c.mu.Lock()
	if c.closed || len(c.free) >= c.opts.PoolSize || nc.addr != c.addr {
		c.mu.Unlock()
		nc.close(ErrClientClosed)
		return
	}
	c.free = append(c.free, nc)
	c.mu.Unlock()
}

// roundTrip runs one session-independent request on any free connection.
func (c *Client) roundTrip(m wire.Msg) (string, error) {
	nc, err := c.get()
	if err != nil {
		return "", err
	}
	res, err := nc.call(m)
	c.put(nc)
	return res, err
}

// Ping round-trips a PING frame.
func (c *Client) Ping() error {
	const nonce = "ping"
	res, err := c.roundTrip(wire.Msg{Type: wire.MsgPing, Result: nonce})
	if err != nil {
		return err
	}
	if res != nonce {
		return fmt.Errorf("client: ping echoed %q", res)
	}
	return nil
}

// Stats returns the server's STATS snapshot (JSON; see server.StatsReply
// for the shape — the client deliberately does not import the engine).
func (c *Client) Stats() (string, error) {
	return c.roundTrip(wire.Msg{Type: wire.MsgStats})
}

// Tx is one open server-side transaction, pinned to one connection. Not
// safe for concurrent use (sessions execute serially anyway).
type Tx struct {
	c       *Client
	nc      *conn
	id      string
	done    bool
	trace   string // distributed trace id stamped on every frame ("" = off)
	attempt uint32
}

// newTraceID mints a 16-hex-char distributed trace id.
func (c *Client) newTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// jitter-source id rather than a panic in a tracing helper.
		return fmt.Sprintf("%016x", uint64(c.jitter(1<<62)))
	}
	return hex.EncodeToString(b[:])
}

// Begin opens a transaction. The returned Tx owns a pooled connection
// until Commit or Abort; abandoning a Tx leaks its connection until the
// server's idle reaper cuts the session (which aborts the transaction).
// With Options.Trace the transaction gets a fresh trace id (attempt 1);
// retry loops that want a stable id across attempts use BeginTraced.
func (c *Client) Begin() (*Tx, error) {
	if c.opts.Trace {
		return c.BeginTraced(c.newTraceID(), 1)
	}
	return c.beginTx("", 0)
}

// BeginTraced opens a transaction stamped with an explicit trace id and
// attempt counter — RunWithRetry's per-attempt entry point, also usable
// directly to propagate an id minted elsewhere. Requires a server that
// understands the trace extension (see Options.Trace).
func (c *Client) BeginTraced(traceID string, attempt uint32) (*Tx, error) {
	return c.beginTx(traceID, attempt)
}

func (c *Client) beginTx(traceID string, attempt uint32) (*Tx, error) {
	nc, err := c.get()
	if err != nil {
		return nil, err
	}
	id, err := nc.call(wire.Msg{Type: wire.MsgBegin, TraceID: traceID, TraceAttempt: attempt})
	if err != nil {
		c.put(nc)
		return nil, err
	}
	return &Tx{c: c, nc: nc, id: id, trace: traceID, attempt: attempt}, nil
}

// ID returns the server-assigned transaction id.
func (t *Tx) ID() string { return t.id }

// TraceID returns the distributed trace id stamped on this transaction's
// frames ("" when tracing is off).
func (t *Tx) TraceID() string { return t.trace }

// stamp adds the transaction's trace context to an outbound frame.
func (t *Tx) stamp(m wire.Msg) wire.Msg {
	m.TraceID, m.TraceAttempt = t.trace, t.attempt
	return m
}

// Invoke calls method on the object (objType, objName) inside the
// transaction and returns the method result.
func (t *Tx) Invoke(objType, objName, method string, params ...string) (string, error) {
	if t.done {
		return "", wire.ErrTxnFinished
	}
	return t.nc.call(t.stamp(wire.Msg{Type: wire.MsgInvoke, ObjType: objType, ObjName: objName,
		Method: method, Params: params}))
}

// PageRead reads a raw page inside the transaction.
func (t *Tx) PageRead(page uint64) (string, error) {
	if t.done {
		return "", wire.ErrTxnFinished
	}
	return t.nc.call(t.stamp(wire.Msg{Type: wire.MsgPageRead, Page: page}))
}

// PageWrite writes a raw page inside the transaction.
func (t *Tx) PageWrite(page uint64, data string) error {
	if t.done {
		return wire.ErrTxnFinished
	}
	_, err := t.nc.call(t.stamp(wire.Msg{Type: wire.MsgPageWrite, Page: page, Params: []string{data}}))
	return err
}

// finish releases the Tx's connection back to the pool.
func (t *Tx) finish() {
	t.done = true
	t.c.put(t.nc)
}

// Commit commits the transaction. A transport failure here is
// ErrCommitInDoubt: the COMMIT may have executed durably even though its
// response never arrived — unless the frame provably never left the
// process (the connection was already dead before the write), in which
// case the plain transport error comes back and the caller may retry.
func (t *Tx) Commit() error {
	if t.done {
		return wire.ErrTxnFinished
	}
	_, err := t.nc.call(t.stamp(wire.Msg{Type: wire.MsgCommit}))
	t.finish()
	if err != nil && errors.Is(err, ErrConnDead) && !errors.Is(err, errNotSent) {
		t.c.commitInDoubt.Inc()
		return fmt.Errorf("%w (txn %s)", ErrCommitInDoubt, t.id)
	}
	return err
}

// Abort rolls the transaction back. A transport failure is fine: the
// session abort on the server reaches the same state.
func (t *Tx) Abort() error {
	if t.done {
		return wire.ErrTxnFinished
	}
	_, err := t.nc.call(t.stamp(wire.Msg{Type: wire.MsgAbort}))
	t.finish()
	if err != nil && errors.Is(err, ErrConnDead) {
		return nil // disconnect == abort server-side
	}
	return err
}

// RetryPolicy configures RunWithRetry; the zero value gets the same
// defaults as core.RetryPolicy.
type RetryPolicy struct {
	// MaxAttempts bounds body executions (default 50).
	MaxAttempts int
	// BaseBackoff doubles per attempt up to MaxBackoff, jittered over the
	// upper half (defaults 200µs / 10ms, mirroring the in-process loop).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryOverload opts overload refusals into the retry loop. The server's
	// admission controller already queued the request for the full admission
	// timeout before refusing, so overload retries are deliberately opt-in
	// and use MaxBackoff flat instead of the exponential ramp.
	RetryOverload bool
	// OnRetry fires after every failed attempt, before the backoff sleep.
	OnRetry func(attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 50
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 200 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 10 * time.Millisecond
	}
	return p
}

// backoffFor mirrors core.RetryPolicy.backoffFor: exponential, capped,
// jittered to [d/2, d) from the pool's own source.
func (p RetryPolicy) backoffFor(attempt int, jitter func(int64) int64) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(jitter(int64(half)))
}

// jitter draws from the pool-local source seeded in Dial — formerly a
// package-global locked source, which made every pool in the process share
// one stream (lock contention, and identical backoff sequences under a
// fixed seed).
func (c *Client) jitter(n int64) int64 {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.jrnd.Int63n(n)
}

// RunWithRetry executes body inside a fresh remote transaction, committing
// on success and retrying the typed transient failures (deadlock victims,
// lock timeouts — wire.Retryable; overload refusals only with
// RetryOverload) with jittered exponential backoff. Terminal errors —
// degraded engine, closed engine, commit-in-doubt — stop the loop
// immediately, exactly like core.RunWithRetry's terminal set.
//
// A CodeNotLeader refusal (this server is a replica) is also retried:
// the pool re-targets at the leader address carried in the refusal, or
// rotates through Options.Fallbacks when the refusal has no hint (an
// election in progress). Transport loss retries too — outside COMMIT the
// server-side session abort rolled the attempt back, and a COMMIT whose
// frame was never sent provably did not execute — which is exactly the
// leader-crash case: the connection dies, the next attempt lands on a
// replica, the replica's refusal names the new leader. Only a COMMIT that
// was in flight when the connection died is terminal (ErrCommitInDoubt).
//
// With Options.Trace one trace id is minted per call and stamped on every
// attempt with its attempt counter, so the whole retry history of the
// logical transaction shares one id server-side (body can read it via
// Tx.TraceID).
func (c *Client) RunWithRetry(p RetryPolicy, body func(t *Tx) error) error {
	p = p.withDefaults()
	traceID := ""
	if c.opts.Trace {
		traceID = c.newTraceID()
	}
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(p.backoffFor(attempt-1, c.jitter))
		}
		tx, err := c.beginTx(traceID, uint32(attempt))
		if err == nil {
			err = body(tx)
			if err == nil {
				cerr := tx.Commit()
				if cerr == nil {
					return nil
				}
				// A typed not-leader refusal of the COMMIT means the server
				// rejected it without reaching quorum and aborted, and a
				// transport loss before the frame was even sent means the
				// server never saw it: either way the transaction is rolled
				// back everywhere and the retry below is exactly-once safe.
				// Everything else — in-doubt, durability, degraded refusals —
				// is terminal; no blind re-run can fix those.
				if !errors.Is(cerr, wire.ErrNotLeader) && !errors.Is(cerr, errNotSent) {
					return cerr
				}
				err = cerr
			} else {
				_ = tx.Abort()
			}
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		notLeader := errors.Is(err, wire.ErrNotLeader)
		// Transport loss outside COMMIT is safe to retry: the protocol binds
		// the transaction to the session, so the server-side abort on
		// disconnect already rolled it back.
		retryable := notLeader || wire.Retryable(err) ||
			errors.Is(err, ErrConnDead) ||
			(p.RetryOverload && errors.Is(err, wire.ErrOverloaded))
		if !retryable {
			return err
		}
		c.retryCounter(err).Inc()
		if notLeader {
			if hint := wire.LeaderHint(err); hint != "" {
				c.redirect(hint)
			} else {
				c.rotate()
			}
		} else if errors.Is(err, ErrConnDead) {
			// The target died under us; move the pool along before redialing.
			c.rotate()
		}
		if errors.Is(err, wire.ErrOverloaded) {
			// Flat, maximal backoff for overload: the admission queue already
			// absorbed the exponential ramp server-side.
			time.Sleep(p.MaxBackoff)
		}
		lastErr = err
	}
	return fmt.Errorf("client: transaction gave up after %d attempts: %w", p.MaxAttempts, lastErr)
}

// conn is one TCP connection: a write path guarded by seq registration and
// a single reader goroutine dispatching responses by echoed seq.
type conn struct {
	c    net.Conn
	addr string // server this conn was dialed to (stale-target culling)

	writeMu sync.Mutex // serializes frame writes
	wbuf    []byte     // the request encode buffer; guarded by writeMu

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan wire.Msg
	dead    error // non-nil once the reader exits; guarded by mu

	open  *obs.Gauge   // client.conns_open; decremented once on death
	trips *obs.Counter // client.roundtrips
}

func dialConn(addr string, timeout time.Duration, open *obs.Gauge, trips *obs.Counter) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w (%w): %v", ErrConnDead, errNotSent, err)
	}
	nc := &conn{c: c, addr: addr, pending: make(map[uint64]chan wire.Msg), open: open, trips: trips}
	open.Add(1)
	go nc.readLoop()
	return nc, nil
}

func (nc *conn) alive() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.dead == nil
}

// close tears the connection down and fails every pending call with cause.
func (nc *conn) close(cause error) {
	nc.c.Close()
	nc.fail(cause)
}

// fail marks the connection dead (first cause wins) and wakes every
// pending caller by closing its channel.
func (nc *conn) fail(cause error) {
	nc.mu.Lock()
	first := nc.dead == nil
	if first {
		nc.dead = cause
	}
	pending := nc.pending
	nc.pending = make(map[uint64]chan wire.Msg)
	nc.mu.Unlock()
	if first {
		nc.open.Add(-1)
	}
	for _, ch := range pending {
		close(ch)
	}
}

func (nc *conn) readLoop() {
	br := bufio.NewReader(nc.c)
	var rbuf []byte // the reply read buffer, reused from frame to frame
	for {
		m, _, err := wire.ReadMsgBuf(br, &rbuf, nil, nil)
		if err != nil {
			nc.close(fmt.Errorf("%w: %v", ErrConnDead, err))
			return
		}
		nc.mu.Lock()
		ch := nc.pending[m.Seq]
		delete(nc.pending, m.Seq)
		nc.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// replyChans recycles reply channels across calls. A channel goes back
// only after it delivered its reply: readLoop deleted it from pending
// before sending, so nothing else holds it, and it is empty again. A
// channel fail closed is never put back.
var replyChans = sync.Pool{New: func() any { return make(chan wire.Msg, 1) }}

// call performs one request/response round trip. Typed server errors come
// back as *wire.RemoteError; transport loss as ErrConnDead.
func (nc *conn) call(m wire.Msg) (string, error) {
	ch := replyChans.Get().(chan wire.Msg)
	nc.mu.Lock()
	if nc.dead != nil {
		err := nc.dead
		nc.mu.Unlock()
		replyChans.Put(ch)
		return "", fmt.Errorf("%w (%w)", err, errNotSent)
	}
	nc.seq++
	m.Seq = nc.seq
	nc.pending[m.Seq] = ch
	nc.mu.Unlock()

	nc.writeMu.Lock()
	err := wire.WriteMsgBuf(nc.c, &nc.wbuf, m)
	nc.writeMu.Unlock()
	if err != nil {
		nc.close(fmt.Errorf("%w: %v", ErrConnDead, err))
		return "", ErrConnDead
	}
	resp, ok := <-ch
	if !ok {
		nc.mu.Lock()
		err := nc.dead
		nc.mu.Unlock()
		return "", err
	}
	replyChans.Put(ch)
	nc.trips.Inc()
	if resp.Type == wire.MsgError {
		return "", wire.RemoteErr(resp.Code, resp.Result)
	}
	return resp.Result, nil
}
