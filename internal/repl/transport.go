package repl

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

const (
	dialTimeout = time.Second
	callTimeout = time.Second
)

// transport carries replication RPCs between nodes on a dedicated TCP
// listener (separate from the client protocol port), reusing the wire
// frame codec. Calls are synchronous request/response with one cached
// connection per peer; any error tears the connection down and the next
// call redials — replication RPCs are idempotent, so the retry lives in
// the peer loop, not here.
type transport struct {
	n    *Node
	ln   net.Listener
	addr string

	mu      sync.Mutex
	conns   map[string]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool
}

// peerConn is one cached outbound connection. Its mutex serializes the
// write/read exchange; peer loops never issue concurrent calls to the
// same peer, but vote fan-out can race a heartbeat.
type peerConn struct {
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader // reads c
	buf  []byte        // the request encode buffer
	rbuf []byte        // the reply read buffer
	seq  uint64
	dead bool
}

func newTransport(n *Node, addr string) (*transport, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen %s: %w", addr, err)
	}
	tr := &transport{n: n, ln: ln, addr: ln.Addr().String(),
		conns: make(map[string]*peerConn), inbound: make(map[net.Conn]struct{})}
	n.wg.Add(1)
	go tr.acceptLoop()
	return tr, nil
}

func (tr *transport) acceptLoop() {
	defer tr.n.wg.Done()
	for {
		c, err := tr.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tr.mu.Lock()
		if tr.closed {
			tr.mu.Unlock()
			c.Close()
			return
		}
		tr.inbound[c] = struct{}{}
		tr.mu.Unlock()
		tr.n.wg.Add(1)
		go tr.handleConn(c)
	}
}

// handleConn serves inbound RPCs: read a request, dispatch, echo its Seq
// on the reply. An isolated node drops the connection without answering —
// from the peer's side that is indistinguishable from a network partition.
func (tr *transport) handleConn(c net.Conn) {
	defer tr.n.wg.Done()
	defer func() {
		c.Close()
		tr.mu.Lock()
		delete(tr.inbound, c)
		tr.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	var buf, rbuf []byte // the reply encode and request read buffers
	// params is the request params' array, reused once a request has been
	// handled: what handleRPC keeps of an entry is the string, a view of
	// the message, never this array. Each request's replication block is
	// decoded into req, and each reply built in reply: handleRPC keeps
	// neither, only req's sender strings, which are clones.
	var params []string
	req, reply := new(wire.ReplExt), new(wire.ReplExt)
	for {
		_ = c.SetReadDeadline(time.Time{})
		m, _, err := wire.ReadMsgBuf(br, &rbuf, params, req)
		if err != nil {
			return
		}
		if tr.n.isolated.Load() {
			return
		}
		resp := tr.n.handleRPC(m, reply)
		if m.Params != nil {
			clear(m.Params) // a handled request's entries must not pin its frame
			params = m.Params[:0]
		}
		resp.Seq = m.Seq
		_ = c.SetWriteDeadline(time.Now().Add(callTimeout))
		if err := wire.WriteMsgBuf(c, &buf, resp); err != nil {
			return
		}
	}
}

// call sends one RPC to p and waits for its reply, whose replication
// block is decoded into re (wire.ReadMsgBuf; nil allocates one). A caller
// that passes re keeps it from call to call and reads the reply before
// its next call.
func (tr *transport) call(p Peer, m wire.Msg, re *wire.ReplExt) (wire.Msg, error) {
	if tr.n.isolated.Load() {
		return wire.Msg{}, errIsolated
	}
	if err := fpReplSend.Inject(); err != nil {
		return wire.Msg{}, err
	}
	pc, err := tr.peer(p)
	if err != nil {
		return wire.Msg{}, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c == nil {
		c, err := net.DialTimeout("tcp", p.Addr, dialTimeout)
		if err != nil {
			tr.drop(p.ID, pc)
			return wire.Msg{}, err
		}
		pc.c, pc.br = c, bufio.NewReader(c)
	}
	pc.seq++
	m.Seq = pc.seq
	deadline := time.Now().Add(callTimeout)
	_ = pc.c.SetDeadline(deadline)
	if err := wire.WriteMsgBuf(pc.c, &pc.buf, m); err != nil {
		tr.drop(p.ID, pc)
		return wire.Msg{}, err
	}
	resp, _, err := wire.ReadMsgBuf(pc.br, &pc.rbuf, nil, re)
	if err != nil {
		tr.drop(p.ID, pc)
		return wire.Msg{}, err
	}
	if resp.Seq != m.Seq {
		tr.drop(p.ID, pc)
		return wire.Msg{}, fmt.Errorf("repl: response seq %d for request %d", resp.Seq, m.Seq)
	}
	return resp, nil
}

// peer returns (creating if needed) the cached connection slot for id.
func (tr *transport) peer(p Peer) (*peerConn, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return nil, fmt.Errorf("repl: transport closed")
	}
	pc := tr.conns[p.ID]
	if pc == nil {
		pc = &peerConn{}
		tr.conns[p.ID] = pc
	}
	return pc, nil
}

// drop closes pc's socket and forgets the slot (caller holds pc.mu).
func (tr *transport) drop(id string, pc *peerConn) {
	if pc.c != nil {
		_ = pc.c.Close()
		pc.c = nil
	}
	pc.dead = true
	tr.mu.Lock()
	if tr.conns[id] == pc {
		delete(tr.conns, id)
	}
	tr.mu.Unlock()
}

// close shuts the listener and every cached connection. Inbound handler
// goroutines exit on their next read; tr.n.wg joins them.
func (tr *transport) close() {
	tr.mu.Lock()
	tr.closed = true
	conns := tr.conns
	tr.conns = make(map[string]*peerConn)
	for c := range tr.inbound {
		_ = c.Close() // unblocks the handler's pending read
	}
	tr.mu.Unlock()
	_ = tr.ln.Close()
	for _, pc := range conns {
		pc.mu.Lock()
		if pc.c != nil {
			_ = pc.c.Close()
			pc.c = nil
		}
		pc.mu.Unlock()
	}
}
