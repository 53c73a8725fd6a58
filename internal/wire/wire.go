// Package wire is the oodbd network protocol: the frame codec shared by
// the server (internal/server) and the Go client (internal/client), plus
// the typed error taxonomy responses carry so clients can make retry
// decisions without parsing strings.
//
// Each message is one frame (internal/frame: length, crc32c, payload, and
// the torn/corrupt rule), bounded to [msgPayloadMin, MaxFrameSize], whose
// payload is:
//
//	Seq u64 | Type u8 | Code u8 | Page u64 |
//	ObjType, ObjName, Method, Result as uvarint-length-prefixed strings |
//	uvarint param count | params as uvarint-length-prefixed strings |
//	extension blocks (optional)
//
// # Wire versioning: extension blocks
//
// Everything after the param list is a sequence of extension blocks, each
// `tag uvarint | len uvarint | body (len bytes)`. This is how the protocol
// grows without a version handshake:
//
//   - A frame with no extensions is byte-identical to a pre-extension
//     (PR 7) frame, so an upgraded client that does not stamp extensions
//     interoperates with an old server.
//   - A decoder that does not know a tag skips its body: unknown or absent
//     extensions are never an error, they just carry no meaning here.
//
// The one defined extension is extTrace (tag 1): distributed trace context
// `attempt uvarint | trace-id bytes`, stamped by the client per logical
// transaction (the id is stable across retry attempts; the attempt counter
// distinguishes them) and echoed into the server session's KSession span —
// the cross-process joint the /trace surfaces merge on. Trace stamping is
// opt-in per client precisely because a stamped frame is NOT decodable by
// a pre-extension server: enable it only against upgraded servers.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/frame"
)

// MsgType discriminates requests and responses.
type MsgType uint8

// Request types. One TCP connection is one session: at most one open
// transaction at a time, operated by BEGIN .. (INVOKE | PAGE_READ |
// PAGE_WRITE)* .. (COMMIT | ABORT). PING and STATS are session-independent.
const (
	MsgBegin     MsgType = 1 // -> MsgResult carrying the transaction id
	MsgInvoke    MsgType = 2 // ObjType/ObjName/Method/Params -> MsgResult
	MsgPageRead  MsgType = 3 // Page -> MsgResult carrying the page data
	MsgPageWrite MsgType = 4 // Page + Params[0]=data -> MsgResult
	MsgCommit    MsgType = 5 // -> MsgResult
	MsgAbort     MsgType = 6 // -> MsgResult
	MsgPing      MsgType = 7 // -> MsgResult echoing Result
	MsgStats     MsgType = 8 // -> MsgResult carrying a JSON stats snapshot
)

// Replication message types. internal/repl speaks the same frame codec on
// its own listener; these never appear on a client session (Request() is
// false for all of them). State rides the extRepl extension block; log
// entries ride Params as encoded WAL record frames
// (storage.EncodeRecordFrame), so replicas persist byte-identical frames.
const (
	MsgReplVote     MsgType = 0x20 // RequestVote -> MsgReplAck
	MsgReplAppend   MsgType = 0x21 // AppendEntries/heartbeat -> MsgReplAck
	MsgReplSnapshot MsgType = 0x22 // InstallSnapshot (Params[0]=checkpoint file) -> MsgReplAck
	MsgReplAck      MsgType = 0x23 // reply; Flags bit0 = granted/success
)

// Response types.
const (
	MsgResult MsgType = 0x40 // success; Result carries the value
	MsgError  MsgType = 0x41 // failure; Code + Result (detail) carry the taxonomy
)

func (t MsgType) String() string {
	switch t {
	case MsgBegin:
		return "BEGIN"
	case MsgInvoke:
		return "INVOKE"
	case MsgPageRead:
		return "PAGE_READ"
	case MsgPageWrite:
		return "PAGE_WRITE"
	case MsgCommit:
		return "COMMIT"
	case MsgAbort:
		return "ABORT"
	case MsgPing:
		return "PING"
	case MsgStats:
		return "STATS"
	case MsgReplVote:
		return "REPL_VOTE"
	case MsgReplAppend:
		return "REPL_APPEND"
	case MsgReplSnapshot:
		return "REPL_SNAPSHOT"
	case MsgReplAck:
		return "REPL_ACK"
	case MsgResult:
		return "RESULT"
	case MsgError:
		return "ERROR"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Request reports whether t is a request type the server handles.
func (t MsgType) Request() bool { return t >= MsgBegin && t <= MsgStats }

// Msg is one protocol message, request or response (unused fields stay
// zero, like storage.Record).
type Msg struct {
	// Seq is the client-chosen correlation id; the server echoes it on the
	// response, which is what lets a pooled connection multiplex concurrent
	// requests.
	Seq  uint64
	Type MsgType
	// Code carries the typed error taxonomy on MsgError responses.
	Code ErrCode
	// Page addresses MsgPageRead/MsgPageWrite.
	Page uint64
	// ObjType/ObjName/Method address a MsgInvoke dispatch.
	ObjType string
	ObjName string
	Method  string
	// Params are the invocation parameters (PAGE_WRITE uses Params[0]).
	Params []string
	// Result is the response value: a txn id for BEGIN, a method result for
	// INVOKE, page data for PAGE_READ, JSON for STATS — or the error detail
	// on MsgError.
	Result string
	// TraceID is the client-stamped distributed trace id of the logical
	// transaction this frame belongs to — stable across retry attempts of
	// one client.RunWithRetry loop. Empty means unstamped; the pair rides
	// the optional extTrace extension block, so an unstamped frame stays
	// byte-identical to a pre-extension frame.
	TraceID string
	// TraceAttempt is the 1-based retry attempt the frame belongs to.
	TraceAttempt uint32
	// Repl is the replication state block on MsgRepl* messages (nil
	// otherwise). It rides the extRepl extension, so stamping it never
	// changes the encoding of ordinary session frames.
	Repl *ReplExt
}

// Traced reports whether the message carries trace context.
func (m Msg) Traced() bool { return m.TraceID != "" || m.TraceAttempt != 0 }

// ReplExt is the consensus state attached to replication messages. Field
// meaning depends on the message type (Raft's RPC arguments flattened into
// one block):
//
//   - MsgReplVote: Term/From the candidate, PrevLSN/PrevTerm its last log
//     entry (the election restriction compares these).
//   - MsgReplAppend: PrevLSN/PrevTerm the entry preceding the batch,
//     EntryTerm the term of every entry in the batch (batches never span a
//     term boundary), Commit the leader's commit index, Addr the leader's
//     advertised client address (the redirect hint followers hand out).
//   - MsgReplSnapshot: PrevLSN/PrevTerm the snapshot's last included
//     LSN/term.
//   - MsgReplAck: Flags bit0 = granted/success, Match the follower's last
//     durable LSN on success, Hint the nextIndex the leader should retry
//     from on log-mismatch rejection.
type ReplExt struct {
	Term      uint64
	PrevLSN   uint64
	PrevTerm  uint64
	EntryTerm uint64
	Commit    uint64
	Match     uint64
	Hint      uint64
	Flags     uint64
	From      string // sender node id
	Addr      string // leader's advertised client address ("" when unknown)
}

// ReplFlagOK is the granted/success bit on MsgReplAck.
const ReplFlagOK = 1 << 0

// OK reports whether the ack's success bit is set.
func (re *ReplExt) OK() bool { return re != nil && re.Flags&ReplFlagOK != 0 }

const (
	// MaxFrameSize bounds a single message's payload; anything larger in a
	// length prefix means a desynced or corrupt stream.
	MaxFrameSize = 16 << 20
	// msgPayloadMin is the smallest possible payload: the fixed fields plus
	// four empty strings and an empty param list.
	msgPayloadMin = 8 + 1 + 1 + 8 + 4 + 1
	// extTrace is the trace-context extension tag: body is
	// `attempt uvarint | trace-id bytes`. Tag 0 is reserved invalid so a
	// zero-filled tail can never parse as an extension.
	extTrace = 1
	// extRepl is the replication-state extension tag: body is the eight
	// ReplExt counters as uvarints followed by From and Addr as
	// uvarint-length-prefixed strings.
	extRepl = 2
)

// Frame decode errors are internal/frame's: torn means the stream ended
// mid-frame (a peer died or an idle reap cut the connection); corrupt means
// the bytes are there but are not a message (checksum mismatch, impossible
// length, a payload that does not decode).
var (
	ErrFrameTorn    = frame.ErrTorn
	ErrFrameCorrupt = frame.ErrCorrupt
)

// AppendMsg encodes m as one framed message appended to dst.
func AppendMsg(dst []byte, m Msg) []byte {
	n := frame.HeaderSize + msgPayloadMin + len(m.ObjType) + len(m.ObjName) + len(m.Method) + len(m.Result)
	for _, p := range m.Params {
		n += len(p) + 2
	}
	if m.Traced() {
		n += len(m.TraceID) + 12
	}
	if m.Repl != nil {
		n += 96 + len(m.Repl.From) + len(m.Repl.Addr)
	}
	dst = slices.Grow(dst, n)
	dst, start := frame.Begin(dst)
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(m.Type), byte(m.Code))
	dst = binary.LittleEndian.AppendUint64(dst, m.Page)
	for _, s := range [...]string{m.ObjType, m.ObjName, m.Method, m.Result} {
		dst = frame.AppendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Params)))
	for _, p := range m.Params {
		dst = frame.AppendString(dst, p)
	}
	if m.Traced() {
		dst = binary.AppendUvarint(dst, extTrace)
		dst = binary.AppendUvarint(dst, uint64(uvarintLen(uint64(m.TraceAttempt))+len(m.TraceID)))
		dst = binary.AppendUvarint(dst, uint64(m.TraceAttempt))
		dst = append(dst, m.TraceID...)
	}
	if re := m.Repl; re != nil {
		counters := [...]uint64{re.Term, re.PrevLSN, re.PrevTerm, re.EntryTerm, re.Commit, re.Match, re.Hint, re.Flags}
		body := uvarintLen(uint64(len(re.From))) + len(re.From) + uvarintLen(uint64(len(re.Addr))) + len(re.Addr)
		for _, v := range counters {
			body += uvarintLen(v)
		}
		dst = binary.AppendUvarint(dst, extRepl)
		dst = binary.AppendUvarint(dst, uint64(body))
		for _, v := range counters {
			dst = binary.AppendUvarint(dst, v)
		}
		dst = frame.AppendString(dst, re.From)
		dst = frame.AppendString(dst, re.Addr)
	}
	return frame.End(dst, start)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// WriteMsgBuf writes one framed message, encoding it into *buf, whose
// array a connection reuses from frame to frame. A buffer grown past 64 KiB is dropped after
// the write, so an idle connection does not pin its largest message.
func WriteMsgBuf(w io.Writer, buf *[]byte, m Msg) error {
	*buf = AppendMsg((*buf)[:0], m)
	_, err := w.Write(*buf)
	if cap(*buf) > 64<<10 {
		*buf = nil
	}
	return err
}

// ReadMsg reads exactly one framed message from r. A stream that ends
// cleanly between frames returns io.EOF; one that ends inside a frame
// returns ErrFrameTorn; a frame whose bytes fail validation returns
// ErrFrameCorrupt.
func ReadMsg(r io.Reader) (Msg, error) {
	var buf []byte
	m, _, err := ReadMsgBuf(r, &buf, nil, nil)
	return m, err
}

// ReadMsgBuf is ReadMsg reading into *buf, the array a connection reuses
// from frame to frame (frame.ReadInto, which drops it past 64 KiB), and
// decoding the params into params' array when it has room for them. It
// also returns the frame's size on the wire, header included, which the
// server's per-message size histograms want. The
// message's strings are views of one string copied from the payload, so
// it outlives the buffer's next frame: a received message costs one
// allocation, or none when all its strings are empty (BEGIN, COMMIT, an
// empty reply), plus a Params slice that params could not hold. Any one
// of its strings keeps the whole message alive; see the retention table
// in internal/frame. A caller that passes params reuses that array only
// once it is done with the message.
//
// A replication block is decoded into re, which the caller owns and
// passes from message to message, and m.Repl points at it; a nil re
// allocates one per message. Its From and Addr are never views: each is
// kept while the next message carries the same bytes and cloned when they
// change, so an ack or a heartbeat costs nothing, and a kept sender id
// pins no message. A message without the block leaves re as it was and
// m.Repl nil; so does a block that fails to decode.
func ReadMsgBuf(r io.Reader, buf *[]byte, params []string, re *ReplExt) (Msg, int, error) {
	payload, n, err := frame.ReadInto(r, buf, msgPayloadMin, MaxFrameSize)
	if err != nil {
		return Msg{}, 0, err
	}
	m, err := decodePayload(frame.NewViewDecoder(payload), params, re)
	return m, n, err
}

// DecodeMsg parses the first frame in buf, returning the message and the
// number of bytes consumed. A buffer ending mid-frame returns ErrFrameTorn
// (a longer read may still succeed); invalid bytes return ErrFrameCorrupt.
// The message's strings are views of one copy of the payload, as
// ReadMsgBuf's are: none of them aliases buf.
func DecodeMsg(buf []byte) (Msg, int, error) {
	payload, n, err := frame.Parse(buf, msgPayloadMin, MaxFrameSize)
	if err != nil {
		return Msg{}, 0, err
	}
	m, err := decodePayload(frame.NewViewDecoder(payload), nil, nil)
	if err != nil {
		return Msg{}, 0, err
	}
	return m, n, nil
}

// decodePayload parses a checksum-verified payload through d, decoding
// the params into params' array when it has room and a replication block
// into re (a new one when re is nil). Errors wrap ErrFrameCorrupt: the
// frame arrived intact but its contents are not a message.
func decodePayload(d frame.Decoder, params []string, re *ReplExt) (Msg, error) {
	m := Msg{Seq: d.U64(), Type: MsgType(d.Byte()), Code: ErrCode(d.Byte()), Page: d.U64()}
	m.ObjType, m.ObjName, m.Method, m.Result = d.String(), d.String(), d.String(), d.String()
	if n := d.Count(); n > 0 {
		if n <= cap(params) {
			m.Params = params[:n]
		} else {
			m.Params = make([]string, n)
		}
		for i := range m.Params {
			m.Params[i] = d.String()
		}
	}
	// Extension blocks. Unknown tags are skipped wholesale (forward
	// compatibility: a newer peer may stamp fields this build does not
	// know), but a tail that is not a well-formed tag/len/body sequence is
	// corruption, exactly like trailing garbage used to be.
	for d.Len() > 0 {
		tag := d.Uvarint()
		if tag == 0 {
			return m, fmt.Errorf("%w: bad extension tag", ErrFrameCorrupt)
		}
		switch tag {
		case extTrace:
			body := d.Block()
			attempt := body.Uvarint()
			m.TraceID = body.Rest()
			if body.Done() != nil || attempt > math.MaxUint32 {
				return m, fmt.Errorf("%w: bad trace attempt", ErrFrameCorrupt)
			}
			m.TraceAttempt = uint32(attempt)
		case extRepl:
			if re == nil {
				re = new(ReplExt)
			}
			if err := re.decode(d.Bytes()); err != nil {
				return m, err
			}
			m.Repl = re
		default:
			d.Bytes()
		}
	}
	return m, d.Done()
}

// decode parses an extRepl body into re, read as bytes so the message's
// payload is never converted for it. From and Addr are cloned only when
// they differ from re's (the compare allocates nothing); a body that
// fails to decode leaves re as it was.
func (re *ReplExt) decode(body []byte) error {
	d := frame.NewDecoder(body)
	next := ReplExt{
		Term: d.Uvarint(), PrevLSN: d.Uvarint(), PrevTerm: d.Uvarint(), EntryTerm: d.Uvarint(),
		Commit: d.Uvarint(), Match: d.Uvarint(), Hint: d.Uvarint(), Flags: d.Uvarint(),
		From: re.From, Addr: re.Addr,
	}
	from, addr := d.Bytes(), d.Bytes()
	if err := d.Done(); err != nil {
		return fmt.Errorf("repl extension: %w", err)
	}
	if string(from) != next.From {
		next.From = string(from)
	}
	if string(addr) != next.Addr {
		next.Addr = string(addr)
	}
	*re = next
	return nil
}
