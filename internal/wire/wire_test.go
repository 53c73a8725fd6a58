package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/storage"
)

// allTypes is every frame type the protocol defines.
var allTypes = []MsgType{
	MsgBegin, MsgInvoke, MsgPageRead, MsgPageWrite, MsgCommit, MsgAbort,
	MsgPing, MsgStats, MsgReplVote, MsgReplAppend, MsgReplSnapshot, MsgReplAck,
	MsgResult, MsgError,
}

func replEqual(a, b *ReplExt) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func msgEqual(a, b Msg) bool {
	if a.Seq != b.Seq || a.Type != b.Type || a.Code != b.Code || a.Page != b.Page ||
		a.ObjType != b.ObjType || a.ObjName != b.ObjName || a.Method != b.Method ||
		a.Result != b.Result || len(a.Params) != len(b.Params) ||
		a.TraceID != b.TraceID || a.TraceAttempt != b.TraceAttempt ||
		!replEqual(a.Repl, b.Repl) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// TestRoundtripEveryType: a hand-built representative of every frame type
// survives encode → stream decode and encode → buffer decode.
func TestRoundtripEveryType(t *testing.T) {
	var enc []byte // reused across frames, as a connection does
	for i, typ := range allTypes {
		m := Msg{
			Seq:     uint64(i + 1),
			Type:    typ,
			Code:    CodeDeadlock,
			Page:    uint64(i * 7),
			ObjType: "account",
			ObjName: "Acct42",
			Method:  "credit",
			Params:  []string{"100", "", "x\x00y\x1fz"},
			Result:  "ok",
		}
		if i%2 == 0 {
			m.TraceID, m.TraceAttempt = "4bf92f3577b34da6", uint32(i+1)
		}
		var buf bytes.Buffer
		if err := WriteMsgBuf(&buf, &enc, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if !msgEqual(m, got) {
			t.Fatalf("%v roundtrip mismatch:\n in %+v\nout %+v", typ, m, got)
		}
		enc := AppendMsg(nil, m)
		got2, n, err := DecodeMsg(enc)
		if err != nil || n != len(enc) || !msgEqual(m, got2) {
			t.Fatalf("%v buffer decode: n=%d err=%v", typ, n, err)
		}
	}
}

// TestRoundtripQuick: randomized messages (arbitrary strings, params,
// codes) roundtrip exactly — the codec is total on the message space.
func TestRoundtripQuick(t *testing.T) {
	f := func(seq uint64, typ uint8, code uint8, page uint64, objType, objName, method, result string, params []string, traceID string, attempt uint32) bool {
		m := Msg{
			Seq: seq, Type: MsgType(typ), Code: ErrCode(code), Page: page,
			ObjType: objType, ObjName: objName, Method: method,
			Params: params, Result: result,
			TraceID: traceID, TraceAttempt: attempt,
		}
		got, n, err := DecodeMsg(AppendMsg(nil, m))
		if err != nil || n == 0 {
			return false
		}
		if len(m.Params) == 0 {
			m.Params = nil // decode never materializes an empty slice
		}
		return msgEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTornAtEveryOffset mirrors the WAL codec's torn-tail test: every
// strict prefix of a valid frame stream must decode as ErrFrameTorn (or
// clean io.EOF at offset 0 for the stream reader), never as a message and
// never as a panic.
func TestTornAtEveryOffset(t *testing.T) {
	m := Msg{
		Seq: 7, Type: MsgInvoke, ObjType: "account", ObjName: "Acct0",
		Method: "debit", Params: []string{"25"},
	}
	enc := AppendMsg(nil, m)
	for cut := 0; cut < len(enc); cut++ {
		prefix := enc[:cut]
		if _, _, err := DecodeMsg(prefix); !errors.Is(err, ErrFrameTorn) {
			t.Fatalf("DecodeMsg(prefix %d/%d): %v, want ErrFrameTorn", cut, len(enc), err)
		}
		_, err := ReadMsg(bytes.NewReader(prefix))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("ReadMsg(empty): %v, want io.EOF", err)
			}
		} else if !errors.Is(err, ErrFrameTorn) {
			t.Fatalf("ReadMsg(prefix %d/%d): %v, want ErrFrameTorn", cut, len(enc), err)
		}
	}
}

// TestBitFlipNeverDecodes: flipping any single bit of a frame must produce
// a typed decode error (corrupt, torn if the length field now promises
// more bytes, or — for stream reads — at worst a short read), never a
// silently different message and never a panic.
func TestBitFlipNeverDecodes(t *testing.T) {
	m := Msg{
		Seq: 99, Type: MsgResult, Code: CodeOK, Page: 3,
		ObjType: "page", Method: "write", Params: []string{"hello"}, Result: "r",
	}
	enc := AppendMsg(nil, m)
	for byteIdx := 0; byteIdx < len(enc); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), enc...)
			flipped[byteIdx] ^= 1 << bit
			got, _, err := DecodeMsg(flipped)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded silently: %+v", byteIdx, bit, got)
			}
			if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTorn) {
				t.Fatalf("bit flip at byte %d bit %d: untyped error %v", byteIdx, bit, err)
			}
		}
	}
}

// TestGarbageNeverPanics throws random byte soup at both decoders. The
// assertions are the types: every failure is ErrFrameTorn or
// ErrFrameCorrupt, and a zero-filled buffer (the preallocated-file
// artifact class) is rejected via the impossible-length rule.
func TestGarbageNeverPanics(t *testing.T) {
	rr := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rr.Intn(256))
		rr.Read(buf)
		if m, _, err := DecodeMsg(buf); err == nil {
			// A random buffer that happens to be a valid frame must at least
			// canonicalize: re-encoding the decoded message (which drops
			// unknown extension blocks) and decoding again is a fixed point.
			got, _, err2 := DecodeMsg(AppendMsg(nil, m))
			if err2 != nil || !msgEqual(m, got) {
				t.Fatalf("iteration %d: accidental decode does not canonicalize: %v", i, err2)
			}
		} else if !errors.Is(err, ErrFrameTorn) && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("iteration %d: untyped error %v", i, err)
		}
		if _, err := ReadMsg(bytes.NewReader(buf)); err == nil {
			continue
		}
	}
	zeros := make([]byte, 64)
	if _, _, err := DecodeMsg(zeros); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("zero-filled buffer: %v, want ErrFrameCorrupt", err)
	}
}

// TestOversizeLengthRejected: a length prefix beyond MaxFrameSize is
// desync, not an allocation request.
func TestOversizeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	if _, err := ReadMsg(&buf); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversize length: %v, want ErrFrameCorrupt", err)
	}
}

// TestWriteMsgBufReusesAndDrops: consecutive frames share one encode
// buffer, each written whole, and a buffer grown past 64 KiB by a large
// message is dropped after its write.
func TestWriteMsgBufReusesAndDrops(t *testing.T) {
	var out bytes.Buffer
	var buf []byte
	small := []Msg{{Seq: 1, Type: MsgPing, Result: "first"}, {Seq: 2, Type: MsgPing, Result: "2nd"}}
	if err := WriteMsgBuf(&out, &buf, small[0]); err != nil {
		t.Fatal(err)
	}
	arr := &buf[0]
	if err := WriteMsgBuf(&out, &buf, small[1]); err != nil {
		t.Fatal(err)
	}
	if &buf[0] != arr {
		t.Fatal("a small frame did not reuse the buffer")
	}
	big := Msg{Seq: 3, Type: MsgResult, Result: strings.Repeat("x", 70<<10)}
	if err := WriteMsgBuf(&out, &buf, big); err != nil {
		t.Fatal(err)
	}
	if buf != nil {
		t.Fatalf("a %d-byte buffer was kept, want it dropped", cap(buf))
	}
	for _, want := range append(small, big) {
		got, err := ReadMsg(&out)
		if err != nil || !msgEqual(got, want) {
			t.Fatalf("read back %+v, %v; want seq %d", got.Seq, err, want.Seq)
		}
	}
}

// TestErrorTaxonomyRoundtrip: engine error → code → RemoteError → sentinel
// must line up for every named failure mode, and the retry classification
// must follow core.RunWithRetry's.
func TestErrorTaxonomyRoundtrip(t *testing.T) {
	cases := []struct {
		engine    error
		code      ErrCode
		sentinel  error
		retryable bool
	}{
		{core.ErrOverloaded, CodeOverloaded, ErrOverloaded, false},
		{storage.ErrWALPoisoned, CodeDegraded, ErrDegraded, false},
		{cc.ErrTimeout, CodeLockTimeout, ErrLockTimeout, true},
		{cc.ErrDeadlock, CodeDeadlock, ErrDeadlock, true},
		{cc.ErrDoomed, CodeDeadlock, ErrDeadlock, true},
		{core.ErrClosed, CodeClosed, ErrClosed, false},
		{core.ErrTxnFinished, CodeTxnFinished, ErrTxnFinished, false},
		{core.ErrUnknownType, CodeUnknownType, ErrUnknownType, false},
		{core.ErrUnknownMethod, CodeUnknownMethod, ErrUnknownMethod, false},
	}
	for _, tc := range cases {
		wrapped := errors.Join(errors.New("context"), tc.engine)
		code := CodeFor(wrapped)
		if code != tc.code {
			t.Fatalf("CodeFor(%v) = %v, want %v", tc.engine, code, tc.code)
		}
		remote := RemoteErr(code, tc.engine.Error())
		if !errors.Is(remote, tc.sentinel) {
			t.Fatalf("RemoteErr(%v) does not match sentinel %v", code, tc.sentinel)
		}
		if got := Retryable(remote); got != tc.retryable {
			t.Fatalf("Retryable(%v) = %v, want %v", code, got, tc.retryable)
		}
		if !strings.Contains(remote.Error(), code.String()) {
			t.Fatalf("remote error %q does not name its code %q", remote, code)
		}
	}
	if RemoteErr(CodeOK, "") != nil {
		t.Fatal("RemoteErr(CodeOK) must be nil")
	}
	if CodeFor(nil) != CodeOK {
		t.Fatal("CodeFor(nil) must be CodeOK")
	}
	// Unknown codes fall back to the internal sentinel rather than matching
	// something retryable.
	if !errors.Is(RemoteErr(ErrCode(200), "?"), ErrInternal) {
		t.Fatal("unknown code must map to ErrInternal")
	}
}

// FuzzDecodeMsg is the protocol-level fuzzer: arbitrary bytes must decode
// to a typed error or to a message that canonicalizes — re-encoding it
// (which drops unknown extension blocks) and decoding again yields the
// same message, and a traced frame re-encodes byte-identically — and the
// decoder's views of one string must equal its copies, error for error,
// field for field. The seed
// corpus covers every frame type plus traced variants; `go test` runs the
// seeds, `go test -fuzz=FuzzDecodeMsg ./internal/wire` explores.
func FuzzDecodeMsg(f *testing.F) {
	for i, typ := range allTypes {
		f.Add(AppendMsg(nil, Msg{Seq: uint64(i), Type: typ, Code: CodeInternal,
			ObjType: "t", ObjName: "n", Method: "m", Params: []string{"p1", "p2"}, Result: "r"}))
		f.Add(AppendMsg(nil, Msg{Seq: uint64(i), Type: typ,
			ObjType: "t", ObjName: "n", Method: "m",
			TraceID: "deadbeefcafef00d", TraceAttempt: uint32(i)}))
	}
	f.Add(AppendMsg(nil, Msg{Seq: 9, Type: MsgReplAppend, Params: []string{"\x01entry"},
		Repl: &ReplExt{Term: 3, PrevLSN: 41, PrevTerm: 2, EntryTerm: 3, Commit: 40,
			From: "n0", Addr: "127.0.0.1:19331"}}))
	f.Add(AppendMsg(nil, Msg{Seq: 10, Type: MsgReplAck,
		Repl: &ReplExt{Term: 3, Match: 42, Flags: ReplFlagOK, From: "n1"}}))
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMsg(data)
		if payload, _, perr := frame.Parse(data, msgPayloadMin, MaxFrameSize); perr == nil {
			view, verr := decodePayload(frame.NewViewDecoder(payload), nil, nil)
			cp, cerr := decodePayload(frame.NewDecoder(payload), nil, nil)
			if (verr == nil) != (cerr == nil) || verr != nil && verr.Error() != cerr.Error() || !msgEqual(view, cp) {
				t.Fatalf("view decode %+v, %v; copy decode %+v, %v", view, verr, cp, cerr)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrFrameTorn) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc := AppendMsg(nil, m)
		got, _, err := DecodeMsg(enc)
		if err != nil || !msgEqual(m, got) {
			t.Fatalf("decode of %d-byte frame does not canonicalize: %v", n, err)
		}
		// Frames our own encoder could have produced (no unknown extension
		// blocks) must re-encode byte-identically. With two extension classes
		// present the fuzzer can reorder the blocks (the decoder tolerates any
		// order, the encoder emits one), so byte-identity is only asserted when
		// at most one class is stamped.
		if (m.Traced() != (m.Repl != nil)) && len(enc) == n && !bytes.Equal(enc, data[:n]) {
			t.Fatalf("same-length re-encode differs on %d-byte frame", n)
		}
	})
}

// TestReceivedMsgAllocs: read through a connection's reused buffers, a
// received invoke costs one heap object, the string its fields are views
// of, and a BEGIN or a COMMIT, whose strings are all empty, costs none.
// A replication message read into a reused ReplExt costs only the string
// its entries are views of: an ack or a heartbeat costs nothing, an append
// with entries one object, and a sender that changes from frame to frame
// one clone of its id per frame.
func TestReceivedMsgAllocs(t *testing.T) {
	hb := Msg{Seq: 8, Type: MsgReplAppend, Repl: &ReplExt{Term: 3, PrevLSN: 41, PrevTerm: 3,
		Commit: 41, From: "n0", Addr: "127.0.0.1:19331"}}
	other := hb
	other.Repl = &ReplExt{Term: 3, PrevLSN: 41, PrevTerm: 3, Commit: 41, From: "n2", Addr: "127.0.0.1:19331"}
	cases := []struct {
		name string
		ms   []Msg // read in turn, over and over
		want float64
	}{
		{"begin", []Msg{{Seq: 1, Type: MsgBegin}}, 0},
		{"invoke", []Msg{{Seq: 2, Type: MsgInvoke, ObjType: "Encyclopedia", ObjName: "Enc",
			Method: "search", Params: []string{"k1000042"}}}, 1},
		{"invoke with two params", []Msg{{Seq: 3, Type: MsgInvoke, ObjType: "Account", ObjName: "Acct7",
			Method: "debit", Params: []string{"25", "memo"}}}, 1},
		{"commit", []Msg{{Seq: 4, Type: MsgCommit}}, 0},
		{"empty result", []Msg{{Seq: 5, Type: MsgResult}}, 0},
		{"repl ack", []Msg{{Seq: 6, Type: MsgReplAck,
			Repl: &ReplExt{Term: 3, Match: 42, Flags: ReplFlagOK, From: "n1"}}}, 0},
		{"repl heartbeat", []Msg{hb}, 0},
		{"repl append with entries", []Msg{{Seq: 7, Type: MsgReplAppend,
			Params: []string{"entry-42", "entry-43"},
			Repl:   &ReplExt{Term: 3, PrevLSN: 41, PrevTerm: 3, EntryTerm: 3, Commit: 40, From: "n0", Addr: "127.0.0.1:19331"}}}, 1},
		{"repl sender changing every frame", []Msg{hb, other}, 1},
	}
	for _, tc := range cases {
		var frames []byte
		for range 102 / len(tc.ms) {
			for _, m := range tc.ms {
				frames = AppendMsg(frames, m)
			}
		}
		r := bytes.NewReader(frames)
		var buf []byte
		params := make([]string, 0, 4)
		re := new(ReplExt)
		if _, _, err := ReadMsgBuf(r, &buf, params, re); err != nil { // warm the buffer
			t.Fatal(err)
		}
		var got Msg
		var err error
		i := 1
		allocs := testing.AllocsPerRun(100, func() { got, _, err = ReadMsgBuf(r, &buf, params, re); i++ })
		if want := tc.ms[(i-1)%len(tc.ms)]; err != nil || !msgEqual(got, want) {
			t.Fatalf("%s: read %+v, %v; want %+v", tc.name, got, err, want)
		}
		if want := tc.ms[0].Repl != nil; (got.Repl == re) != want {
			t.Fatalf("%s: Repl = %p, want the caller's block %p: %v", tc.name, got.Repl, re, want)
		}
		if allocs != tc.want {
			t.Errorf("received %s = %.1f allocs, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// FuzzDecodeReplReuse: a sequence of frames read through one ReadMsgBuf
// buffer into one reused ReplExt decodes, frame for frame, to what a fresh
// DecodeMsg of each frame returns, error for error. The input is a
// sequence of payloads, each a length byte and up to that many bytes, each
// framed with a valid checksum so the decoder sees it. After every read
// the buffer is overwritten with garbage, and no string read so far, the
// block's included, may change: a kept sender id is never a view of the
// buffer, also when its frame failed to decode, so a later frame whose id
// equals it cannot keep a view either. `go test -fuzz=FuzzDecodeReplReuse
// ./internal/wire` explores.
func FuzzDecodeReplReuse(f *testing.F) {
	seq := func(ms ...Msg) []byte {
		var in []byte
		for _, m := range ms {
			payload := AppendMsg(nil, m)[frame.HeaderSize:]
			in = append(append(in, byte(len(payload))), payload...)
		}
		return in
	}
	ack := func(from string, match uint64) Msg {
		return Msg{Seq: match, Type: MsgReplAck, Repl: &ReplExt{Term: 3, Match: match, Flags: ReplFlagOK, From: from}}
	}
	hb := Msg{Seq: 1, Type: MsgReplAppend, Repl: &ReplExt{Term: 3, Commit: 9, From: "n0", Addr: "127.0.0.1:1"}}
	app := Msg{Seq: 2, Type: MsgReplAppend, Params: []string{"e1", "e2"},
		Repl: &ReplExt{Term: 3, PrevLSN: 9, EntryTerm: 3, Commit: 9, From: "n0", Addr: "127.0.0.1:1"}}
	f.Add(seq(ack("n1", 1), ack("n1", 2), ack("n2", 3), ack("n1", 4)))
	f.Add(seq(hb, app, hb, Msg{Seq: 3, Type: MsgCommit}, app))
	bad := seq(ack("n1", 5))
	bad[len(bad)-4]++ // the From length runs into Addr's: a failed decode
	f.Add(append(append(seq(ack("n9", 1)), bad...), seq(ack("n1", 6))...))
	f.Add(seq(Msg{Seq: 4, Type: MsgReplVote, TraceID: "t", Repl: &ReplExt{Term: 4, PrevLSN: 7, From: "n2"}}, ack("n2", 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		re := new(ReplExt)
		type kept struct{ strs, clones []string }
		var all []kept
		keep := func(m Msg) {
			strs := append([]string{m.ObjType, m.ObjName, m.Method, m.Result, m.TraceID, re.From, re.Addr}, m.Params...)
			clones := make([]string, len(strs))
			for i, s := range strs {
				clones[i] = strings.Clone(s)
			}
			all = append(all, kept{strs, clones})
		}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			body := data[1 : 1+n]
			data = data[1+n:]
			enc, start := frame.Begin(nil)
			enc = frame.End(append(enc, body...), start)

			got, _, err := ReadMsgBuf(bytes.NewReader(enc), &buf, nil, re)
			want, _, werr := DecodeMsg(enc)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("reused read error %v, fresh decode error %v", err, werr)
			}
			if err == nil {
				if !msgEqual(got, want) {
					t.Fatalf("reused read %+v (repl %+v), fresh decode %+v (repl %+v)", got, got.Repl, want, want.Repl)
				}
				keep(got)
			} else {
				keep(Msg{})
			}
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = 0xa5
			}
			for _, k := range all {
				for i := range k.strs {
					if k.strs[i] != k.clones[i] {
						t.Fatalf("a string changed from %q to %q when the read buffer was overwritten", k.clones[i], k.strs[i])
					}
				}
			}
		}
	})
}

// TestDecodedMsgOutlivesBuffer: a message read into a connection's buffer
// is intact after the buffer has been reused for the next frames,
// including a frame past 64 KiB that makes the reader drop the buffer,
// and its params array is the caller's when it had room.
func TestDecodedMsgOutlivesBuffer(t *testing.T) {
	first := Msg{Seq: 1, Type: MsgInvoke, ObjType: "T", ObjName: "obj-1", Method: "put",
		Params: []string{"key-1", "value-1"}, TraceID: "4bf92f3577b34da6", TraceAttempt: 3}
	second := Msg{Seq: 2, Type: MsgInvoke, ObjType: "U", ObjName: "obj-2", Method: "get",
		Params: []string{"key-2"}}
	big := Msg{Seq: 3, Type: MsgResult, Result: strings.Repeat("r", 70<<10)}
	last := Msg{Seq: 4, Type: MsgResult, Result: "done"}
	var stream bytes.Buffer
	for _, m := range []Msg{first, second, big, last} {
		stream.Write(AppendMsg(nil, m))
	}
	var buf []byte
	params := make([]string, 0, 2)
	var got []Msg
	for range 4 {
		m, _, err := ReadMsgBuf(&stream, &buf, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		if m.Seq == 1 {
			if &m.Params[0] != &params[:1][0] {
				t.Fatal("the params did not go into the caller's array")
			}
			params = make([]string, 0, 2) // the first message keeps its array
		}
		if m.Seq == 3 && buf != nil {
			t.Fatalf("a %d-byte buffer was kept after a 70 KiB frame", cap(buf))
		}
	}
	for i, want := range []Msg{first, second, big, last} {
		if !msgEqual(got[i], want) {
			t.Fatalf("message %d = %+v after the buffer's reuse, want %+v", i+1, got[i], want)
		}
	}
}

// BenchmarkReadMsg prices receiving one invoke through a connection's
// reused buffers: frame read, checksum, decode.
func BenchmarkReadMsg(b *testing.B) {
	enc := AppendMsg(nil, Msg{Seq: 2, Type: MsgInvoke, ObjType: "Encyclopedia", ObjName: "Enc",
		Method: "search", Params: []string{"k1000042"}})
	frames := bytes.Repeat(enc, 1024)
	r := bytes.NewReader(frames)
	var buf []byte
	params := make([]string, 0, 4)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		if r.Len() == 0 {
			r.Reset(frames)
		}
		if _, _, err := ReadMsgBuf(r, &buf, params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeMsg prices decoding one invoke frame already in memory.
func BenchmarkDecodeMsg(b *testing.B) {
	enc := AppendMsg(nil, Msg{Seq: 2, Type: MsgInvoke, ObjType: "Encyclopedia", ObjName: "Enc",
		Method: "search", Params: []string{"k1000042"}})
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMsg(enc); err != nil {
			b.Fatal(err)
		}
	}
}
