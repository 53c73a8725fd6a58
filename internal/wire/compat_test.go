package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"
)

// This file pins wire compatibility across the extension-block change.
// legacyAppendMsg / legacyDecodeMsg are a vendored copy of the PR-7 codec
// (no extension blocks; any trailing byte is corruption). The matrix:
//
//	old encoder → new decoder   must decode, no trace          (old client, new server)
//	new encoder, unstamped → old decoder   must decode          (new client, old server)
//	new encoder, unstamped      byte-identical to old encoder   (the strongest form)
//	new encoder, stamped → old decoder     typed error           (documented: stamping is opt-in)
//
// The vendored codec keeps its own header constant, CRC table and string
// reader, so it stays an independent reference for internal/frame.

const frameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readString decodes one uvarint-length-prefixed string at off, returning
// the string and the offset past it.
func readString(payload []byte, off int) (string, int, error) {
	n, w := binary.Uvarint(payload[off:])
	if w <= 0 || n > uint64(len(payload)-off-w) {
		return "", 0, fmt.Errorf("%w: bad string length at offset %d", ErrFrameCorrupt, off)
	}
	off += w
	return string(payload[off : off+int(n)]), off + int(n), nil
}

func legacyAppendMsg(dst []byte, m Msg) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, m.Seq)
	payload = append(payload, byte(m.Type), byte(m.Code))
	payload = binary.LittleEndian.AppendUint64(payload, m.Page)
	for _, s := range []string{m.ObjType, m.ObjName, m.Method, m.Result} {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	payload = binary.AppendUvarint(payload, uint64(len(m.Params)))
	for _, p := range m.Params {
		payload = binary.AppendUvarint(payload, uint64(len(p)))
		payload = append(payload, p...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

func legacyDecodeMsg(buf []byte) (Msg, error) {
	var m Msg
	if len(buf) < frameHeaderSize {
		return m, fmt.Errorf("%w: short header", ErrFrameTorn)
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if length < msgPayloadMin || length > MaxFrameSize {
		return m, fmt.Errorf("%w: impossible payload length", ErrFrameCorrupt)
	}
	if len(buf) < frameHeaderSize+int(length) {
		return m, fmt.Errorf("%w: short frame", ErrFrameTorn)
	}
	payload := buf[frameHeaderSize : frameHeaderSize+int(length)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return m, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	m.Seq = binary.LittleEndian.Uint64(payload)
	m.Type = MsgType(payload[8])
	m.Code = ErrCode(payload[9])
	m.Page = binary.LittleEndian.Uint64(payload[10:])
	off := 18
	var strs [4]string
	for i := range strs {
		s, w, err := readString(payload, off)
		if err != nil {
			return m, err
		}
		strs[i] = s
		off = w
	}
	m.ObjType, m.ObjName, m.Method, m.Result = strs[0], strs[1], strs[2], strs[3]
	nparams, w := binary.Uvarint(payload[off:])
	if w <= 0 || nparams > uint64(len(payload)-off-w) {
		return m, fmt.Errorf("%w: bad param count", ErrFrameCorrupt)
	}
	off += w
	for i := uint64(0); i < nparams; i++ {
		s, w, err := readString(payload, off)
		if err != nil {
			return m, err
		}
		m.Params = append(m.Params, s)
		off = w
	}
	// The PR-7 decoder's strictness: any trailing byte is corruption.
	if off != len(payload) {
		return m, fmt.Errorf("%w: %d trailing payload bytes", ErrFrameCorrupt, len(payload)-off)
	}
	return m, nil
}

var compatMsg = Msg{
	Seq: 42, Type: MsgInvoke, Code: CodeOK, Page: 9,
	ObjType: "account", ObjName: "Acct7", Method: "debit",
	Params: []string{"25", "memo"},
}

// compatGolden is the hex of legacyAppendMsg(compatMsg), captured from the
// PR-7 codec. It pins the byte format: if either encoder drifts from these
// bytes for an unstamped frame, cross-version interop is broken even if
// the roundtrip tests still pass.
const compatGolden = "30000000fcff1e732a00000000000000020009000000000000000761" +
	"63636f756e740541636374370564656269740002023235046d656d6f"

func TestCompatGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(compatGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := legacyAppendMsg(nil, compatMsg); !bytes.Equal(got, want) {
		t.Fatalf("vendored legacy encoder drifted from golden bytes:\n got %x\nwant %x", got, want)
	}
	if got := AppendMsg(nil, compatMsg); !bytes.Equal(got, want) {
		t.Fatalf("unstamped new frame is not byte-identical to the PR-7 frame:\n got %x\nwant %x", got, want)
	}
}

// TestCompatOldToNew: PR-7-era frames decode under the new codec with no
// trace context — absence of the extension is never an error.
func TestCompatOldToNew(t *testing.T) {
	enc := legacyAppendMsg(nil, compatMsg)
	got, n, err := DecodeMsg(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("new decoder rejected legacy frame: n=%d err=%v", n, err)
	}
	if got.Traced() {
		t.Fatalf("legacy frame decoded with trace context: %+v", got)
	}
	if !msgEqual(compatMsg, got) {
		t.Fatalf("legacy frame mismatch:\n in %+v\nout %+v", compatMsg, got)
	}
}

// TestCompatNewToOld: an unstamped frame from the new encoder decodes
// under the PR-7 codec; a stamped frame fails with a typed error (which is
// why trace stamping is opt-in per client, not on by default).
func TestCompatNewToOld(t *testing.T) {
	got, err := legacyDecodeMsg(AppendMsg(nil, compatMsg))
	if err != nil {
		t.Fatalf("legacy decoder rejected unstamped new frame: %v", err)
	}
	if !msgEqual(compatMsg, got) {
		t.Fatalf("unstamped frame mismatch:\n in %+v\nout %+v", compatMsg, got)
	}

	stamped := compatMsg
	stamped.TraceID, stamped.TraceAttempt = "4bf92f3577b34da6", 2
	if _, err := legacyDecodeMsg(AppendMsg(nil, stamped)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("legacy decoder on stamped frame: %v, want ErrFrameCorrupt", err)
	}
	// And the new decoder round-trips the same stamped frame, of course.
	back, _, err := DecodeMsg(AppendMsg(nil, stamped))
	if err != nil || !msgEqual(stamped, back) {
		t.Fatalf("stamped roundtrip: %+v err=%v", back, err)
	}
}

// TestCompatQuick drives the unstamped-equivalence property across random
// messages: for every traceless message the two encoders agree byte for
// byte, and each decodes the other's frames.
func TestCompatQuick(t *testing.T) {
	f := func(seq uint64, typ uint8, code uint8, page uint64, objType, objName, method, result string, params []string) bool {
		m := Msg{
			Seq: seq, Type: MsgType(typ), Code: ErrCode(code), Page: page,
			ObjType: objType, ObjName: objName, Method: method,
			Params: params, Result: result,
		}
		oldEnc := legacyAppendMsg(nil, m)
		newEnc := AppendMsg(nil, m)
		if !bytes.Equal(oldEnc, newEnc) {
			return false
		}
		fromOld, _, err1 := DecodeMsg(oldEnc)
		fromNew, err2 := legacyDecodeMsg(newEnc)
		if err1 != nil || err2 != nil || fromOld.Traced() {
			return false
		}
		if len(m.Params) == 0 {
			m.Params = nil
		}
		return msgEqual(m, fromOld) && msgEqual(m, fromNew)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompatUnknownExtensionSkipped: a frame carrying an extension tag
// this build does not define decodes cleanly with the unknown block
// ignored — the forward-compatibility half of the versioning contract.
func TestCompatUnknownExtensionSkipped(t *testing.T) {
	// Rebuild compatMsg's payload by hand with a bogus tag-7 extension
	// appended, then reframe with a fresh checksum.
	base := AppendMsg(nil, compatMsg)
	payload := append([]byte(nil), base[frameHeaderSize:]...)
	payload = binary.AppendUvarint(payload, 7)
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, 0xde, 0xad, 0xbf)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)

	got, n, err := DecodeMsg(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("unknown extension rejected: n=%d err=%v", n, err)
	}
	if got.Traced() || !msgEqual(compatMsg, got) {
		t.Fatalf("unknown extension leaked into message: %+v", got)
	}

	// Unknown extension *before* a trace extension must not mask it.
	payload = binary.AppendUvarint(payload, extTrace)
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, 1, 'i', 'd')
	frame = binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	got, _, err = DecodeMsg(frame)
	if err != nil || got.TraceID != "id" || got.TraceAttempt != 1 {
		t.Fatalf("trace after unknown extension: %+v err=%v", got, err)
	}
}
