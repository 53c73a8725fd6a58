package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// Replication compatibility matrix, mirroring compat_test.go for the
// MsgRepl* types introduced alongside internal/repl:
//
//   - repl frames WITHOUT a ReplExt stamp are byte-identical under the
//     legacy (pre-extension) codec — the extension mechanism stays opt-in
//     even for the new message types;
//   - a ReplExt-stamped frame is refused with a typed error by the legacy
//     decoder (trailing-bytes rule), exactly like a trace-stamped frame —
//     an old node can never silently misread consensus state;
//   - a pinned golden frame guards both codecs at once: the wire framing
//     AND the storage record-frame encoding of the log entries riding
//     Params. Replicas persist entry bytes verbatim, so a change to either
//     codec is a cross-version replication break and must fail here.

// replTypes is every replication message type.
var replTypes = []MsgType{MsgReplVote, MsgReplAppend, MsgReplSnapshot, MsgReplAck}

// replCompatRecords are the log entries carried by the golden frame —
// one page update and the commit that seals it, the shape every
// group-commit batch reduces to.
var replCompatRecords = []storage.Record{
	{LSN: 42, Kind: storage.RecUpdate, Owner: storage.ParseOwner("T7"), Page: 3, Before: "old", After: "new"},
	{LSN: 43, Kind: storage.RecCommit, Owner: storage.ParseOwner("T7")},
}

// replCompatMsg is the golden AppendEntries frame: a two-entry batch in
// term 3 following (41, term 2), leader commit index 40, with the leader's
// advertised client address for redirect hints.
func replCompatMsg() Msg {
	params := make([]string, len(replCompatRecords))
	for i, rec := range replCompatRecords {
		params[i] = string(storage.EncodeRecordFrame(nil, rec))
	}
	return Msg{
		Seq: 71, Type: MsgReplAppend, Params: params,
		Repl: &ReplExt{
			Term: 3, PrevLSN: 41, PrevTerm: 2, EntryTerm: 3, Commit: 40,
			From: "n0", Addr: "127.0.0.1:19331",
		},
	}
}

// replCompatGolden is hex(AppendMsg(nil, replCompatMsg())), pinned. If this
// test fails after an intentional codec change, the replication protocol
// version must be bumped — old and new nodes can no longer share a cluster.
const replCompatGolden = "7e000000cf041a1d470000000000000021000000000000000000000000" +
	"0002271f000000a13c93fb2a0000000000000000000300000000000000025437036f6c64036e65" +
	"7700002119000000061481002b000000000000000100000000000000000002543700000000021b" +
	"0329020328000000026e300f3132372e302e302e313a3139333331"

func TestReplCompatGoldenBytes(t *testing.T) {
	m := replCompatMsg()
	enc := AppendMsg(nil, m)
	if got := hex.EncodeToString(enc); got != replCompatGolden {
		t.Fatalf("repl golden drift — wire or record-frame codec changed:\n got %s\nwant %s", got, replCompatGolden)
	}
	golden, err := hex.DecodeString(replCompatGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeMsg(golden)
	if err != nil || n != len(golden) {
		t.Fatalf("decode golden: n=%d err=%v", n, err)
	}
	if !msgEqual(m, got) {
		t.Fatalf("golden decode mismatch:\n in %+v\nout %+v", m, got)
	}
	// The log entries must survive the trip byte-for-byte: replicas append
	// exactly these frames to their own WAL, so divergence here is silent
	// log divergence in production.
	for i, p := range got.Params {
		rec, rn, err := storage.DecodeRecordFrame([]byte(p))
		if err != nil || rn != len(p) {
			t.Fatalf("entry %d does not decode as a record frame: n=%d err=%v", i, rn, err)
		}
		reenc := storage.EncodeRecordFrame(nil, rec)
		if !bytes.Equal(reenc, []byte(p)) {
			t.Fatalf("entry %d re-encode differs from transported bytes", i)
		}
	}
}

// TestReplUnstampedByteIdentical: a repl-typed frame with no ReplExt (the
// degenerate case — nothing in internal/repl sends one, but the codec is
// total) encodes byte-identically under the legacy codec, same as every
// session frame.
func TestReplUnstampedByteIdentical(t *testing.T) {
	for i, typ := range replTypes {
		m := Msg{Seq: uint64(100 + i), Type: typ, Page: uint64(i), Params: []string{"p"}}
		oldB := legacyAppendMsg(nil, m)
		newB := AppendMsg(nil, m)
		if !bytes.Equal(oldB, newB) {
			t.Fatalf("%v: unstamped frame not byte-identical to legacy encoding", typ)
		}
		got, err := legacyDecodeMsg(newB)
		if err != nil || !msgEqual(m, got) {
			t.Fatalf("%v: legacy decode of unstamped repl frame: %v", typ, err)
		}
	}
}

// TestReplStampedRejectedByLegacy: a ReplExt-stamped frame must fail the
// legacy decoder with the typed corrupt error — the strict no-trailing-bytes
// rule is what makes extension adoption safe. An old node that somehow
// receives consensus state refuses the frame rather than decoding a message
// with the state silently dropped.
func TestReplStampedRejectedByLegacy(t *testing.T) {
	for _, typ := range replTypes {
		m := Msg{Seq: 7, Type: typ, Repl: &ReplExt{Term: 1, From: "n2", Flags: ReplFlagOK}}
		if _, err := legacyDecodeMsg(AppendMsg(nil, m)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("%v: legacy decode of repl-stamped frame: %v, want ErrFrameCorrupt", typ, err)
		}
	}
}

// TestReplExtQuick: every ReplExt field combination roundtrips exactly
// through the extension block, for every repl message type.
func TestReplExtQuick(t *testing.T) {
	f := func(seq, term, prevLSN, prevTerm, entryTerm, commit, match, hint, flags uint64, from, addr string, typIdx uint8, params []string) bool {
		m := Msg{
			Seq: seq, Type: replTypes[int(typIdx)%len(replTypes)], Params: params,
			Repl: &ReplExt{
				Term: term, PrevLSN: prevLSN, PrevTerm: prevTerm, EntryTerm: entryTerm,
				Commit: commit, Match: match, Hint: hint, Flags: flags,
				From: from, Addr: addr,
			},
		}
		got, n, err := DecodeMsg(AppendMsg(nil, m))
		if err != nil || n == 0 {
			return false
		}
		if len(m.Params) == 0 {
			m.Params = nil
		}
		return msgEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
