package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/frame"
	"repro/internal/lsnlog"
)

// unsafeStart is the address of s's first byte.
func unsafeStart(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// goldenHandRecords covers every RecordKind, the CLR flag, supersede refs
// (one- to five-byte uvarints), empty, binary and non-ASCII strings, and a
// string whose length needs a two-byte uvarint.
var goldenHandRecords = []Record{
	{LSN: 1, Kind: RecUpdate, Owner: ParseOwner("T1.1"), Page: 3, After: "k=v;k2=v2"},
	{LSN: 2, Kind: RecUpdate, Owner: ParseOwner("T1.1"), Page: 1 << 40, Before: "old", After: "new", CLR: true},
	{LSN: 3, Kind: RecCommit, Owner: ParseOwner("T1.1")},
	{LSN: 4, Kind: RecIntent, Owner: ParseOwner("T1"), Note: "delete|Acct7|25", Refs: []uint64{1, 2}},
	{LSN: 5, Kind: RecCompensation, Owner: ParseOwner("T1"), Note: "credit|Acct7|25", CLR: true},
	{LSN: 6, Kind: RecDiscard, Owner: ParseOwner("T1"), Refs: []uint64{4, 300, 1 << 35}},
	{LSN: 7, Kind: RecAbort, Owner: ParseOwner("T1")},
	{LSN: 8, Kind: RecUpdate, Owner: ParseOwner("T2"), Page: 9, Before: "ü\x00\xff", After: strings.Repeat("x", 130)},
}

// goldenHandHex is the hex of the concatenated frames of goldenHandRecords.
// A change here is a change of the on-disk and replication format.
const goldenHandHex = "24000000fe799f710100000000000000000003000000000000000454312e3100096b3d76" +
	"3b6b323d76320000210000003acf5d2b0200000000000000000100000000000100000454" +
	"312e31036f6c64036e657700001b00000075d06b35030000000000000001000000000000" +
	"0000000454312e31000000002a00000059ac7a5304000000000000000400000000000000" +
	"000002543100000f64656c6574657c41636374377c3235020102280000009374225e0500" +
	"0000000000000301000000000000000002543100000f6372656469747c41636374377c32" +
	"350022000000366ba8c40600000000000000050000000000000000000254310000000304" +
	"ac0280808080800119000000f7cb96680700000000000000020000000000000000000254" +
	"3100000000a00000007ede38dd08000000000000000000090000000000000002543204c3" +
	"bc00ff820178787878787878787878787878787878787878787878787878787878787878" +
	"787878787878787878787878787878787878787878787878787878787878787878787878" +
	"787878787878787878787878787878787878787878787878787878787878787878787878" +
	"7878787878787878787878787878787878787878787878787878780000"

// goldenRunSHA256 is the SHA-256 of the concatenated frames of goldenRun().
const goldenRunSHA256 = "923eb18a038ca13b2f766e63a1d9e1b2981a2ac079b2ca79f164291fbeee92fa"

// goldenRun is a fixed 50-record log: the hand-picked records followed by
// records generated from their index, so every kind recurs with varied
// field widths.
func goldenRun() []Record {
	recs := append([]Record(nil), goldenHandRecords...)
	for i := len(recs); i < 50; i++ {
		rec := Record{
			LSN:   uint64(i + 1),
			Kind:  RecordKind(i % 6),
			Owner: ParseOwner(fmt.Sprintf("T%d.%d", i/3, i%3)),
			CLR:   i%4 == 0,
		}
		switch rec.Kind {
		case RecUpdate:
			rec.Page = PageID(i * 977)
			rec.Before = strings.Repeat("b", i)
			rec.After = strings.Repeat("a", 3*i)
		case RecIntent, RecCompensation:
			rec.Note = fmt.Sprintf("op%d|arg", i)
		}
		if rec.Kind == RecIntent || rec.Kind == RecDiscard {
			for r := 0; r < i%4; r++ {
				rec.Refs = append(rec.Refs, uint64(i)<<(7*r))
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

func encodeRun(recs []Record) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = EncodeRecordFrame(buf, rec)
	}
	return buf
}

// TestRecordFrameGoldenBytes pins the on-disk WAL format: the encoder must
// produce exactly the bytes captured earlier, every frame must decode back
// to its record, and a segment file holding those bytes must read back as
// the same log — a directory written by an older build stays readable.
func TestRecordFrameGoldenBytes(t *testing.T) {
	if got := hex.EncodeToString(encodeRun(goldenHandRecords)); got != goldenHandHex {
		t.Fatalf("record frame bytes drifted:\n got %s\nwant %s", got, goldenHandHex)
	}
	run := goldenRun()
	enc := encodeRun(run)
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != goldenRunSHA256 {
		t.Fatalf("50-record run drifted: sha256 %x, want %s", sum, goldenRunSHA256)
	}
	rest := enc
	for i, want := range run {
		got, n, err := DecodeRecordFrame(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d decoded as %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(EncodeRecordFrame(nil, got), rest[:n]) {
			t.Fatalf("record %d does not re-encode to its frame", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.seg"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, run) {
		t.Fatalf("golden segment read back %d records, want %d (or contents differ)", len(got), len(run))
	}
}

// TestDecodeRecordFrameString: the string decoder agrees with
// DecodeRecordFrame on every frame of the golden run, on every prefix of
// one, and on every single-bit flip of one — the same record, the same
// size, the same error, with Refs allocated or carved from a slab. A
// decoded record's strings are substrings of the frame it was given, so
// decoding allocates nothing but Refs; RecordEncoder returns
// EncodeRecordFrame's bytes.
func TestDecodeRecordFrameString(t *testing.T) {
	var slab lsnlog.Slab[uint64]
	same := func(t *testing.T, b []byte) {
		t.Helper()
		want, wn, werr := DecodeRecordFrame(b)
		for _, refs := range []*lsnlog.Slab[uint64]{nil, &slab} {
			got, gn, gerr := DecodeRecordFrameString(string(b), refs)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || gn != wn || !reflect.DeepEqual(got, want) {
				t.Fatalf("%x:\nstring: %+v %d %v\n bytes: %+v %d %v", b, got, gn, gerr, want, wn, werr)
			}
		}
	}
	var enc RecordEncoder
	for i, rec := range goldenRun() {
		b := EncodeRecordFrame(nil, rec)
		if f := enc.Frame(rec); f != string(b) {
			t.Fatalf("record %d: RecordEncoder.Frame differs from EncodeRecordFrame", i)
		}
		same(t, b)
		same(t, append(b, 0xee)) // a frame followed by more bytes
		for n := 0; n < len(b); n++ {
			same(t, b[:n])
		}
		for bit := 0; bit < 8*len(b); bit++ {
			flipped := append([]byte(nil), b...)
			flipped[bit/8] ^= 1 << (bit % 8)
			same(t, flipped)
		}
	}

	rec := goldenHandRecords[7] // Before and After both set, no Refs
	f := enc.Frame(rec)
	var got Record
	if allocs := testing.AllocsPerRun(100, func() { got, _, _ = DecodeRecordFrameString(f, nil) }); allocs != 0 {
		t.Fatalf("decoding a frame string allocates %.1f times", allocs)
	}
	if !strings.Contains(f, got.After) || unsafeStart(got.After) < unsafeStart(f) ||
		unsafeStart(got.After)+uintptr(len(got.After)) > unsafeStart(f)+uintptr(len(f)) {
		t.Fatal("a decoded field is not a view of the frame")
	}
}

// TestDecodeRefsSlab: Refs decoded through a slab are carved from it in
// decode order, each capped at its own length so no record's Refs can grow
// into the next one's, and a slab serves lsnlog.SlabLen entries before
// the next one is allocated: one allocation per SlabLen refs, where each
// record used to cost one.
func TestDecodeRefsSlab(t *testing.T) {
	frames := make([]string, lsnlog.SlabLen)
	for i := range frames {
		frames[i] = string(EncodeRecordFrame(nil, Record{LSN: uint64(i + 1), Kind: RecIntent,
			Owner: ParseOwner("T1"), Note: "n", Refs: []uint64{uint64(i), uint64(i) + 1}}))
	}
	var slab lsnlog.Slab[uint64]
	var recs []Record
	for _, f := range frames[:2] {
		rec, _, err := DecodeRecordFrameString(f, &slab)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if unsafe.Pointer(&recs[1].Refs[0]) != unsafe.Add(unsafe.Pointer(&recs[0].Refs[1]), 8) || cap(recs[0].Refs) != 2 {
		t.Fatal("Refs are not consecutive carvings of the slab, capped at their length")
	}
	if recs[1].Refs[0] != 1 || recs[1].Refs[1] != 2 {
		t.Fatalf("second record's Refs = %v", recs[1].Refs)
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// testing.AllocsPerRun rounds down to whole objects; this figure is a
	// fraction of one.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range frames {
		if _, _, err := DecodeRecordFrameString(f, &slab); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(frames))
	if want := 2.0 * 2 / lsnlog.SlabLen; allocs > want {
		t.Fatalf("decoding through a slab costs %.3f allocations per record, want <= %.3f", allocs, want)
	}
}

// TestDecodeRefusesNonCanonical: a payload the encoder would not write —
// an unknown flag bit, a length or ref in a longer uvarint than needed —
// is corrupt, so every record accepted re-encodes to its bytes.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	rec := Record{LSN: 5, Kind: RecIntent, Owner: ParseOwner("T2.1"), Note: "n", Refs: []uint64{3}}
	good := EncodeRecordFrame(nil, rec)
	payload := good[frame.HeaderSize:]
	refAt := len(payload) - 1 // the one ref, a one-byte uvarint
	for name, edit := range map[string]func(p []byte) []byte{
		"flag bit":     func(p []byte) []byte { p[9] |= 2; return p },
		"owner length": func(p []byte) []byte { return append(append(p[:18:18], p[18]|0x80, 0), p[19:]...) },
		"ref":          func(p []byte) []byte { return append(append(p[:refAt:refAt], p[refAt]|0x80, 0), p[refAt+1:]...) },
	} {
		p := edit(append([]byte(nil), payload...))
		buf, start := frame.Begin(nil)
		buf = frame.End(append(buf, p...), start)
		if _, _, err := DecodeRecordFrame(buf); !errors.Is(err, ErrRecordCorrupt) {
			t.Errorf("%s: DecodeRecordFrame error = %v, want ErrRecordCorrupt", name, err)
		}
		if _, _, err := DecodeRecordFrameString(string(buf), nil); !errors.Is(err, ErrRecordCorrupt) {
			t.Errorf("%s: DecodeRecordFrameString error = %v, want ErrRecordCorrupt", name, err)
		}
	}
	if got, _, err := DecodeRecordFrame(good); err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("DecodeRecordFrame(good) = %+v, %v", got, err)
	}
}
