package frame_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/frame"
	"repro/internal/storage"
	"repro/internal/wire"
)

// FuzzParse: arbitrary bytes never panic Parse or Read; the two agree on
// every input; every failure is torn or corrupt; and whatever parses
// re-encodes to exactly the bytes it was parsed from. The seeds are one of
// each frame the system writes: a WAL record, a traced wire message and a
// checkpoint file's frame. `go test` runs the seeds;
// `go test -fuzz=FuzzParse ./internal/frame` explores.
func FuzzParse(f *testing.F) {
	f.Add(storage.EncodeRecordFrame(nil, storage.Record{
		LSN: 7, Kind: storage.RecIntent, Owner: "T3.1", Note: "delete|k", CLR: true, Refs: []uint64{5, 6},
	}))
	f.Add(wire.AppendMsg(nil, wire.Msg{
		Seq: 9, Type: wire.MsgInvoke, ObjType: "account", ObjName: "Acct7", Method: "debit",
		Params: []string{"25"}, TraceID: "4bf92f3577b34da6", TraceAttempt: 2,
	}))
	path, err := checkpoint.Write(f.TempDir(), &checkpoint.Snapshot{
		LSN: 42, MaxTxn: 9, NextPage: 3, PageSize: 128, UnixNano: 1700000000000000000,
		Active: []string{"T7"}, Pages: map[storage.PageID]string{1: "alpha", 2: ""},
	})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len("OODBCKPT")+4:]) // magic and version precede the frame
	f.Add([]byte{})
	f.Add(make([]byte, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		const min, max = 1, 1 << 20
		payload, n, err := frame.Parse(data, min, max)
		rpayload, rn, rerr := frame.Read(bytes.NewReader(data), min, max)
		if len(data) == 0 {
			if rerr != io.EOF {
				t.Fatalf("Read(empty) = %v, want io.EOF", rerr)
			}
			rerr = err // Parse has no stream to end cleanly
		}
		if err != nil {
			if !errors.Is(err, frame.ErrTorn) && !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("untyped Parse error: %v", err)
			}
			if errors.Is(rerr, frame.ErrTorn) != errors.Is(err, frame.ErrTorn) ||
				errors.Is(rerr, frame.ErrCorrupt) != errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("Parse says %v, Read says %v", err, rerr)
			}
			return
		}
		if rerr != nil || rn != n || !bytes.Equal(rpayload, payload) {
			t.Fatalf("Parse took %d bytes, Read: %d bytes, %v", n, rn, rerr)
		}
		dst, start := frame.Begin(nil)
		if enc := frame.End(append(dst, payload...), start); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", enc, data[:n])
		}
	})
}
