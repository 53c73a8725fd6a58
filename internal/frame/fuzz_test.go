package frame_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/frame"
	"repro/internal/lsnlog"
	"repro/internal/storage"
	"repro/internal/wire"
)

// FuzzParse: arbitrary bytes never panic Parse, ParseString, Read or
// ReadInto; the four agree on every input, frame after frame, with
// ReadInto reading every frame of the input into one reused buffer, and
// ParseString returning Parse's very error; every failure is torn or
// corrupt; and whatever parses re-encodes to exactly the bytes it was
// parsed from. Each payload decodes field for field and error for error
// alike through NewViewDecoder and NewStringDecoder, and each frame alike
// through storage.DecodeRecordFrame and DecodeRecordFrameString (carving
// Refs from one slab across the frames), and every record they accept re-encodes (storage.EncodeRecordFrame) to the
// bytes it was decoded from. The seeds are one of each frame the system
// writes: WAL records with an inline and a rendered owner, a traced wire
// message and a checkpoint file's frame, and the first two back to back. `go test` runs the seeds;
// `go test -fuzz=FuzzParse ./internal/frame` explores.
func FuzzParse(f *testing.F) {
	rec := storage.EncodeRecordFrame(nil, storage.Record{
		LSN: 7, Kind: storage.RecIntent, Owner: storage.ParseOwner("T3.1"), Note: "delete|k", CLR: true, Refs: []uint64{5, 6},
	})
	msg := wire.AppendMsg(nil, wire.Msg{
		Seq: 9, Type: wire.MsgInvoke, ObjType: "account", ObjName: "Acct7", Method: "debit",
		Params: []string{"25"}, TraceID: "4bf92f3577b34da6", TraceAttempt: 2,
	})
	f.Add(rec)
	f.Add(storage.EncodeRecordFrame(nil, storage.Record{
		LSN: 8, Kind: storage.RecAbort, Owner: storage.ParseOwner("T3.1:undo-fetch-failed"), Refs: []uint64{300},
	}))
	f.Add(msg)
	f.Add(append(append(append([]byte(nil), msg...), rec...), msg[:len(msg)-1]...))
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

		// Frame after frame, to the first failure.
		stream, into := bytes.NewReader(data), bytes.NewReader(data)
		var buf []byte
		var refs lsnlog.Slab[uint64] // the Refs slab, kept from frame to frame as a follower keeps it
		for rest := data; ; {
			payload, n, err := frame.Parse(rest, min, max)
			spayload, sn, serr := frame.ParseString(string(rest), min, max)
			if fmt.Sprint(serr) != fmt.Sprint(err) || sn != n || spayload != string(payload) {
				t.Fatalf("at offset %d Parse took %d bytes (%v), ParseString %d (%v)",
					len(data)-len(rest), n, err, sn, serr)
			}
			if err == nil {
				if v, s := walkFields(frame.NewViewDecoder(payload)), walkFields(frame.NewStringDecoder(spayload)); v != s {
					t.Fatalf("at offset %d the view decoder read %q, the string decoder %q", len(data)-len(rest), v, s)
				}
			}
			rec, rn, rerr := storage.DecodeRecordFrame(rest)
			srec, srn, srerr := storage.DecodeRecordFrameString(string(rest), &refs)
			if fmt.Sprint(srerr) != fmt.Sprint(rerr) || srn != rn || !reflect.DeepEqual(srec, rec) {
				t.Fatalf("at offset %d DecodeRecordFrame: %+v %d %v; DecodeRecordFrameString: %+v %d %v",
					len(data)-len(rest), rec, rn, rerr, srec, srn, srerr)
			}
			if rerr == nil {
				if enc := storage.EncodeRecordFrame(nil, rec); !bytes.Equal(enc, rest[:rn]) {
					t.Fatalf("at offset %d record %+v re-encodes differently:\n got %x\nwant %x", len(data)-len(rest), rec, enc, rest[:rn])
				}
			}
			rpayload, rn, rerr := frame.Read(stream, min, max)
			ipayload, in, ierr := frame.ReadInto(into, &buf, min, max)
			if len(rest) == 0 {
				if rerr != io.EOF || ierr != io.EOF {
					t.Fatalf("at the end: Read %v, ReadInto %v, want io.EOF", rerr, ierr)
				}
				return
			}
			if err != nil {
				for _, e := range []error{rerr, ierr} {
					if errors.Is(e, frame.ErrTorn) != errors.Is(err, frame.ErrTorn) ||
						errors.Is(e, frame.ErrCorrupt) != errors.Is(err, frame.ErrCorrupt) {
						t.Fatalf("at offset %d Parse says %v, Read %v, ReadInto %v", len(data)-len(rest), err, rerr, ierr)
					}
				}
				return
			}
			if rerr != nil || ierr != nil || rn != n || in != n ||
				!bytes.Equal(rpayload, payload) || !bytes.Equal(ipayload, payload) {
				t.Fatalf("at offset %d Parse took %d bytes, Read %d (%v), ReadInto %d (%v)",
					len(data)-len(rest), n, rn, rerr, in, ierr)
			}
			rest = rest[n:]
		}
	})
}

// walkFields reads a payload through d as a fixed run of every field kind
// — integers, strings, a counted list, an extension block — and renders
// what it read and how the decode ended, so two decoders can be compared.
func walkFields(d frame.Decoder) string {
	out := fmt.Sprint(d.U64(), d.Byte(), d.Uvarint(), d.String())
	for i, n := 0, d.Count(); i < n && i < 64; i++ {
		out += "|" + d.String()
	}
	b := d.Block()
	out += fmt.Sprint("|", b.Uvarint(), b.String(), b.Rest(), b.Done())
	out += fmt.Sprint("|", d.Bytes(), d.Rest(), d.Len(), d.Done())
	return out
}
