package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"unsafe"
)

func encode(payload string) []byte {
	dst, start := Begin([]byte("prefix"))
	dst = append(dst, payload...)
	return End(dst, start)[len("prefix"):]
}

// withLength rewrites the length field of a frame (the checksum is left
// alone, so only the length can be the reason for a rejection).
func withLength(f []byte, length byte) []byte {
	f = append([]byte(nil), f...)
	f[0], f[1], f[2], f[3] = length, 0, 0, 0
	return f
}

// TestClassification is the torn/corrupt rule, one row per case, for the
// buffer parser and the stream reader alike.
func TestClassification(t *testing.T) {
	const min, max = 4, 64
	good := encode("hello, frame")
	badSum := append([]byte(nil), good...)
	badSum[5] ^= 0x01
	badBody := append([]byte(nil), good...)
	badBody[len(badBody)-1] ^= 0x80

	cases := []struct {
		name  string
		in    []byte
		parse error // want from Parse
		read  error // want from Read
	}{
		{"empty", nil, ErrTorn, io.EOF},
		{"short header", good[:HeaderSize-1], ErrTorn, ErrTorn},
		{"header only", good[:HeaderSize], ErrTorn, ErrTorn},
		{"length 0", withLength(good, 0), ErrCorrupt, ErrCorrupt},
		{"length below min", withLength(good, min-1), ErrCorrupt, ErrCorrupt},
		{"length above max", withLength(good, max+1), ErrCorrupt, ErrCorrupt},
		{"length above max, nothing after it", withLength(good, max+1)[:HeaderSize], ErrCorrupt, ErrCorrupt},
		{"short payload", good[:len(good)-1], ErrTorn, ErrTorn},
		{"flipped checksum", badSum, ErrCorrupt, ErrCorrupt},
		{"flipped payload bit", badBody, ErrCorrupt, ErrCorrupt},
		{"zero-filled", make([]byte, 32), ErrCorrupt, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, perr := Parse(tc.in, min, max)
			if !errors.Is(perr, tc.parse) {
				t.Errorf("Parse: %v, want %v", perr, tc.parse)
			}
			if _, _, err := ParseString(string(tc.in), min, max); fmt.Sprint(err) != fmt.Sprint(perr) {
				t.Errorf("ParseString: %v, Parse: %v", err, perr)
			}
			_, _, err := Read(bytes.NewReader(tc.in), min, max)
			if !errors.Is(err, tc.read) {
				t.Errorf("Read: %v, want %v", err, tc.read)
			}
			if tc.read == io.EOF && err != io.EOF {
				t.Errorf("Read: %v, want io.EOF itself", err)
			}
		})
	}

	// The good frame, alone and followed by the next frame's bytes.
	for _, in := range [][]byte{good, append(append([]byte(nil), good...), good...)} {
		payload, n, err := Parse(in, min, max)
		if err != nil || n != len(good) || string(payload) != "hello, frame" {
			t.Fatalf("Parse(good): %q, %d, %v", payload, n, err)
		}
		payload, n, err = Read(bytes.NewReader(in), min, max)
		if err != nil || n != len(good) || string(payload) != "hello, frame" {
			t.Fatalf("Read(good): %q, %d, %v", payload, n, err)
		}
		s := string(in)
		spayload, n, err := ParseString(s, min, max)
		if err != nil || n != len(good) || spayload != "hello, frame" {
			t.Fatalf("ParseString(good): %q, %d, %v", spayload, n, err)
		}
		if unsafe.StringData(spayload) != unsafe.StringData(s[HeaderSize:]) {
			t.Fatal("ParseString's payload is not a substring of its input")
		}
	}
}

// deadlineReader yields its bytes, then fails like a connection whose read
// deadline passed.
type deadlineReader struct{ r io.Reader }

func (d deadlineReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if err == io.EOF {
		return n, os.ErrDeadlineExceeded
	}
	return n, err
}

// TestReadKeepsCause: a read error under a frame stays in the chain, so a
// server can tell an idle deadline (a timeout) from a dead peer — before
// the header and inside the payload alike.
func TestReadKeepsCause(t *testing.T) {
	good := encode("payload")
	for _, cut := range []int{0, 3, HeaderSize, len(good) - 1} {
		_, _, err := Read(deadlineReader{bytes.NewReader(good[:cut])}, 1, 64)
		if !errors.Is(err, ErrTorn) || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("cut %d: %v, want torn wrapping the deadline", cut, err)
		}
		var timeout interface{ Timeout() bool }
		if !errors.As(err, &timeout) || !timeout.Timeout() {
			t.Fatalf("cut %d: %v does not expose Timeout()", cut, err)
		}
	}
}

// TestDecoderRoundtrip reads back every field kind the payload idiom has.
func TestDecoderRoundtrip(t *testing.T) {
	var p []byte
	p = append(p, 1, 2, 3, 4, 5, 6, 7, 8, 0xab)
	p = append(p, 0xac, 0x02) // uvarint 300
	p = append(p, 2)          // count
	p = AppendString(p, "")
	p = AppendString(p, strings.Repeat("s", 200))
	p = AppendString(p, "\x00raw")

	d := NewDecoder(p)
	if v := d.U64(); v != 0x0807060504030201 {
		t.Fatalf("U64 = %#x", v)
	}
	if b := d.Byte(); b != 0xab {
		t.Fatalf("Byte = %#x", b)
	}
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if n := d.Count(); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if s := d.String(); s != "" {
		t.Fatalf("String = %q", s)
	}
	if s := d.String(); s != strings.Repeat("s", 200) {
		t.Fatalf("long String = %q", s)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	if b := d.Bytes(); string(b) != "\x00raw" {
		t.Fatalf("Bytes = %q", b)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderSticky: the first failure stops the decode — every later read
// is a zero value, even one the remaining bytes would satisfy — and Done
// names that first failure.
func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{10, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i'})
	if s := d.String(); s != "" {
		t.Fatalf("overlong string = %q", s)
	}
	if b := d.Byte(); b != 0 {
		t.Fatalf("Byte after failure = %q", b)
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("U64 after failure = %d", v)
	}
	if d.Len() != 0 {
		t.Fatalf("Len after failure = %d", d.Len())
	}
	err := d.Done()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad length at offset 0") {
		t.Fatalf("Done = %v, want the first failure (the length at offset 0)", err)
	}

	short := NewDecoder([]byte{1, 2, 3})
	short.U64()
	short.Uvarint()
	if err := short.Done(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad u64 at offset 0") {
		t.Fatalf("short U64: Done = %v", err)
	}
}

// TestDecoderCount: a count larger than the bytes left is corrupt and
// reads as 0, so no caller sizes an allocation from it.
func TestDecoderCount(t *testing.T) {
	d := NewDecoder([]byte{0xff, 0xff, 0x03, 1, 2})
	if n := d.Count(); n != 0 {
		t.Fatalf("overlong Count = %d, want 0", n)
	}
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong Count: Done = %v", err)
	}
	d = NewDecoder([]byte{2, 'x', 'y'})
	if n := d.Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

// TestDecoderTrailing: Done rejects bytes left unread.
func TestDecoderTrailing(t *testing.T) {
	d := NewDecoder([]byte{7, 0, 0})
	if b := d.Byte(); b != 7 {
		t.Fatalf("Byte = %d", b)
	}
	if err := d.Done(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Fatalf("Done = %v, want 2 trailing bytes", err)
	}
}

// TestReadIntoReusesAndDrops: back-to-back frames are read into one buffer
// without allocating, a frame that grows the buffer past 64 KiB is still
// read whole but the buffer is dropped after it, and the next small frame
// starts a small buffer again.
func TestReadIntoReusesAndDrops(t *testing.T) {
	small := encode("small frame")
	big := encode(strings.Repeat("b", 70<<10))
	var stream bytes.Buffer
	stream.Write(small)
	stream.Write(small)
	stream.Write(big)
	stream.Write(small)
	r := bytes.NewReader(stream.Bytes())
	var buf []byte
	read := func(want string) {
		t.Helper()
		payload, n, err := ReadInto(r, &buf, 1, 1<<20)
		if err != nil || n != HeaderSize+len(want) || string(payload) != want {
			t.Fatalf("ReadInto: %d bytes, %v; want the %d-byte frame", n, err, HeaderSize+len(want))
		}
	}
	read("small frame")
	arr := &buf[:1][0]
	read("small frame")
	if &buf[:1][0] != arr {
		t.Fatal("a small frame did not reuse the buffer")
	}
	read(strings.Repeat("b", 70<<10))
	if buf != nil {
		t.Fatalf("a %d-byte buffer was kept, want it dropped", cap(buf))
	}
	read("small frame")
	if cap(buf) > 4<<10 {
		t.Fatalf("the buffer after the drop has %d bytes", cap(buf))
	}

	frames := bytes.Repeat(small, 101)
	r = bytes.NewReader(frames)
	if allocs := testing.AllocsPerRun(100, func() { ReadInto(r, &buf, 1, 64) }); allocs != 0 {
		t.Fatalf("ReadInto into a warm buffer = %.1f allocs, want 0", allocs)
	}
}

// TestViewDecoder: the view decoder reads what the copying decoder reads,
// converts the payload once however many strings it holds — and not at
// all when they are all empty — and shares that string with its blocks.
func TestViewDecoder(t *testing.T) {
	var block []byte
	block = append(block, 5)
	block = AppendString(block, "inner")
	block = append(block, "rest"...)
	var p []byte
	p = AppendString(p, "")
	p = AppendString(p, "first")
	p = AppendString(p, "second")
	p = binary.AppendUvarint(p, uint64(len(block)))
	p = append(p, block...)

	type fields struct {
		empty, first, second string
		n                    uint64
		inner, rest          string
	}
	decode := func(d Decoder) (f fields, err error) {
		f.empty, f.first, f.second = d.String(), d.String(), d.String()
		b := d.Block()
		f.n, f.inner, f.rest = b.Uvarint(), b.String(), b.Rest()
		if err := b.Done(); err != nil {
			return f, err
		}
		return f, d.Done()
	}
	want, err := decode(NewDecoder(p))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(NewViewDecoder(p))
	if err != nil || got != want {
		t.Fatalf("view decode = %+v, %v; copy decode = %+v", got, err, want)
	}
	if want.inner != "inner" || want.rest != "rest" || want.n != 5 {
		t.Fatalf("decode = %+v", want)
	}
	ps := string(p)
	got, err = decode(NewStringDecoder(ps))
	if err != nil || got != want {
		t.Fatalf("string decode = %+v, %v; copy decode = %+v", got, err, want)
	}
	within := func(v string) bool {
		start := uintptr(unsafe.Pointer(unsafe.StringData(ps)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		return at >= start && at+uintptr(len(v)) <= start+uintptr(len(ps))
	}
	for _, v := range []string{got.first, got.second, got.inner, got.rest} {
		if !within(v) {
			t.Fatalf("string decode of %q is not a view of its payload", v)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { decode(NewStringDecoder(ps)) }); allocs != 0 {
		t.Fatalf("string decode = %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { decode(NewViewDecoder(p)) }); allocs != 1 {
		t.Fatalf("view decode = %.1f allocs, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { decode(NewDecoder(p)) }); allocs != 4 {
		t.Fatalf("copy decode = %.1f allocs, want 4, one per non-empty string", allocs)
	}
	empties := AppendString(AppendString(nil, ""), "")
	if allocs := testing.AllocsPerRun(100, func() {
		d := NewViewDecoder(empties)
		if d.String()+d.String() != "" {
			t.Fatal("an empty string decoded as non-empty")
		}
	}); allocs != 0 {
		t.Fatalf("view decode of empty strings = %.1f allocs, want 0", allocs)
	}
}
