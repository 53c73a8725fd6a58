// Package frame owns the one record format the log, the network protocol
// and checkpoints share: WAL segments (internal/storage), wire messages
// (internal/wire) and checkpoint files (internal/checkpoint) are sequences
// of self-delimiting frames
//
//	| length u32 | crc32c u32 | payload (length bytes) |
//
// length counts the payload only; crc32c (Castagnoli) covers the payload
// only, so a frame cut short by a crash or a dying peer fails the checksum
// instead of decoding garbage. Each caller bounds length to [min, max]:
// min is its smallest possible payload (at least 1, so a zero-filled tail —
// the preallocated-file artifact — never parses as a run of empty frames),
// max keeps a damaged length from becoming an allocation request.
//
// The torn/corrupt rule, shared by Parse and Read:
//
//   - a short header or a short payload is torn (ErrTorn): the bytes ended
//     mid-frame, as a crash or a cut connection leaves them;
//   - a length outside [min, max] or a checksum mismatch is corrupt
//     (ErrCorrupt): the bytes are there but are not a frame;
//   - Read returns io.EOF as is when the stream ends between frames, and
//     keeps any other read error in the %w chain (a server tells an idle
//     deadline from a dead peer through it).
//
// What a caller does with the two classes is its policy: the WAL treats
// any frame error in a segment as the torn tail, the wire protocol drops
// the connection.
//
// Payloads follow one idiom, which Decoder reads and AppendString and the
// encoding/binary append functions write: fixed-width integers are
// little-endian, counts are uvarints, and strings are uvarint-length-
// prefixed bytes.
//
// # One allocation per message, and what it pins
//
// A connection reads every frame into one buffer it keeps (ReadInto), and
// a NewViewDecoder converts a payload to a string once, from its first
// non-empty string to its end, returning every string field as a substring
// of it. Any one field then keeps all that alive. Wire messages and WAL
// records decode this way; checkpoints do not, since their one payload
// holds every page. A frame that is already a string, such as a record
// frame carried as one field of a replication message, is parsed by
// ParseString and decoded by a NewStringDecoder, whose strings are
// substrings of it: no conversion at all. Who keeps a decoded string past
// its message, and what that pins:
//
//	keeper                               pins
//	invoke fields: the action record,    its invoke message: its fields and
//	  retained trace records (<= 2         a byte per field, ~20 B more with
//	  params by value), formal-trace       a trace id; a page write's data
//	  events, page data and WAL records    pins its message the same way
//	a trace id: the session span         its BEGIN message (no other string)
//	lock-table keys (object type, name)  nothing: the server clones them
//	list append hints (list.where keys)  nothing: cloned when inserted
//	the client's Result and Tx id        the reply, which is nearly all Result
//	repl follower entries: the record,   their append message (<= 128
//	  the frame it was appended as,        records): each entry is a view of
//	  standby pages redone from it         it, decoded by a NewStringDecoder
//	                                       from ParseString's payload; their
//	                                       Refs pin slab arrays in LSN order
//	                                       (DESIGN §4b.34 has the entry
//	                                       cache's retention table)
//	repl leader cached frames            their own frame: encoded once for
//	                                       the segment and the followers,
//	                                       dropped once every peer holds it
//	                                       or it is maxAppendBatch below the
//	                                       commit index
//	repl leader id and address, a        nothing: the repl block is read as
//	  candidate's id: every ReplExt        bytes, never viewed; its strings
//	  string                               are cloned when they change
//	                                       (wire.ReadMsgBuf into a kept
//	                                       ReplExt)
//	recovered WAL records                their own record only, never the
//	                                       segment or the batch read
//	checkpoint pages and active ids      nothing: copied one by one
//
// A site where a small string would outlive a large frame clones it. A
// trim of the repl entry cache (which today keeps every entry) would make
// follower entries such a site: the entries and standby pages it keeps
// past their message's other entries must be cloned.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"unsafe"
)

// HeaderSize is the length + checksum prefix of every frame.
const HeaderSize = 8

// Frame errors; see the package doc for which is which. Neither is ever a
// panic, whatever the input.
var (
	ErrTorn    = errors.New("frame: torn")
	ErrCorrupt = errors.New("frame: corrupt")
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Begin reserves a frame header at the end of dst. The caller appends the
// payload to the returned slice in place, then calls End with start.
func Begin(dst []byte) (_ []byte, start int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// End fills in the header Begin reserved at start: everything appended
// after it is the payload.
func End(dst []byte, start int) []byte {
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Parse checks the first frame in buf and returns its payload (aliasing
// buf) and the frame's size, header included.
func Parse(buf []byte, min, max int) (payload []byte, n int, err error) {
	if n, err = check(buf, min, max); err != nil {
		return nil, 0, err
	}
	return buf[HeaderSize:n], n, nil
}

// ParseString is Parse over a string: the payload is a substring of s, so
// it, and every string a NewStringDecoder reads from it, keeps s alive.
func ParseString(s string, min, max int) (payload string, n int, err error) {
	if n, err = check(readOnly(s), min, max); err != nil {
		return "", 0, err
	}
	return s[HeaderSize:n], n, nil
}

// check applies the torn/corrupt rule to the first frame in buf and
// returns its size, header included.
func check(buf []byte, min, max int) (int, error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("%w: %d header bytes", ErrTorn, len(buf))
	}
	length := binary.LittleEndian.Uint32(buf)
	if uint64(length) < uint64(min) || uint64(length) > uint64(max) {
		return 0, lengthError(length, min, max)
	}
	if uint64(length) > uint64(len(buf)-HeaderSize) {
		return 0, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, len(buf)-HeaderSize, length)
	}
	n := HeaderSize + int(length)
	if crc32.Checksum(buf[HeaderSize:n], castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return 0, errChecksum
	}
	return n, nil
}

// readOnly returns s's bytes without a copy. Nothing writes through the
// slice it returns: every caller in this package only reads it (checksums,
// integer fields, uvarints), and no function hands it out writable, since
// a write would change an immutable string under its other holders.
func readOnly(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Read reads exactly one frame from r and returns its payload and the
// frame's size, header included. The payload is a fresh array.
func Read(r io.Reader, min, max int) (payload []byte, n int, err error) {
	var buf []byte
	return ReadInto(r, &buf, min, max)
}

// dropAbove is the capacity past which ReadInto lets a buffer go after the
// frame that grew it, so an idle connection does not pin its largest
// message. wire.WriteMsgBuf drops an encode buffer at the same size.
const dropAbove = 64 << 10

// ReadInto is Read into *buf, an array the caller keeps from frame to
// frame (one per connection): the header and the payload are read into
// it, so a frame that fits costs no allocation. The payload aliases *buf
// and is valid until the next ReadInto on it; a caller that keeps any of
// it copies first (NewViewDecoder's one string does). A buffer grown past
// 64 KiB still serves the frame that grew it, but is dropped from *buf.
func ReadInto(r io.Reader, buf *[]byte, min, max int) (payload []byte, n int, err error) {
	b := slices.Grow((*buf)[:0], HeaderSize)[:HeaderSize]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: header: %w", ErrTorn, err)
	}
	length := binary.LittleEndian.Uint32(b)
	if uint64(length) < uint64(min) || uint64(length) > uint64(max) {
		return nil, 0, lengthError(length, min, max)
	}
	n = HeaderSize + int(length)
	b = slices.Grow(b, int(length))[:n]
	*buf = b
	if cap(b) > dropAbove {
		*buf = nil
	}
	payload = b[HeaderSize:n:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: payload: %w", ErrTorn, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, errChecksum
	}
	return payload, n, nil
}

func lengthError(length uint32, min, max int) error {
	return fmt.Errorf("%w: payload length %d outside [%d, %d]", ErrCorrupt, length, min, max)
}

var errChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// AppendString appends s uvarint-length-prefixed — the form Decoder.String
// and Decoder.Bytes read back.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decoder reads a checksum-verified payload field by field. Its error is
// sticky: the first field that does not fit stops the decode, every later
// read returns a zero value, and Done reports that first failure. A caller
// reads every field unconditionally and checks once, at the end.
type Decoder struct {
	// Reads advance off only: an integer store needs no GC write barrier,
	// where re-slicing buf through the pointer receiver would.
	buf []byte
	off int    // bytes read; len(buf) after a failure
	bad string // the first field that failed; "" while healthy
	at  int    // its offset in the payload
	// views marks a NewViewDecoder: s is buf[base:] converted to a string
	// at the first non-empty string read, which starts at base, and every
	// string is a substring of it. A NewStringDecoder starts with s set to
	// its whole payload, base 0, so nothing is ever converted.
	views bool
	s     string
	base  int
}

// NewDecoder returns a Decoder over payload whose strings are copies, each
// its own allocation: what it decodes pins nothing of payload.
func NewDecoder(payload []byte) Decoder {
	return Decoder{buf: payload}
}

// NewViewDecoder returns a Decoder whose strings are views of one string:
// the payload is converted once, from the first non-empty string read to
// its end, so a message costs one allocation however many fields it has,
// and none when every string in it is empty. Any one string it returns
// keeps that whole string alive. Use it where the payload is one message or one record
// (see the retention table in the package doc), not where one payload
// carries many independent values.
func NewViewDecoder(payload []byte) Decoder {
	return Decoder{buf: payload, views: true}
}

// NewStringDecoder returns a Decoder over a payload that is already a
// string (ParseString's): every string it returns is a substring of
// payload, so decoding allocates nothing, and any one string it returns
// keeps payload, and whatever payload is a substring of, alive. Bytes
// returns a view of the string that must not be written.
func NewStringDecoder(payload string) Decoder {
	return Decoder{buf: readOnly(payload), views: true, s: payload}
}

func (d *Decoder) fail(field string) {
	if d.bad == "" {
		d.bad, d.at = field, d.off
	}
	d.off = len(d.buf)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if len(d.buf)-d.off < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	v, w := binary.Uvarint(d.buf[d.off:])
	if w <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += w
	return v
}

// Count reads a uvarint element count. Every element takes at least one
// byte, so a count beyond the bytes left is corrupt — the caller may size
// a slice or map from the result without trusting the input.
func (d *Decoder) Count() int { return d.prefix("count") }

// Bytes reads uvarint-length-prefixed bytes. The result aliases the
// payload (under NewStringDecoder, a string: read it only); String
// copies or, under NewViewDecoder and NewStringDecoder, views.
func (d *Decoder) Bytes() []byte {
	n := d.prefix("length")
	d.off += n
	return d.buf[d.off-n : d.off : d.off]
}

// Block reads uvarint-length-prefixed bytes as a Decoder of their own (an
// extension block), with offsets counted from the block's start. Under
// NewViewDecoder the block's strings are views of the same one string.
func (d *Decoder) Block() Decoder {
	n := d.prefix("length")
	d.off += n
	sub := Decoder{buf: d.buf[d.off-n : d.off : d.off], views: d.views}
	if d.views && n > 0 {
		sub.s = d.view(d.off-n, d.off)
	}
	return sub
}

// prefix reads a uvarint that may not exceed the bytes left after it.
func (d *Decoder) prefix(field string) int {
	n, w := binary.Uvarint(d.buf[d.off:])
	if w <= 0 || n > uint64(len(d.buf)-d.off-w) {
		d.fail(field)
		return 0
	}
	d.off += w
	return int(n)
}

// String reads a uvarint-length-prefixed string.
func (d *Decoder) String() string { return d.str(d.prefix("length")) }

// Rest reads every unread byte as a string: a block's unprefixed last field.
func (d *Decoder) Rest() string { return d.str(d.Len()) }

// str reads the next n bytes, which the caller has bounds-checked, as a
// string.
func (d *Decoder) str(n int) string {
	d.off += n
	switch {
	case n == 0:
		return ""
	case d.views:
		return d.view(d.off-n, d.off)
	}
	return string(d.buf[d.off-n : d.off])
}

// view returns buf[start:end] as a substring of d.s, converting
// buf[start:] on first use. Reads only move forward, so no later view
// starts before the first.
func (d *Decoder) view(start, end int) string {
	if d.s == "" {
		d.base, d.s = start, string(d.buf[start:])
	}
	return d.s[start-d.base : end-d.base]
}

// Len returns the number of unread bytes (0 after a failure).
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Done ends the decode: it returns the first failure, or ErrCorrupt when
// bytes are left unread, or nil.
func (d *Decoder) Done() error {
	switch {
	case d.bad != "":
		return fmt.Errorf("%w: bad %s at offset %d", ErrCorrupt, d.bad, d.at)
	case d.Len() > 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
	}
	return nil
}
