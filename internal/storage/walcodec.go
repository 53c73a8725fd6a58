package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/frame"
	"repro/internal/lsnlog"
)

// WAL record format. Each record is one frame (internal/frame: length,
// crc32c, payload, and the torn/corrupt rule) whose payload is:
//
//	LSN u64 | Kind u8 | flags u8 (bit0 = CLR) | Page u64 |
//	Owner, Before, After, Note as uvarint-length-prefixed strings |
//	uvarint ref count | refs as uvarints

const (
	// maxWALRecordSize bounds a single record's payload; anything larger in
	// a length prefix is treated as a torn or corrupt frame, not an
	// allocation request.
	maxWALRecordSize = 16 << 20
	// recPayloadMin is the smallest possible payload: the fixed fields plus
	// four empty strings and an empty ref list.
	recPayloadMin = 8 + 1 + 1 + 8 + 4 + 1
)

// ErrRecordCorrupt marks a frame whose checksum passed but whose payload
// does not decode — real corruption, never produced by a torn write.
var ErrRecordCorrupt = errors.New("storage: WAL record corrupt")

const recFlagCLR = 1 << 0

// EncodeRecordFrame encodes rec as one framed record appended to dst —
// the exact bytes a FileWAL segment holds. Replication ships these frames
// verbatim, so a follower's segment files are byte-identical to the
// leader's (waldump -compare relies on this).
func EncodeRecordFrame(dst []byte, rec Record) []byte {
	ownerLen := rec.Owner.idLen()
	dst = slices.Grow(dst, frame.HeaderSize+payloadSize(&rec, ownerLen))
	dst, start := frame.Begin(dst)
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	var flags byte
	if rec.CLR {
		flags |= recFlagCLR
	}
	dst = append(dst, byte(rec.Kind), flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Page))
	// The owner is rendered straight into the frame (frame.AppendString's
	// bytes).
	dst = rec.Owner.appendID(binary.AppendUvarint(dst, uint64(ownerLen)))
	for _, s := range [...]string{rec.Before, rec.After, rec.Note} {
		dst = frame.AppendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Refs)))
	for _, ref := range rec.Refs {
		dst = binary.AppendUvarint(dst, ref)
	}
	return frame.End(dst, start)
}

// DecodeRecordFrame parses the first framed record in buf, returning the
// record and the number of bytes consumed. Every failure — a buffer ending
// mid-frame included — wraps ErrRecordCorrupt: the transport already
// guarantees integrity, so a bad frame here is a bug, not a torn write.
func DecodeRecordFrame(buf []byte) (Record, int, error) {
	payload, n, err := frame.Parse(buf, recPayloadMin, maxWALRecordSize)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %w", ErrRecordCorrupt, err)
	}
	rec, err := decodeRecordPayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// DecodeRecordFrameString is DecodeRecordFrame over a string, with the
// same checks and errors: the record's strings are substrings of s, so
// decoding allocates nothing beyond Refs, and a kept field keeps s alive.
// A replication follower decodes an append message's entries this way,
// each a view of the one string the message was read into.
//
// Refs are carved from refs, a slab the caller keeps from record to
// record, as the WAL carves the Refs it builds: a record's Refs then pin
// their array, so a caller that passes refs keeps the records it decodes
// in decode order (the lsnlog retention rule). A nil refs allocates each
// record's Refs.
func DecodeRecordFrameString(s string, refs *lsnlog.Slab[uint64]) (Record, int, error) {
	payload, n, err := frame.ParseString(s, recPayloadMin, maxWALRecordSize)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %w", ErrRecordCorrupt, err)
	}
	rec, err := decodeRecord(frame.NewStringDecoder(payload), refs)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// RecordEncoder encodes records into one buffer it keeps and returns each
// frame as a string of its own, EncodeRecordFrame's bytes: one allocation
// per record. It is not safe for concurrent use; each owner guards its
// own.
type RecordEncoder struct{ buf []byte }

// Frame returns rec's frame.
func (e *RecordEncoder) Frame(rec Record) string {
	e.buf = EncodeRecordFrame(e.buf[:0], rec)
	s := string(e.buf)
	if cap(e.buf) > 64<<10 {
		e.buf = nil // do not keep the largest record's buffer
	}
	return s
}

// decodeRecordPayload parses a checksum-verified payload back into a
// Record. Errors wrap ErrRecordCorrupt: the frame was intact on disk but
// its contents are not a record. The record's strings are views of one
// copy of its own payload (frame.NewViewDecoder): a record costs one
// allocation plus its Refs, and a kept field pins that record only, never
// the segment or the batch it was read from.
func decodeRecordPayload(payload []byte) (Record, error) {
	return decodeRecord(frame.NewViewDecoder(payload), nil)
}

// decodeRecord reads a record's fields through d, carving Refs from refs
// (a nil refs allocates them). A payload the encoder
// would not have written — a flag bit it does not set, or a length, count
// or ref in a longer uvarint than needed — is corrupt, so every record
// decoded re-encodes to the bytes it was read from.
func decodeRecord(d frame.Decoder, refs *lsnlog.Slab[uint64]) (Record, error) {
	size := d.Len()
	rec := Record{LSN: d.U64(), Kind: RecordKind(d.Byte())}
	flags := d.Byte()
	rec.CLR = flags&recFlagCLR != 0
	rec.Page = PageID(d.U64())
	owner := d.String()
	rec.Owner, rec.Before, rec.After, rec.Note = ParseOwner(owner), d.String(), d.String(), d.String()
	if n := d.Count(); n > 0 {
		rec.Refs = refs.Carve(n)
		for i := range rec.Refs {
			rec.Refs[i] = d.Uvarint()
		}
	}
	if err := d.Done(); err != nil {
		return Record{}, fmt.Errorf("%w: %w", ErrRecordCorrupt, err)
	}
	if flags&^recFlagCLR != 0 || payloadSize(&rec, len(owner)) != size {
		return Record{}, fmt.Errorf("%w: not in its canonical encoding", ErrRecordCorrupt)
	}
	return rec, nil
}

// payloadSize returns the length of rec's payload, its owner's rendered id
// being ownerLen bytes long.
func payloadSize(rec *Record, ownerLen int) int {
	n := 8 + 1 + 1 + 8 + uvarintLen(uint64(ownerLen)) + ownerLen
	for _, s := range [...]string{rec.Before, rec.After, rec.Note} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	n += uvarintLen(uint64(len(rec.Refs)))
	for _, ref := range rec.Refs {
		n += uvarintLen(ref)
	}
	return n
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
