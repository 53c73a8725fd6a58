package lsnlog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// val is a log value that carries its LSN, as the engine's records do.
type val struct {
	lsn uint64
	s   string
}

// span is the LSN range the model tests use: six chunks.
const span = 6 * Chunk

// model is a Log beside the map it must behave as.
type model struct {
	l Log[val]
	m map[uint64]string
}

func newModel() *model { return &model{m: make(map[uint64]string)} }

func (m *model) put(lsn uint64, s string) {
	m.l.Put(lsn, val{lsn, s})
	m.m[lsn] = s
}

func (m *model) trimBelow(lsn uint64) {
	m.l.TrimBelow(lsn)
	for k := range m.m {
		if k < lsn {
			delete(m.m, k)
		}
	}
}

func (m *model) cutAbove(keep uint64) {
	m.l.CutAbove(keep)
	for k := range m.m {
		if k > keep {
			delete(m.m, k)
		}
	}
}

// check compares every LSN of the span: a slot whose LSN is not its own is
// absent.
func (m *model) check(t testing.TB, step string) {
	t.Helper()
	for lsn := uint64(1); lsn < span; lsn++ {
		v, want := m.l.At(lsn), m.m[lsn]
		got, ok := "", v != nil && v.lsn == lsn
		if ok {
			got = v.s
		}
		if _, held := m.m[lsn]; ok != held || got != want {
			t.Fatalf("%s: At(%d) = %+v, model %q (held %v)", step, lsn, v, want, held)
		}
	}
}

// TestLog: the chunked log behaves as a map from LSN to value would, under
// puts in order, overwrites, puts below the first chunk and past gaps,
// trims and cuts.
func TestLog(t *testing.T) {
	rr := rand.New(rand.NewSource(1))
	m := newModel()
	next := uint64(2*Chunk + 5)
	for step := 0; step < 3000; step++ {
		switch r := rr.Intn(100); {
		case r < 75:
			m.put(next, fmt.Sprint("f", next, "-", step))
			next = min(next+1, span-1)
		case r < 85:
			lsn := 1 + uint64(rr.Intn(int(next)))
			m.put(lsn, fmt.Sprint("o", lsn, "-", step))
		case r < 90:
			m.trimBelow(uint64(rr.Intn(int(next) + 1)))
		case r < 97:
			keep := uint64(rr.Intn(int(next) + Chunk))
			m.cutAbove(keep)
			next = keep + 1 + uint64(rr.Intn(3))
		default:
			m.l = Log[val]{}
			clear(m.m)
		}
		if step%50 == 0 {
			m.check(t, fmt.Sprint("step ", step))
		}
	}
	m.check(t, "end")
}

func (m *model) fill(from, to uint64) {
	for lsn := from; lsn <= to; lsn++ {
		m.put(lsn, fmt.Sprint("v", lsn))
	}
}

// TestLogTrimBelow: a trim clears the slots below its LSN in the chunk it
// lands in, and empties the whole chunks below that one.
func TestLogTrimBelow(t *testing.T) {
	m := newModel()
	m.fill(1, 3*Chunk+10)
	m.trimBelow(Chunk + 7) // mid-chunk
	m.check(t, "mid-chunk trim")
	if len(m.l.chunks) != 3 || len(m.l.spare) != 1 {
		t.Fatalf("after a trim into chunk 1: %d chunks, %d spare; want 3 and 1", len(m.l.chunks), len(m.l.spare))
	}
	if v := m.l.At(Chunk + 6); v == nil || *v != (val{}) {
		t.Fatalf("slot below the trim holds %+v, want it cleared", v)
	}
	m.trimBelow(3*Chunk + 3) // across chunks
	m.check(t, "trim across chunks")
	if len(m.l.chunks) != 1 || len(m.l.spare) != 3 {
		t.Fatalf("after a trim into chunk 3: %d chunks, %d spare; want 1 and 3", len(m.l.chunks), len(m.l.spare))
	}
	for _, ch := range m.l.spare {
		if *ch != ([Chunk]val{}) {
			t.Fatal("a spare chunk is not cleared")
		}
	}
}

// TestLogReusesTrimmedChunks: once trims have emptied chunks, a log that
// moves forward puts into them and allocates nothing.
func TestLogReusesTrimmedChunks(t *testing.T) {
	var l Log[val]
	next := uint64(1)
	fill := func() {
		for i := 0; i < Chunk; i++ {
			l.Put(next, val{lsn: next})
			next++
		}
		l.TrimBelow(next - 1)
	}
	fill()
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("a chunk's worth of puts and a trim allocate %v objects, want 0", allocs)
	}
	if len(l.chunks) != 1 || len(l.spare) != 1 {
		t.Fatalf("%d chunks and %d spare, want 1 and 1", len(l.chunks), len(l.spare))
	}
}

// TestLogPutBelowTrim: a put below the first chunk after a trim holds
// its chunk again, and leaves the chunks between unheld.
func TestLogPutBelowTrim(t *testing.T) {
	m := newModel()
	m.fill(3*Chunk, 4*Chunk)
	m.trimBelow(3*Chunk + 5)
	m.put(10, "low")
	m.check(t, "put below the trim")
	if m.l.At(Chunk+5) != nil || m.l.first != 0 || len(m.l.chunks) != 5 {
		t.Fatalf("first chunk %d, %d chunks; want 0 and 5 with chunk 1 unheld", m.l.first, len(m.l.chunks))
	}
}

// TestLogCutAboveToEmpty: a cut below every held LSN empties the log,
// which then takes puts anywhere.
func TestLogCutAboveToEmpty(t *testing.T) {
	m := newModel()
	m.fill(Chunk+44, 3*Chunk+9)
	m.cutAbove(Chunk + 43)
	m.check(t, "cut to the first held LSN")
	m.cutAbove(0)
	m.check(t, "cut to empty")
	if len(m.l.chunks) != 0 {
		t.Fatalf("%d chunks after the cut, want 0", len(m.l.chunks))
	}
	m.fill(5*Chunk, 5*Chunk+3)
	m.put(7, "low")
	m.check(t, "puts after the cut")
}

// FuzzLog drives the map model from fuzz bytes: each three bytes are an
// operation and an LSN in the span.
func FuzzLog(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 255, 3, 3, 0, 1})
	f.Add([]byte{0, 0, 5, 2, 0, 4, 1, 3, 0, 3, 200, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel()
		for i := 0; i+3 <= len(data); i += 3 {
			lsn := uint64(binary.LittleEndian.Uint16(data[i+1:])) % span
			switch data[i] % 5 {
			case 0, 1:
				if lsn > 0 {
					m.put(lsn, fmt.Sprint(i))
				}
			case 2:
				m.trimBelow(lsn)
			case 3:
				m.cutAbove(lsn)
			case 4:
				m.l = Log[val]{}
				clear(m.m)
			}
			m.check(t, fmt.Sprint("op ", i/3))
		}
	})
}

// TestSlab: carvings are consecutive in one array and capped at their
// length; one that does not fit starts a new array, of its own length
// when longer than SlabLen.
func TestSlab(t *testing.T) {
	var s Slab[uint64]
	a, b := s.Carve(2), s.Carve(3)
	if cap(a) != 2 || len(b) != 3 || cap(b) != 3 ||
		uintptr(unsafe.Pointer(&b[0])) != uintptr(unsafe.Pointer(&a[1]))+unsafe.Sizeof(a[0]) {
		t.Fatal("carvings are not consecutive and capped")
	}
	s.Carve(SlabLen - 6)
	if c := s.Carve(2); cap(s.buf) != SlabLen || &c[0] != &s.buf[0] {
		t.Fatal("a carving that did not fit did not start a new array")
	}
	if big := s.Carve(SlabLen + 1); len(big) != SlabLen+1 || cap(s.buf) != SlabLen+1 {
		t.Fatalf("an oversized carving took an array of %d", cap(s.buf))
	}
}
