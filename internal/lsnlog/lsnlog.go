// Package lsnlog holds the retention primitives of the engine's logs: Log
// keeps values by LSN, and Slab carves capped sub-slices from shared
// arrays.
//
// A Log keeps chunks of Chunk consecutive LSNs: a put never moves a value,
// and a chunk is one object where a map of values over 128 B allocates one
// per value. A zero slot is an absent LSN; a value carries its own LSN,
// and the caller checks it. A value pins what it points to until its slot
// is cleared (TrimBelow, CutAbove). A chunk is reused only once every slot
// in it is cleared: TrimBelow keeps the chunks it empties for later puts.
//
// A Slab carving pins its whole array. Carve in LSN order and keep the
// carvings in values a Log trims in LSN order: an array is then freed once
// the log's first LSN passes its last carving, and wastes at most the tail
// the next carving did not fit into. A holder that kept carvings out of
// that order would let one live carving pin an array of dead ones.
package lsnlog

// Chunk is the number of consecutive LSNs a Log chunk holds.
const Chunk = 256

// Log holds values by LSN. The zero Log is empty.
type Log[T any] struct {
	first  uint64      // the chunk number of chunks[0]
	chunks []*[Chunk]T // nil where no LSN of the chunk is held
	spare  []*[Chunk]T // cleared chunks TrimBelow emptied
}

// At returns lsn's slot, or nil when its chunk is not held. The pointer is
// valid until the slot is trimmed or cut.
func (l *Log[T]) At(lsn uint64) *T {
	if c := lsn/Chunk - l.first; c < uint64(len(l.chunks)) && l.chunks[c] != nil {
		return &l.chunks[c][lsn%Chunk]
	}
	return nil
}

// Put stores v at lsn, below the first chunk and past gaps too.
func (l *Log[T]) Put(lsn uint64, v T) {
	c := lsn / Chunk
	switch {
	case len(l.chunks) == 0:
		l.first = c
	case c < l.first:
		l.chunks = append(make([]*[Chunk]T, l.first-c), l.chunks...)
		l.first = c
	}
	for c-l.first >= uint64(len(l.chunks)) {
		l.chunks = append(l.chunks, nil)
	}
	ch := &l.chunks[c-l.first]
	if *ch == nil {
		if k := len(l.spare); k > 0 {
			*ch, l.spare = l.spare[k-1], l.spare[:k-1]
		} else {
			*ch = new([Chunk]T)
		}
	}
	(*ch)[lsn%Chunk] = v
}

// TrimBelow clears every slot below lsn and keeps the chunks it empties.
func (l *Log[T]) TrimBelow(lsn uint64) {
	c, k := lsn/Chunk, 0
	for ; k < len(l.chunks) && l.first+uint64(k) < c; k++ {
		if ch := l.chunks[k]; ch != nil {
			clear(ch[:])
			l.spare = append(l.spare, ch)
		}
	}
	n := copy(l.chunks, l.chunks[k:])
	clear(l.chunks[n:])
	l.chunks, l.first = l.chunks[:n], l.first+uint64(k)
	if n > 0 && l.first == c && l.chunks[0] != nil {
		clear(l.chunks[0][:lsn%Chunk])
	}
}

// CutAbove clears every slot above keep and drops the chunks it empties.
func (l *Log[T]) CutAbove(keep uint64) {
	n := len(l.chunks)
	for n > 0 && (l.first+uint64(n-1))*Chunk > keep {
		n--
	}
	clear(l.chunks[n:])
	l.chunks = l.chunks[:n]
	if n > 0 && l.first+uint64(n-1) == keep/Chunk && l.chunks[n-1] != nil {
		clear(l.chunks[n-1][keep%Chunk+1:])
	}
}

// SlabLen is the length of a Slab's arrays.
const SlabLen = 512

// Slab carves capped sub-slices (s[i:j:j]) from shared arrays, so no
// carving can grow into the next. The zero Slab is ready.
type Slab[T any] struct{ buf []T }

// Carve returns the next n zero values of the current array, starting an
// array of max(SlabLen, n) values when fewer than n are left. A nil Slab
// allocates each carving.
func (s *Slab[T]) Carve(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(SlabLen, n))
	}
	i, j := len(s.buf), len(s.buf)+n
	s.buf = s.buf[:j]
	return s.buf[i:j:j]
}
