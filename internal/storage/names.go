package storage

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// Names renders the object names prefix+decimal(pid), each pid's name
// once. Names are made a block of namesPerBlock pids at a time, all
// sliced from one string, and published through an atomic pointer, so a
// lookup is one atomic load and an index. A pid past the table is
// rendered on every call.
type Names struct {
	prefix string
	blocks [namesBlocks]atomic.Pointer[[namesPerBlock]string]
}

const (
	namesPerBlock = 1024
	namesBlocks   = 1024
)

// NewNames returns an empty table for prefix.
func NewNames(prefix string) *Names { return &Names{prefix: prefix} }

// Of returns prefix+decimal(pid).
func (n *Names) Of(pid PageID) string {
	b := uint64(pid) / namesPerBlock
	if b >= namesBlocks {
		return n.prefix + strconv.FormatUint(uint64(pid), 10)
	}
	blk := n.blocks[b].Load()
	if blk == nil {
		blk = n.fill(b)
	}
	return blk[uint64(pid)%namesPerBlock]
}

// fill renders block b. Racing fillers render the same names; the first
// to publish wins.
func (n *Names) fill(b uint64) *[namesPerBlock]string {
	first := b * namesPerBlock
	last := strconv.FormatUint(first+namesPerBlock-1, 10)
	var sb strings.Builder
	sb.Grow(namesPerBlock * (len(n.prefix) + len(last)))
	var ends [namesPerBlock]int
	var digits [20]byte
	for i := range ends {
		sb.WriteString(n.prefix)
		sb.Write(strconv.AppendUint(digits[:0], first+uint64(i), 10))
		ends[i] = sb.Len()
	}
	all := sb.String()
	blk := new([namesPerBlock]string)
	start := 0
	for i, end := range ends {
		blk[i] = all[start:end]
		start = end
	}
	if n.blocks[b].CompareAndSwap(nil, blk) {
		return blk
	}
	return n.blocks[b].Load()
}
