package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/txn"
)

// ErrBadPageName reports a page object whose name is not the canonical
// "Page<decimal>" PageOID renders: two spellings of one page would reach
// one frame while the lock table saw two resources.
var ErrBadPageName = errors.New("core: not a canonical page object")

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
func (n *Names) Of(pid storage.PageID) string {
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

// pageNames is the page table. It is the package's, not an engine's:
// PageOID is a package function every module calls, and page ids are
// dense from 1 in every store, so engines share the low blocks.
var pageNames = NewNames("Page")

// PageOID renders a page id as an object id.
func PageOID(id storage.PageID) txn.OID {
	return txn.OID{Type: PageType, Name: pageNames.Of(id)}
}

// PageID parses a page object id. Only the canonical name is accepted:
// "Page" and the decimal page id without sign or leading zero.
func PageID(o txn.OID) (storage.PageID, error) {
	if n, ok := NameIndex(o.Name, "Page"); ok && o.Type == PageType {
		return storage.PageID(n), nil
	}
	return storage.InvalidPage, fmt.Errorf("%w: %v", ErrBadPageName, o)
}

// NameIndex parses a name made of prefix and a decimal without sign,
// leading zero or overflow: the one spelling each index has. A type that
// maps object names onto pages parses them with it, so no two names reach
// one page under two lock-table resources.
func NameIndex(name, prefix string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok || s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 || n > (1<<64-1-uint64(d))/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// PageBehind names the page behind an object named prefix+decimal(pid):
// the page table's name for a canonical pid, and "Page" plus the digits
// otherwise, which dispatch then refuses.
func PageBehind(self txn.OID, prefix string) txn.OID {
	if pid, ok := NameIndex(self.Name, prefix); ok {
		return PageOID(storage.PageID(pid))
	}
	return txn.OID{Type: PageType, Name: "Page" + strings.TrimPrefix(self.Name, prefix)}
}
