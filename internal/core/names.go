package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/storage"
	"repro/internal/txn"
)

// ErrBadPageName reports a page object whose name is not the canonical
// "Page<decimal>" PageOID renders: two spellings of one page would reach
// one frame while the lock table saw two resources.
var ErrBadPageName = errors.New("core: not a canonical page object")

// Names renders the object names prefix+decimal(pid), each pid's name
// once (storage.Names).
type Names = storage.Names

// NewNames returns an empty table for prefix.
func NewNames(prefix string) *Names { return storage.NewNames(prefix) }

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
