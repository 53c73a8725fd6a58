// Package catalog provides the system catalog: a page-resident directory
// of the database's structural metadata (B+ tree roots, list heads,
// composite-object wiring), so that a restart — in particular crash
// recovery (internal/recovery) — can re-attach every structure without
// out-of-band knowledge. Real systems bootstrap the same way: a well-known
// catalog location, everything else reachable from it.
//
// The catalog is deliberately updated with REDO-ONLY semantics for root
// pointers: a B+ tree root split is a nested top action (it survives the
// enclosing transaction's abort), so the catalog's new root pointer must
// survive too. Under protocols that physically undo the catalog page, a
// reverted pointer still names a valid node whose B-links reach the whole
// tree, so stale pointers degrade performance, never correctness.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Errors.
var (
	ErrNotFound = errors.New("catalog: entry not found")
	ErrBadName  = errors.New("catalog: name contains a reserved character")
	ErrCorrupt  = errors.New("catalog: corrupt catalog page")
)

const reserved = "|;"

// Kind tags catalog entries.
type Kind string

// The entry kinds.
const (
	KindTree Kind = "tree"
	KindList Kind = "list"
	KindEnc  Kind = "enc"
)

// Entry is one catalog row.
type Entry struct {
	Kind   Kind
	Name   string
	Fields []string // kind-specific: tree → [maxKeys, rootPID]; list → [capacity, headPID]; enc → [fanout, spineCap]
}

// Catalog is the handle to a database's catalog page.
type Catalog struct {
	db   *core.DB
	page txn.OID

	mu sync.Mutex // serializes read-modify-write cycles on the page
}

// Install allocates the catalog page on a fresh database. Call it before
// installing any module so the page id is the well-known first page.
func Install(db *core.DB) (*Catalog, error) {
	pageOID := db.AllocPage()
	c := &Catalog{db: db, page: pageOID}
	tx := db.Begin()
	if _, err := tx.Exec(pageOID, "write", ""); err != nil {
		_ = tx.Abort()
		return nil, err
	}
	return c, tx.Commit()
}

// Attach opens the catalog of an existing (e.g. freshly recovered)
// database at the given page.
func Attach(db *core.DB, pid storage.PageID) *Catalog {
	return &Catalog{db: db, page: core.PageOID(pid)}
}

// PageID returns the catalog's page id (persist THIS one out of band; by
// convention it is the first allocated page).
func (c *Catalog) PageID() storage.PageID {
	pid, err := core.PageID(c.page)
	if err != nil {
		panic("catalog: invalid own page oid: " + err.Error())
	}
	return pid
}

func encodeEntries(entries []Entry) string {
	rows := make([]string, len(entries))
	for i, e := range entries {
		rows[i] = strings.Join(append([]string{string(e.Kind), e.Name}, e.Fields...), "|")
	}
	return strings.Join(rows, ";")
}

func decodeEntries(data string) ([]Entry, error) {
	if data == "" {
		return nil, nil
	}
	var out []Entry
	for _, row := range strings.Split(data, ";") {
		parts := strings.Split(row, "|")
		if len(parts) < 2 {
			return nil, fmt.Errorf("%w: row %q", ErrCorrupt, row)
		}
		out = append(out, Entry{Kind: Kind(parts[0]), Name: parts[1], Fields: parts[2:]})
	}
	return out, nil
}

// load reads the entries inside an existing transaction context.
func (c *Catalog) load(read func() (string, error)) ([]Entry, error) {
	data, err := read()
	if err != nil {
		return nil, err
	}
	return decodeEntries(data)
}

// Put inserts or replaces an entry, running in its own transaction.
func (c *Catalog) Put(e Entry) error {
	if strings.ContainsAny(e.Name, reserved) {
		return ErrBadName
	}
	for _, f := range e.Fields {
		if strings.ContainsAny(f, reserved) {
			return ErrBadName
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tx := c.db.Begin()
	if err := c.putIn(func(m string, p ...string) (string, error) { return tx.Exec(c.page, m, p...) }, e); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// PutCtx inserts or replaces an entry inside an existing method execution
// (used by structural updates such as root splits).
func (c *Catalog) PutCtx(cctx *core.Ctx, e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putIn(func(m string, p ...string) (string, error) { return cctx.Call(c.page, m, p...) }, e)
}

func (c *Catalog) putIn(call func(string, ...string) (string, error), e Entry) error {
	data, err := call("readx")
	if err != nil {
		return err
	}
	entries, err := decodeEntries(data)
	if err != nil {
		return err
	}
	replaced := false
	for i := range entries {
		if entries[i].Kind == e.Kind && entries[i].Name == e.Name {
			entries[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, e)
	}
	_, err = call("write", encodeEntries(entries))
	return err
}

// Entries returns all catalog rows, sorted by kind then name.
func (c *Catalog) Entries() ([]Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tx := c.db.Begin()
	entries, err := c.load(func() (string, error) { return tx.Exec(c.page, "read") })
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Kind != entries[j].Kind {
			return entries[i].Kind < entries[j].Kind
		}
		return entries[i].Name < entries[j].Name
	})
	return entries, nil
}

// Get returns one entry.
func (c *Catalog) Get(kind Kind, name string) (Entry, error) {
	entries, err := c.Entries()
	return find(entries, err, kind, name)
}

// GetCtx reads one entry inside an existing method execution.
func (c *Catalog) GetCtx(cctx *core.Ctx, kind Kind, name string) (Entry, error) {
	entries, err := c.load(func() (string, error) { return cctx.Call(c.page, "read") })
	return find(entries, err, kind, name)
}

func find(entries []Entry, err error, kind Kind, name string) (Entry, error) {
	if err != nil {
		return Entry{}, err
	}
	for _, e := range entries {
		if e.Kind == kind && e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("%w: %s %q", ErrNotFound, kind, name)
}

// --- typed helpers -----------------------------------------------------------

// TreeEntry builds a KindTree entry.
func TreeEntry(name string, maxKeys int, root storage.PageID) Entry {
	return Entry{Kind: KindTree, Name: name, Fields: []string{
		strconv.Itoa(maxKeys), strconv.FormatUint(uint64(root), 10),
	}}
}

// TreeFields parses a KindTree entry.
func TreeFields(e Entry) (maxKeys int, root storage.PageID, err error) {
	if e.Kind != KindTree || len(e.Fields) != 2 {
		return 0, 0, fmt.Errorf("%w: tree entry %v", ErrCorrupt, e)
	}
	maxKeys, err = strconv.Atoi(e.Fields[0])
	if err != nil {
		return 0, 0, err
	}
	r, err := strconv.ParseUint(e.Fields[1], 10, 64)
	return maxKeys, storage.PageID(r), err
}

// ListEntry builds a KindList entry.
func ListEntry(name string, capacity int, head storage.PageID) Entry {
	return Entry{Kind: KindList, Name: name, Fields: []string{
		strconv.Itoa(capacity), strconv.FormatUint(uint64(head), 10),
	}}
}

// ListFields parses a KindList entry.
func ListFields(e Entry) (capacity int, head storage.PageID, err error) {
	if e.Kind != KindList || len(e.Fields) != 2 {
		return 0, 0, fmt.Errorf("%w: list entry %v", ErrCorrupt, e)
	}
	capacity, err = strconv.Atoi(e.Fields[0])
	if err != nil {
		return 0, 0, err
	}
	h, err := strconv.ParseUint(e.Fields[1], 10, 64)
	return capacity, storage.PageID(h), err
}

// EncEntry builds a KindEnc entry.
func EncEntry(name string, fanout, spineCap int) Entry {
	return Entry{Kind: KindEnc, Name: name, Fields: []string{
		strconv.Itoa(fanout), strconv.Itoa(spineCap),
	}}
}

// EncFields parses a KindEnc entry.
func EncFields(e Entry) (fanout, spineCap int, err error) {
	if e.Kind != KindEnc || len(e.Fields) != 2 {
		return 0, 0, fmt.Errorf("%w: enc entry %v", ErrCorrupt, e)
	}
	fanout, err = strconv.Atoi(e.Fields[0])
	if err != nil {
		return 0, 0, err
	}
	spineCap, err = strconv.Atoi(e.Fields[1])
	return fanout, spineCap, err
}
