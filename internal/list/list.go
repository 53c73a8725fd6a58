// Package list implements the encyclopedia's second access path (Figure 2):
// a linked list of item references layered over spine pages,
//
//	LinkedList.readSeq() → Page.read ...
//	LinkedList.append(k, ref) → Page.readx / Page.write
//
// The list carries (key, reference) pairs in append order; the encyclopedia
// treats it as a set of items, which is what justifies the commutativity of
// appends with distinct keys (the sequential reader returns items, not
// positions).
package list

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Type is the object type name of linked lists.
const Type = "linkedlist"

// Errors.
var (
	ErrBadKey      = errors.New("list: key or ref contains a reserved character")
	ErrUnknownList = errors.New("list: unknown list")
	ErrCorrupt     = errors.New("list: corrupt spine page")
)

const reserved = "|=,;:"

func valid(s string) bool { return s != "" && !strings.ContainsAny(s, reserved) }

// Spec is the commutativity specification of the list type: appends and
// removes of distinct keys commute; the sequential reader conflicts with
// every mutator; reads commute.
func Spec() commut.Spec {
	base := commut.NewMatrix().
		SetCommutes("readSeq", "readSeq").
		SetConflicts("readSeq", "append").
		SetConflicts("readSeq", "remove")
	spec := commut.NewParamSpec(base)
	sameKey := func(a, b commut.Invocation) bool { return a.Param(0) != b.Param(0) }
	for _, m1 := range []string{"append", "remove"} {
		for _, m2 := range []string{"append", "remove"} {
			spec.Rule(m1, m2, sameKey)
		}
	}
	return spec
}

// Module owns the list object type of one DB.
type Module struct {
	db  *core.DB
	cat *catalog.Catalog

	mu    sync.Mutex
	lists map[string]*List
}

// SetCatalog makes the module record list metadata in the system catalog.
func (m *Module) SetCatalog(cat *catalog.Catalog) { m.cat = cat }

// AttachFromCatalog re-binds to a list whose metadata lives in the catalog.
func (m *Module) AttachFromCatalog(cat *catalog.Catalog, name string) (*List, error) {
	e, err := cat.Get(catalog.KindList, name)
	if err != nil {
		return nil, err
	}
	capacity, head, err := catalog.ListFields(e)
	if err != nil {
		return nil, err
	}
	return m.Attach(name, capacity, head)
}

// List is one linked list instance.
type List struct {
	name     string
	oid      txn.OID
	capacity int // keys per spine page

	// mu protects head/tail/where. It is never held across engine calls — a
	// Go mutex held while waiting for a database lock could deadlock with a
	// 2PL transaction holding that lock until commit.
	mu   sync.Mutex
	head storage.PageID
	tail storage.PageID
	// where maps a key to the spine page its latest append wrote. It is
	// only a hint: recovery never sees it and physical undo does not reset
	// it, so removeMethod checks it on use and walks from head on a miss.
	// It holds at most one entry per key appended and not yet removed.
	where map[string]storage.PageID
}

// OID returns the list's object id.
func (l *List) OID() txn.OID { return l.oid }

// Install registers the list object type.
func Install(db *core.DB) (*Module, error) {
	m := &Module{db: db, lists: make(map[string]*List)}
	typ := &core.ObjectType{
		Name: Type,
		Spec: Spec(),
		ReadOnly: map[string]bool{
			"readSeq": true,
		},
		Methods: map[string]core.MethodFunc{
			"append":  m.appendMethod,
			"remove":  m.removeMethod,
			"readSeq": m.readSeqMethod,
		},
		Compensate: map[string]core.CompensateFunc{
			// append(k, ref): undo by removing the key.
			"append": func(params []string, result string) (string, []string, bool) {
				return "remove", []string{params[0]}, true
			},
			// remove(k) returns the removed ref ("" when absent).
			"remove": func(params []string, result string) (string, []string, bool) {
				if result == "" {
					return "", nil, false
				}
				return "append", []string{params[0], result}, true
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		return nil, err
	}
	return m, nil
}

// NewList creates a list with the given spine-page capacity.
func (m *Module) NewList(name string, capacity int) (*List, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("list: capacity must be >= 1, got %d", capacity)
	}
	if !valid(name) {
		return nil, ErrBadKey
	}
	m.mu.Lock()
	if _, dup := m.lists[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("list: list %q already exists", name)
	}
	m.mu.Unlock()

	headOID := m.db.AllocPage()
	headPID, err := core.PageID(headOID)
	if err != nil {
		return nil, err
	}
	tx := m.db.Begin()
	if _, err := tx.Exec(headOID, "write", emptySpine); err != nil {
		_ = tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	l := newList(name, capacity, headPID)
	if m.cat != nil {
		if err := m.cat.Put(catalog.ListEntry(name, capacity, headPID)); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.lists[name] = l
	m.mu.Unlock()
	return l, nil
}

// Attach re-binds to an existing list after a restart: head is the spine
// page NewList allocated (persisted by the application's catalog). The
// tail hint starts at the head and catches up lazily; the key hint starts
// empty, so removes walk from the head until keys are appended again.
func (m *Module) Attach(name string, capacity int, head storage.PageID) (*List, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("list: capacity must be >= 1, got %d", capacity)
	}
	if !valid(name) {
		return nil, ErrBadKey
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.lists[name]; dup {
		return nil, fmt.Errorf("list: list %q already exists", name)
	}
	l := newList(name, capacity, head)
	m.lists[name] = l
	return l, nil
}

func newList(name string, capacity int, head storage.PageID) *List {
	return &List{
		name: name, oid: txn.OID{Type: Type, Name: name}, capacity: capacity,
		head: head, tail: head, where: make(map[string]storage.PageID),
	}
}

// Get returns a created list by name.
func (m *Module) Get(name string) (*List, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.lists[name]
	return l, ok
}

func (m *Module) list(self txn.OID) (*List, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.lists[self.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownList, self.Name)
	}
	return l, nil
}

// A spine page is
//
//	next=<pid>|k1:r1;k2:r2
//
// Like B-link nodes, spine pages are read and written in place: cutSpine
// walks the stored page once, and every write builds the new page with
// one concatenation of the stored text around the edited entry. A page
// the engine writes has the bytes a decode-edit-encode would give it.

// emptySpine is a spine page with no entries and no successor.
const emptySpine = "next=0|"

// spineAt is a spine page cut in place: the stored page, its successor,
// its body as stored (k1:r1;k2:r2, a suffix of data), its pair count, and
// the first pair keyed key, which spans data[at:end] and holds ref (at < 0
// when no pair is keyed key).
type spineAt struct {
	data, body string
	next       storage.PageID
	n          int
	at, end    int
	ref        string
}

// cutSpine parses a spine page's next= header and walks its body once,
// checking every pair for its ':' and finding the first pair keyed key.
func cutSpine(data, key string) (spineAt, error) {
	head, body, found := strings.Cut(data, "|")
	num, isNext := strings.CutPrefix(head, "next=")
	if !found || !isNext {
		return spineAt{}, fmt.Errorf("%w: %q", ErrCorrupt, data)
	}
	next, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return spineAt{}, fmt.Errorf("%w: next in %q", ErrCorrupt, data)
	}
	s := spineAt{data: data, body: body, next: storage.PageID(next), at: -1}
	pos := len(data) - len(body)
	for rest, more := body, body != ""; more; s.n++ {
		var pair string
		pair, rest, more = strings.Cut(rest, ";")
		k, _, ok := strings.Cut(pair, ":")
		if !ok {
			return spineAt{}, fmt.Errorf("%w: pair %q", ErrCorrupt, pair)
		}
		if s.at < 0 && k == key {
			s.at, s.end, s.ref = pos, pos+len(pair), pair[len(k)+1:]
		}
		pos += len(pair) + 1
	}
	return s, nil
}

// withPair is the page with key:ref appended.
func (s spineAt) withPair(key, ref string) string {
	if s.n == 0 {
		return s.data + key + ":" + ref
	}
	return s.data + ";" + key + ":" + ref
}

// withNext is the page with its successor set to next.
func (s spineAt) withNext(next storage.PageID) string {
	return "next=" + strconv.FormatUint(uint64(next), 10) + "|" + s.body
}

// without is the page with the pair at data[at:end] and one ';' cut out.
// It needs at >= 0.
func (s spineAt) without() string {
	switch {
	case s.n == 1:
		return s.data[:len(s.data)-len(s.body)]
	case s.end == len(s.data):
		return s.data[:s.at-1]
	default:
		return s.data[:s.at] + s.data[s.end+1:]
	}
}

// appendMethod adds (key, ref) at the tail of the chain and returns "ok".
// Duplicate keys are the caller's concern (the encyclopedia checks its
// index before appending). params: key, ref.
func (m *Module) appendMethod(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 || !valid(params[0]) || !valid(params[1]) {
		return "", ErrBadKey
	}
	key, ref := params[0], params[1]
	l, err := m.list(self)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	head, pid := l.head, l.tail
	l.mu.Unlock()

	for hops := 0; hops < 1<<20; hops++ {
		data, err := c.Call(core.PageOID(pid), "readx")
		if err != nil {
			return "", err
		}
		s, err := cutSpine(data, "")
		if err != nil && hops == 0 && pid != head {
			// The tail hint names a page an abort restored to "" (physical
			// undo of a freshly chained page): restart once from the head.
			pid = head
			continue
		}
		if err != nil {
			return "", err
		}
		if s.next != storage.InvalidPage {
			// Our tail hint was stale (a concurrent append chained on);
			// follow the chain like a B-link.
			pid = s.next
			continue
		}
		if s.n < l.capacity {
			if _, err := c.Call(core.PageOID(pid), "write", s.withPair(key, ref)); err != nil {
				return "", err
			}
			l.appended(key, pid)
			return "ok", nil
		}
		// Tail page full: chain a fresh page holding the new entry.
		newOID := c.DB().AllocPage()
		newPID, err := core.PageID(newOID)
		if err != nil {
			return "", err
		}
		if _, err := c.Call(newOID, "write", emptySpine+key+":"+ref); err != nil {
			return "", err
		}
		if _, err := c.Call(core.PageOID(pid), "write", s.withNext(newPID)); err != nil {
			return "", err
		}
		l.appended(key, newPID)
		return "ok", nil
	}
	return "", fmt.Errorf("%w: unbounded chain", ErrCorrupt)
}

// appended records that key was just written to pid, the chain's tail: pid
// becomes the tail hint and key's hint. Both may go stale — a concurrent
// append chains on, an abort restores a before-image — so both are checked
// on use; neither can name a reclaimed page, since pages are never
// reclaimed here. A new key is cloned: the hint outlives the transaction,
// and a key that arrived in a network message is a view of that whole
// message.
func (l *List) appended(key string, pid storage.PageID) {
	l.mu.Lock()
	l.tail = pid
	if _, ok := l.where[key]; !ok {
		key = strings.Clone(key)
	}
	l.where[key] = pid
	l.mu.Unlock()
}

// forget drops key's hint if it still names pid.
func (l *List) forget(key string, pid storage.PageID) {
	l.mu.Lock()
	if l.where[key] == pid {
		delete(l.where, key)
	}
	l.mu.Unlock()
}

// removeMethod deletes a key from the chain, returning its ref ("" when
// absent). It first probes the page the key's hint names — one readx and,
// on a hit, one write — instead of X-locking every spine page from the
// head. A miss (no hint, a page without the key, or a page an abort
// restored to "") falls back to the walk from the head, so for distinct
// keys the result is the walk's. With duplicate keys (the caller's
// concern) the occurrence on the latest append's page goes first. Pages
// are not reclaimed (documented simplification).
func (m *Module) removeMethod(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 || !valid(params[0]) {
		return "", ErrBadKey
	}
	key := params[0]
	l, err := m.list(self)
	if err != nil {
		return "", err
	}
	// Only read the hint and head under the mutex; holding it across
	// page-lock acquisition could deadlock invisibly with an appender
	// blocked in appended.
	l.mu.Lock()
	hint, hinted := l.where[key]
	pid := l.head
	l.mu.Unlock()

	if hinted {
		// Only the hinted page may fail to decode without an error.
		ref, found, _, err := takeKey(c, hint, key)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return "", err
		}
		l.forget(key, hint) // used up on a hit, stale on a miss
		if found {
			return ref, nil
		}
	}
	for hops := 0; hops < 1<<20 && pid != storage.InvalidPage; hops++ {
		ref, found, next, err := takeKey(c, pid, key)
		if err != nil {
			return "", err
		}
		if found {
			l.forget(key, pid)
			return ref, nil
		}
		pid = next
	}
	return "", nil
}

// takeKey is one step of a remove: readx spine page pid and, if key is on
// it, cut the key's pair and write the page back. It returns the removed
// ref, whether the key was found, and the page's next pointer.
func takeKey(c *core.Ctx, pid storage.PageID, key string) (ref string, found bool, next storage.PageID, err error) {
	data, err := c.Call(core.PageOID(pid), "readx")
	if err != nil {
		return "", false, 0, err
	}
	s, err := cutSpine(data, key)
	if err != nil {
		return "", false, 0, err
	}
	if s.at < 0 {
		return "", false, s.next, nil
	}
	if _, err := c.Call(core.PageOID(pid), "write", s.without()); err != nil {
		return "", false, 0, err
	}
	return s.ref, true, s.next, nil
}

// readSeqMethod returns all entries in chain order: "k1:r1;k2:r2;...",
// each page's body as stored.
func (m *Module) readSeqMethod(c *core.Ctx, self txn.OID, params []string) (string, error) {
	l, err := m.list(self)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	pid := l.head
	l.mu.Unlock()

	var bodies []string
	for hops := 0; hops < 1<<20 && pid != storage.InvalidPage; hops++ {
		data, err := c.Call(core.PageOID(pid), "read")
		if err != nil {
			return "", err
		}
		s, err := cutSpine(data, "")
		if err != nil {
			return "", err
		}
		if s.body != "" {
			bodies = append(bodies, s.body)
		}
		pid = s.next
	}
	return strings.Join(bodies, ";"), nil
}
