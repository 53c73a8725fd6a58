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
	"slices"
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
	if _, err := tx.Exec(headOID, "write", encodeSpine(spine{})); err != nil {
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

// spine is one spine page: entries plus the next page in the chain.
type spine struct {
	next storage.PageID
	keys []string
	refs []string
}

func encodeSpine(s spine) string {
	var b strings.Builder
	b.WriteString("next=")
	b.WriteString(strconv.FormatUint(uint64(s.next), 10))
	b.WriteByte('|')
	for i, k := range s.keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(s.refs[i])
	}
	return b.String()
}

func decodeSpine(data string) (spine, error) {
	head, body, found := strings.Cut(data, "|")
	num, isNext := strings.CutPrefix(head, "next=")
	if !found || !isNext {
		return spine{}, fmt.Errorf("%w: %q", ErrCorrupt, data)
	}
	next, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return spine{}, fmt.Errorf("%w: next in %q", ErrCorrupt, data)
	}
	s := spine{next: storage.PageID(next)}
	if body != "" {
		for _, pair := range strings.Split(body, ";") {
			k, ref, ok := strings.Cut(pair, ":")
			if !ok {
				return spine{}, fmt.Errorf("%w: pair %q", ErrCorrupt, pair)
			}
			s.keys = append(s.keys, k)
			s.refs = append(s.refs, ref)
		}
	}
	return s, nil
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
		s, err := decodeSpine(data)
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
		if len(s.keys) < l.capacity {
			s.keys = append(s.keys, key)
			s.refs = append(s.refs, ref)
			if _, err := c.Call(core.PageOID(pid), "write", encodeSpine(s)); err != nil {
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
		if _, err := c.Call(newOID, "write", encodeSpine(spine{keys: []string{key}, refs: []string{ref}})); err != nil {
			return "", err
		}
		s.next = newPID
		if _, err := c.Call(core.PageOID(pid), "write", encodeSpine(s)); err != nil {
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
// reclaimed here.
func (l *List) appended(key string, pid storage.PageID) {
	l.mu.Lock()
	l.tail = pid
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

// takeKey is one step of a remove: readx spine page pid, decode it and, if
// key is on it, drop the key and write the page back. It returns the
// removed ref, whether the key was found, and the page's next pointer.
func takeKey(c *core.Ctx, pid storage.PageID, key string) (ref string, found bool, next storage.PageID, err error) {
	data, err := c.Call(core.PageOID(pid), "readx")
	if err != nil {
		return "", false, 0, err
	}
	s, err := decodeSpine(data)
	if err != nil {
		return "", false, 0, err
	}
	i := slices.Index(s.keys, key)
	if i < 0 {
		return "", false, s.next, nil
	}
	ref = s.refs[i]
	s.keys = slices.Delete(s.keys, i, i+1)
	s.refs = slices.Delete(s.refs, i, i+1)
	if _, err := c.Call(core.PageOID(pid), "write", encodeSpine(s)); err != nil {
		return "", false, 0, err
	}
	return ref, true, s.next, nil
}

// readSeqMethod returns all entries in chain order: "k1:r1;k2:r2;...".
func (m *Module) readSeqMethod(c *core.Ctx, self txn.OID, params []string) (string, error) {
	l, err := m.list(self)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	pid := l.head
	l.mu.Unlock()

	var out []string
	for hops := 0; hops < 1<<20 && pid != storage.InvalidPage; hops++ {
		data, err := c.Call(core.PageOID(pid), "read")
		if err != nil {
			return "", err
		}
		s, err := decodeSpine(data)
		if err != nil {
			return "", err
		}
		for i, k := range s.keys {
			out = append(out, k+":"+s.refs[i])
		}
		pid = s.next
	}
	return strings.Join(out, ";"), nil
}
