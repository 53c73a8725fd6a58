// Package enc implements the paper's running application (Figure 2): an
// encyclopedia whose items live on pages, indexed by a B+ tree and chained
// in a linked list:
//
//	Enc.insert(k, text) → BpTree.insert(k, ref) → ... → Page.*
//	                    → LinkedList.append(k, ref) → Page.*
//	                    → Item.create(k, text) → Page.write
//	Enc.search(k)       → BpTree.search(k) → ... ; Item.read → Page.read
//	Enc.readSeq()       → LinkedList.readSeq → ... ; Item.read → Page.read
//
// Items are reachable on two paths (via the index and via the list), which
// is exactly the situation that makes the paper's added action dependency
// relation (Definition 15) necessary.
package enc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Object type names.
const (
	Type     = "encyclopedia"
	ItemType = "item"
)

// Errors.
var (
	ErrBadKey     = errors.New("enc: key or text contains a reserved character")
	ErrUnknownEnc = errors.New("enc: unknown encyclopedia")
)

const reserved = "|=;:,"

func valid(s string) bool { return s != "" && !strings.ContainsAny(s, reserved) }

func validText(s string) bool { return !strings.ContainsAny(s, reserved) }

// Spec is the commutativity specification of the encyclopedia type:
// operations on distinct keys commute, searches commute with each other,
// and the sequential reader conflicts with every mutator (it observes
// membership and contents).
func Spec() commut.Spec {
	base := commut.NewMatrix().
		SetCommutes("readSeq", "readSeq").
		SetCommutes("readSeq", "search").
		SetConflicts("readSeq", "insert").
		SetConflicts("readSeq", "update").
		SetConflicts("readSeq", "delete")
	spec := commut.NewParamSpec(base)
	sameKey := func(a, b commut.Invocation) bool { return a.Param(0) != b.Param(0) }
	mutators := []string{"insert", "update", "delete"}
	for _, m1 := range mutators {
		for _, m2 := range append(mutators, "search") {
			spec.Rule(m1, m2, sameKey)
		}
	}
	spec.Rule("search", "search", func(a, b commut.Invocation) bool { return true })
	return spec
}

// ItemSpec is the commutativity specification of item objects.
func ItemSpec() commut.Spec {
	return commut.NewMatrix().
		SetCommutes("read", "read").
		SetConflicts("read", "update").
		SetConflicts("update", "update").
		SetConflicts("create", "read").
		SetConflicts("create", "update").
		SetConflicts("create", "create")
}

// Module owns the encyclopedia and item object types of one DB.
type Module struct {
	db    *core.DB
	trees *btree.Module
	lists *list.Module
	cat   *catalog.Catalog
	// items renders item object names, each page's once.
	items *core.Names

	mu   sync.Mutex
	encs map[string]*Encyclopedia
}

// SetCatalog makes the module (and its substructures) record metadata in
// the system catalog so AttachFromCatalog can rebuild after a restart.
func (m *Module) SetCatalog(cat *catalog.Catalog) {
	m.cat = cat
	m.trees.SetCatalog(cat)
	m.lists.SetCatalog(cat)
}

// AttachFromCatalog re-binds to an encyclopedia recorded in the catalog.
func (m *Module) AttachFromCatalog(cat *catalog.Catalog, name string) (*Encyclopedia, error) {
	if !valid(name) {
		return nil, ErrBadKey
	}
	e, err := cat.Get(catalog.KindEnc, name)
	if err != nil {
		return nil, err
	}
	if _, _, err := catalog.EncFields(e); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, dup := m.encs[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("enc: encyclopedia %q already exists", name)
	}
	m.mu.Unlock()

	tree, err := m.trees.AttachFromCatalog(cat, name+"Index")
	if err != nil {
		return nil, err
	}
	lst, err := m.lists.AttachFromCatalog(cat, name+"List")
	if err != nil {
		return nil, err
	}
	enc := &Encyclopedia{name: name, oid: txn.OID{Type: Type, Name: name}, tree: tree, list: lst}
	m.mu.Lock()
	m.encs[name] = enc
	m.mu.Unlock()
	return enc, nil
}

// Encyclopedia is one encyclopedia instance.
type Encyclopedia struct {
	name string
	oid  txn.OID
	tree *btree.Tree
	list *list.List
}

// OID returns the encyclopedia's object id.
func (e *Encyclopedia) OID() txn.OID { return e.oid }

// Tree returns the underlying index (for structural assertions in tests).
func (e *Encyclopedia) Tree() *btree.Tree { return e.tree }

// List returns the underlying linked list.
func (e *Encyclopedia) List() *list.List { return e.list }

// Install registers the encyclopedia and item types. The btree and list
// modules must already be installed on the same DB.
func Install(db *core.DB, trees *btree.Module, lists *list.Module) (*Module, error) {
	m := &Module{db: db, trees: trees, lists: lists, encs: make(map[string]*Encyclopedia),
		items: core.NewNames("Item")}

	itemType := &core.ObjectType{
		Name: ItemType,
		Spec: ItemSpec(),
		ReadOnly: map[string]bool{
			"read": true,
		},
		Methods: map[string]core.MethodFunc{
			"create": m.itemCreate,
			"read":   m.itemRead,
			"update": m.itemUpdate,
		},
		Compensate: map[string]core.CompensateFunc{
			// update(text) returns the old text.
			"update": func(params []string, result string) (string, []string, bool) {
				return "update", []string{result}, true
			},
		},
	}
	if err := db.RegisterType(itemType); err != nil {
		return nil, err
	}

	encType := &core.ObjectType{
		Name: Type,
		Spec: Spec(),
		ReadOnly: map[string]bool{
			"search":  true,
			"readSeq": true,
		},
		Methods: map[string]core.MethodFunc{
			"insert":  m.encInsert,
			"search":  m.encSearch,
			"update":  m.encUpdate,
			"delete":  m.encDelete,
			"readSeq": m.encReadSeq,
		},
		Compensate: map[string]core.CompensateFunc{
			"insert": func(params []string, result string) (string, []string, bool) {
				if result == "new" {
					return "delete", []string{params[0]}, true
				}
				return "update", []string{params[0], strings.TrimPrefix(result, "old|")}, true
			},
			"update": func(params []string, result string) (string, []string, bool) {
				if result == "miss" {
					return "", nil, false
				}
				return "update", []string{params[0], strings.TrimPrefix(result, "old|")}, true
			},
			"delete": func(params []string, result string) (string, []string, bool) {
				if result == "miss" {
					return "", nil, false
				}
				return "insert", []string{params[0], strings.TrimPrefix(result, "old|")}, true
			},
		},
	}
	if err := db.RegisterType(encType); err != nil {
		return nil, err
	}
	return m, nil
}

// New creates an encyclopedia backed by a B+ tree with the given node
// capacity and a linked list with the given spine-page capacity.
func (m *Module) New(name string, treeFanout, spineCapacity int) (*Encyclopedia, error) {
	if !valid(name) {
		return nil, ErrBadKey
	}
	m.mu.Lock()
	if _, dup := m.encs[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("enc: encyclopedia %q already exists", name)
	}
	m.mu.Unlock()

	tree, err := m.trees.NewTree(name+"Index", treeFanout)
	if err != nil {
		return nil, err
	}
	lst, err := m.lists.NewList(name+"List", spineCapacity)
	if err != nil {
		return nil, err
	}
	e := &Encyclopedia{
		name: name,
		oid:  txn.OID{Type: Type, Name: name},
		tree: tree,
		list: lst,
	}
	if m.cat != nil {
		if err := m.cat.Put(catalog.EncEntry(name, treeFanout, spineCapacity)); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.encs[name] = e
	m.mu.Unlock()
	return e, nil
}

// Attach re-binds to an existing encyclopedia after a restart: indexRoot
// and listHead are the catalog-persisted page ids of the B+ tree root and
// the list's head spine page.
func (m *Module) Attach(name string, treeFanout, spineCapacity int, indexRoot, listHead storage.PageID) (*Encyclopedia, error) {
	if !valid(name) {
		return nil, ErrBadKey
	}
	m.mu.Lock()
	if _, dup := m.encs[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("enc: encyclopedia %q already exists", name)
	}
	m.mu.Unlock()

	tree, err := m.trees.Attach(name+"Index", treeFanout, indexRoot)
	if err != nil {
		return nil, err
	}
	lst, err := m.lists.Attach(name+"List", spineCapacity, listHead)
	if err != nil {
		return nil, err
	}
	e := &Encyclopedia{
		name: name,
		oid:  txn.OID{Type: Type, Name: name},
		tree: tree,
		list: lst,
	}
	if m.cat != nil {
		if err := m.cat.Put(catalog.EncEntry(name, treeFanout, spineCapacity)); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.encs[name] = e
	m.mu.Unlock()
	return e, nil
}

// Get returns a created encyclopedia by name.
func (m *Module) Get(name string) (*Encyclopedia, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.encs[name]
	return e, ok
}

func (m *Module) enc(self txn.OID) (*Encyclopedia, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.encs[self.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEnc, self.Name)
	}
	return e, nil
}

// --- item object methods -----------------------------------------------------

// itemOID names the item object on a page, from the module's name table.
func (m *Module) itemOID(pid storage.PageID) txn.OID {
	return txn.OID{Type: ItemType, Name: m.items.Of(pid)}
}

// itemPage names the page behind an item object.
func itemPage(self txn.OID) txn.OID { return core.PageBehind(self, "Item") }

// itemCreate initializes the item's page with "key|text". params: key, text.
func (m *Module) itemCreate(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 {
		return "", fmt.Errorf("enc: item create needs key and text")
	}
	return c.Call(itemPage(self), "write", params[0]+"|"+params[1])
}

// itemRead returns the item's text.
func (m *Module) itemRead(c *core.Ctx, self txn.OID, params []string) (string, error) {
	data, err := c.Call(itemPage(self), "read")
	if err != nil {
		return "", err
	}
	_, text, found := strings.Cut(data, "|")
	if !found {
		return "", fmt.Errorf("enc: corrupt item page %q", data)
	}
	return text, nil
}

// itemUpdate replaces the text and returns the previous text. params: text.
func (m *Module) itemUpdate(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 {
		return "", fmt.Errorf("enc: item update needs text")
	}
	data, err := c.Call(itemPage(self), "readx")
	if err != nil {
		return "", err
	}
	key, old, found := strings.Cut(data, "|")
	if !found {
		return "", fmt.Errorf("enc: corrupt item page %q", data)
	}
	if _, err := c.Call(itemPage(self), "write", key+"|"+params[0]); err != nil {
		return "", err
	}
	return old, nil
}

// --- encyclopedia object methods ----------------------------------------------

// encInsert adds or replaces an item: result "new", or "old|<previous text>".
// params: key, text.
func (m *Module) encInsert(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 || !valid(params[0]) || !validText(params[1]) {
		return "", ErrBadKey
	}
	key, text := params[0], params[1]
	e, err := m.enc(self)
	if err != nil {
		return "", err
	}
	ref, err := c.Call(e.tree.OID(), "search", key)
	if err != nil {
		return "", err
	}
	if ref != "" {
		pid, err := parseRef(ref)
		if err != nil {
			return "", err
		}
		old, err := c.Call(m.itemOID(pid), "update", text)
		if err != nil {
			return "", err
		}
		return "old|" + old, nil
	}

	itemPageOID := c.DB().AllocPage()
	pid, err := core.PageID(itemPageOID)
	if err != nil {
		return "", err
	}
	if _, err := c.Call(m.itemOID(pid), "create", key, text); err != nil {
		return "", err
	}
	refStr := strconv.FormatUint(uint64(pid), 10)
	if _, err := c.Call(e.tree.OID(), "insert", key, refStr); err != nil {
		return "", err
	}
	if _, err := c.Call(e.list.OID(), "append", key, refStr); err != nil {
		return "", err
	}
	return "new", nil
}

// encSearch returns the item text for key, or "" when absent.
func (m *Module) encSearch(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 || !valid(params[0]) {
		return "", ErrBadKey
	}
	e, err := m.enc(self)
	if err != nil {
		return "", err
	}
	ref, err := c.Call(e.tree.OID(), "search", params[0])
	if err != nil || ref == "" {
		return "", err
	}
	pid, err := parseRef(ref)
	if err != nil {
		return "", err
	}
	return c.Call(m.itemOID(pid), "read")
}

// encUpdate changes an existing item's text: "miss" or "old|<previous>".
// params: key, text.
func (m *Module) encUpdate(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 || !valid(params[0]) || !validText(params[1]) {
		return "", ErrBadKey
	}
	e, err := m.enc(self)
	if err != nil {
		return "", err
	}
	ref, err := c.Call(e.tree.OID(), "search", params[0])
	if err != nil {
		return "", err
	}
	if ref == "" {
		return "miss", nil
	}
	pid, err := parseRef(ref)
	if err != nil {
		return "", err
	}
	old, err := c.Call(m.itemOID(pid), "update", params[1])
	if err != nil {
		return "", err
	}
	return "old|" + old, nil
}

// encDelete removes an item: "miss" or "old|<text>". The item page is not
// reclaimed. params: key.
func (m *Module) encDelete(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 || !valid(params[0]) {
		return "", ErrBadKey
	}
	key := params[0]
	e, err := m.enc(self)
	if err != nil {
		return "", err
	}
	ref, err := c.Call(e.tree.OID(), "delete", key)
	if err != nil {
		return "", err
	}
	if ref == "" {
		return "miss", nil
	}
	pid, err := parseRef(ref)
	if err != nil {
		return "", err
	}
	text, err := c.Call(m.itemOID(pid), "read")
	if err != nil {
		return "", err
	}
	if _, err := c.Call(e.list.OID(), "remove", key); err != nil {
		return "", err
	}
	return "old|" + text, nil
}

// encReadSeq reads every item through the linked list, in list order:
// "k1=t1;k2=t2;...".
func (m *Module) encReadSeq(c *core.Ctx, self txn.OID, params []string) (string, error) {
	e, err := m.enc(self)
	if err != nil {
		return "", err
	}
	seq, err := c.Call(e.list.OID(), "readSeq")
	if err != nil {
		return "", err
	}
	return joinSeq(seq, func(pid storage.PageID) (string, error) {
		return c.Call(m.itemOID(pid), "read")
	})
}

// joinSeq renders a list's readSeq reply "k1:ref1;k2:ref2;..." as
// "k1=t1;k2=t2;...", reading each item's text in list order. It walks the
// reply in place and writes into one builder, sized once the first text
// is read as if every text were as long as it.
func joinSeq(seq string, read func(storage.PageID) (string, error)) (string, error) {
	if seq == "" {
		return "", nil
	}
	var out strings.Builder
	for rest, more := seq, true; more; {
		var pair string
		pair, rest, more = strings.Cut(rest, ";")
		k, ref, found := strings.Cut(pair, ":")
		if !found {
			return "", fmt.Errorf("enc: corrupt list entry %q", pair)
		}
		pid, err := parseRef(ref)
		if err != nil {
			return "", err
		}
		text, err := read(pid)
		if err != nil {
			return "", err
		}
		if out.Cap() == 0 {
			if size := len(seq) + (strings.Count(seq, ";")+1)*(len(text)-len(ref)); size > 0 {
				out.Grow(size)
			}
		}
		out.WriteString(k)
		out.WriteByte('=')
		out.WriteString(text)
		if more {
			out.WriteByte(';')
		}
	}
	return out.String(), nil
}

func parseRef(ref string) (storage.PageID, error) {
	n, err := strconv.ParseUint(ref, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("enc: bad item ref %q: %w", ref, err)
	}
	return storage.PageID(n), nil
}
