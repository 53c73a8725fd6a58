// Package btree implements the paper's index substrate (Figure 2): a B+
// tree whose nodes are encapsulated objects layered over pages, in exactly
// the call structure of Example 1:
//
//	BpTree.insert(k) → Node.insert(k) → Page.readx / Page.write
//
// Key-level semantics give the concurrency the paper is after: inserts of
// distinct keys commute at the node and tree levels even when they rewrite
// the same page, and searches commute with structure modifications thanks
// to B-link next pointers ("lock coupling and B-linking" per the paper's
// reference [15]). Structure modifications (splits) are additionally
// serialized by a per-tree latch, the standard engineering compromise; the
// offline checker still validates every produced schedule.
//
// Simplifications, documented in DESIGN.md: deletion removes keys without
// rebalancing (leaves may go underfull), and keys/values are restricted to
// a separator-free character set. Values are non-empty: insert and search
// report an absent key as "", so an empty value could not be told from no
// value, and the compensation of an overwrite would delete the key.
package btree

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Object type names.
const (
	TreeType = "btree"
	NodeType = "btreenode"
)

// Errors.
var (
	ErrBadKey       = errors.New("btree: key or value contains a reserved character, or the value is empty")
	ErrUnknownTree  = errors.New("btree: unknown tree")
	ErrCorruptEntry = errors.New("btree: corrupt node encoding")
)

// reserved characters used by the node encoding.
const reserved = "|=;:,"

func validKV(s string) bool { return !strings.ContainsAny(s, reserved) }

// Module owns the btree object types of one DB and the trees created in
// it. Install it once per database.
type Module struct {
	db  *core.DB
	cat *catalog.Catalog
	// nodes renders node object names, each page's once.
	nodes *core.Names

	mu    sync.Mutex
	trees map[string]*Tree
}

// SetCatalog makes the module record tree metadata (and keep root pointers
// current across splits) in the system catalog, enabling
// AttachFromCatalog after a restart.
func (m *Module) SetCatalog(cat *catalog.Catalog) { m.cat = cat }

// AttachFromCatalog re-binds to a tree whose metadata lives in the catalog.
func (m *Module) AttachFromCatalog(cat *catalog.Catalog, name string) (*Tree, error) {
	e, err := cat.Get(catalog.KindTree, name)
	if err != nil {
		return nil, err
	}
	maxKeys, root, err := catalog.TreeFields(e)
	if err != nil {
		return nil, err
	}
	return m.Attach(name, maxKeys, root)
}

// Tree is one B+ tree instance.
type Tree struct {
	name    string
	oid     txn.OID
	maxKeys int
	mod     *Module

	// mu protects root/prev/leftmost/height and serializes structure
	// modifications (the SMO latch).
	mu   sync.Mutex
	root storage.PageID
	// prev holds the roots this Tree replaced, oldest first. root is only a
	// hint: physical undo of an aborted root split does not reset it, so a
	// descent that finds it undecodable pops back to the previous root, or
	// to the catalog's after a restart (see fallBack).
	prev     []storage.PageID
	leftmost storage.PageID
	height   int
}

// OID returns the tree's object id; send insert/search/delete/scan to it.
func (t *Tree) OID() txn.OID { return t.oid }

// MaxKeys returns the per-node key capacity.
func (t *Tree) MaxKeys() int { return t.maxKeys }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.height
}

// TreeSpec is the commutativity specification of the tree type: operations
// on distinct keys commute; search/search commutes; scan (the sequential
// reader) conflicts with every mutator and commutes with reads.
func TreeSpec() commut.Spec {
	base := commut.NewMatrix().
		SetCommutes("scan", "scan").
		SetCommutes("scan", "search").
		SetConflicts("scan", "insert").
		SetConflicts("scan", "delete")
	spec := commut.NewParamSpec(base)
	sameKey := func(a, b commut.Invocation) bool { return a.Param(0) != b.Param(0) }
	for _, m1 := range []string{"insert", "delete"} {
		for _, m2 := range []string{"insert", "delete", "search"} {
			spec.Rule(m1, m2, sameKey)
		}
	}
	spec.Rule("search", "search", func(a, b commut.Invocation) bool { return true })
	return spec
}

// NodeSpec is the commutativity specification of node objects. Routing
// reads (route) commute with everything — B-links keep concurrent descent
// correct during splits; key operations are keyed like the tree's.
func NodeSpec() commut.Spec {
	base := commut.NewMatrix().
		SetCommutes("route", "route").
		SetCommutes("route", "insert").
		SetCommutes("route", "insertChild").
		SetCommutes("route", "search").
		SetCommutes("route", "delete").
		SetCommutes("route", "scanLeaf").
		SetCommutes("scanLeaf", "scanLeaf").
		SetCommutes("scanLeaf", "search").
		SetConflicts("scanLeaf", "insert").
		SetConflicts("scanLeaf", "delete").
		SetCommutes("makeRoot", "route")
	spec := commut.NewParamSpec(base)
	sameKey := func(a, b commut.Invocation) bool { return a.Param(0) != b.Param(0) }
	mutators := []string{"insert", "delete", "insertChild", "compDelete", "compInsert"}
	for _, m1 := range mutators {
		for _, m2 := range append(mutators, "search") {
			spec.Rule(m1, m2, sameKey)
		}
	}
	spec.Rule("search", "search", func(a, b commut.Invocation) bool { return true })
	for _, m := range []string{"compDelete", "compInsert"} {
		base.SetCommutes("route", m)
		base.SetConflicts("scanLeaf", m)
	}
	return spec
}

// Install registers the btree object types on db and returns the module.
func Install(db *core.DB) (*Module, error) {
	m := &Module{db: db, trees: make(map[string]*Tree), nodes: core.NewNames("Node")}

	treeType := &core.ObjectType{
		Name: TreeType,
		Spec: TreeSpec(),
		ReadOnly: map[string]bool{
			"search": true,
			"scan":   true,
		},
		Methods: map[string]core.MethodFunc{
			"insert": m.treeInsert,
			"search": m.treeSearch,
			"delete": m.treeDelete,
			"scan":   m.treeScan,
		},
		Compensate: map[string]core.CompensateFunc{
			// insert(k,v) returning the previous value: absent → delete(k);
			// present → re-insert the old value.
			"insert": func(params []string, result string) (string, []string, bool) {
				if result == "" {
					return "delete", []string{params[0]}, true
				}
				return "insert", []string{params[0], result}, true
			},
			// delete(k) returning the removed value: absent → nothing to
			// undo; present → re-insert it.
			"delete": func(params []string, result string) (string, []string, bool) {
				if result == "" {
					return "", nil, false
				}
				return "insert", []string{params[0], result}, true
			},
		},
	}
	if err := db.RegisterType(treeType); err != nil {
		return nil, err
	}

	nodeType := &core.ObjectType{
		Name: NodeType,
		Spec: NodeSpec(),
		ReadOnly: map[string]bool{
			"route":    true,
			"search":   true,
			"scanLeaf": true,
		},
		Methods: map[string]core.MethodFunc{
			"route":       m.nodeRoute,
			"insert":      m.nodeInsert,
			"search":      m.nodeSearch,
			"delete":      m.nodeDelete,
			"insertChild": m.nodeInsertChild,
			"makeRoot":    m.nodeMakeRoot,
			"scanLeaf":    m.nodeScanLeaf,
			"compDelete":  m.nodeCompDelete,
			"compInsert":  m.nodeCompInsert,
		},
		// Node operations compensate at the node level so their page locks
		// can be released when the node subtransaction commits — otherwise a
		// transaction waiting for the tree's SMO latch while holding leaf
		// page locks could deadlock invisibly with the latch holder.
		// Structural operations (insertChild, makeRoot) are nested top
		// actions in the ARIES sense: they redistribute content without
		// changing it, so they are permanent and need no undo.
		// Compensations use the moved-chasing comp* methods: by the time an
		// undo runs (rollback, or crash recovery replaying a logged intent),
		// splits may have moved the key to a B-link sibling, and a plain
		// node delete/insert would silently no-op with "moved|...".
		Compensate: map[string]core.CompensateFunc{
			"insert": func(params []string, result string) (string, []string, bool) {
				// params: key, value, maxKeys. Results: "ok|<old>",
				// "split|sep|new|<old>", "moved|<pid>".
				old, performed := insertOldValue(result)
				if !performed {
					return "", nil, false
				}
				if old == "" {
					return "compDelete", []string{params[0], params[2]}, true
				}
				return "compInsert", []string{params[0], old, params[2]}, true
			},
			"delete": func(params []string, result string) (string, []string, bool) {
				// params: key, maxKeys. Results: "val|<old>", "miss", "moved|...".
				if !strings.HasPrefix(result, "val|") {
					return "", nil, false
				}
				return "compInsert", []string{params[0], strings.TrimPrefix(result, "val|"), params[1]}, true
			},
			"compDelete": func(params []string, result string) (string, []string, bool) {
				// params: key, maxKeys. Result "val|<old>" when it removed
				// something (undo: put it back), "miss" otherwise.
				if !strings.HasPrefix(result, "val|") {
					return "", nil, false
				}
				return "compInsert", []string{params[0], strings.TrimPrefix(result, "val|"), params[1]}, true
			},
			"compInsert": func(params []string, result string) (string, []string, bool) {
				// params: key, value, maxKeys. Result "ok|<old>".
				old := strings.TrimPrefix(result, "ok|")
				if old == "" {
					return "compDelete", []string{params[0], params[2]}, true
				}
				return "compInsert", []string{params[0], old, params[2]}, true
			},
			"insertChild": func(params []string, result string) (string, []string, bool) {
				return "", nil, false // nested top action
			},
			"makeRoot": func(params []string, result string) (string, []string, bool) {
				return "", nil, false // nested top action
			},
		},
	}
	if err := db.RegisterType(nodeType); err != nil {
		return nil, err
	}
	return m, nil
}

// NewTree creates a tree with the given node capacity (maxKeys >= 2; the
// paper's "rough up to 500 keys" per page is the upper end of the sweep).
// The creation runs in its own small transaction.
func (m *Module) NewTree(name string, maxKeys int) (*Tree, error) {
	if maxKeys < 2 {
		return nil, fmt.Errorf("btree: maxKeys must be >= 2, got %d", maxKeys)
	}
	if !validKV(name) {
		return nil, ErrBadKey
	}
	m.mu.Lock()
	if _, dup := m.trees[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("btree: tree %q already exists", name)
	}
	m.mu.Unlock()

	rootOID := m.db.AllocPage()
	rootPID, err := core.PageID(rootOID)
	if err != nil {
		return nil, err
	}
	tx := m.db.Begin()
	if _, err := tx.Exec(rootOID, "write", emptyLeaf); err != nil {
		_ = tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	t := &Tree{
		name:     name,
		oid:      txn.OID{Type: TreeType, Name: name},
		maxKeys:  maxKeys,
		mod:      m,
		root:     rootPID,
		leftmost: rootPID,
		height:   1,
	}
	if m.cat != nil {
		if err := m.cat.Put(catalog.TreeEntry(name, maxKeys, rootPID)); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.trees[name] = t
	m.mu.Unlock()
	return t, nil
}

// Attach re-binds to an existing tree after a restart: root is the tree's
// current root page (applications persist it in a catalog; for trees that
// never split the root it is the page NewTree allocated). The height and
// leftmost leaf are re-derived by probing the structure.
func (m *Module) Attach(name string, maxKeys int, root storage.PageID) (*Tree, error) {
	if maxKeys < 2 {
		return nil, fmt.Errorf("btree: maxKeys must be >= 2, got %d", maxKeys)
	}
	m.mu.Lock()
	if _, dup := m.trees[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("btree: tree %q already exists", name)
	}
	m.mu.Unlock()

	t := &Tree{
		name:    name,
		oid:     txn.OID{Type: TreeType, Name: name},
		maxKeys: maxKeys,
		mod:     m,
		root:    root,
	}
	// Probe height and the leftmost leaf by descending the first-child
	// spine ("" routes left of every key).
	tx := m.db.Begin()
	pid := root
	height := 1
	for hop := 0; hop < maxDescend; hop++ {
		res, err := tx.Exec(m.nodeOID(pid), "route", "")
		if err != nil {
			_ = tx.Abort()
			return nil, fmt.Errorf("btree: attach probe: %w", err)
		}
		if res == "leaf" {
			break
		}
		child, ok := strings.CutPrefix(res, "child|")
		if !ok {
			_ = tx.Abort()
			return nil, fmt.Errorf("%w: attach probe result %q", ErrCorruptEntry, res)
		}
		next, err := parsePID(child)
		if err != nil {
			_ = tx.Abort()
			return nil, err
		}
		pid = next
		height++
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	t.height = height
	t.leftmost = pid

	m.mu.Lock()
	m.trees[name] = t
	m.mu.Unlock()
	return t, nil
}

// Tree returns a created tree by name.
func (m *Module) Tree(name string) (*Tree, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.trees[name]
	return t, ok
}

func (m *Module) tree(self txn.OID) (*Tree, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.trees[self.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTree, self.Name)
	}
	return t, nil
}

// insertOldValue extracts the previous value from a node insert result and
// reports whether the insert actually changed the node.
func insertOldValue(result string) (old string, performed bool) {
	switch {
	case strings.HasPrefix(result, "ok|"):
		return strings.TrimPrefix(result, "ok|"), true
	case strings.HasPrefix(result, "split|"):
		parts := strings.SplitN(result, "|", 4)
		if len(parts) == 4 {
			return parts[3], true
		}
		return "", true
	default: // "moved|..." or malformed: nothing happened on this node
		return "", false
	}
}

// nodeOID names the node object that encapsulates a page, from the
// module's name table.
func (m *Module) nodeOID(pid storage.PageID) txn.OID {
	return txn.OID{Type: NodeType, Name: m.nodes.Of(pid)}
}
