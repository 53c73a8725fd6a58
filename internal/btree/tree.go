package btree

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// maxDescend bounds descent/retry loops; exceeding it means a corrupt
// structure (a B-link cycle), not a deep tree.
const maxDescend = 128

// --- tree object methods ----------------------------------------------------

// treeInsert implements BpTree.insert(k, v): descend to the leaf, insert,
// propagate splits. Result: the previous value of k ("" when absent), which
// is exactly what the compensation needs. Values are non-empty, so that ""
// means only absent.
func (m *Module) treeInsert(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 {
		return "", fmt.Errorf("btree: insert needs key and value")
	}
	k, v := params[0], params[1]
	if !validKV(k) || !validKV(v) || v == "" {
		return "", ErrBadKey
	}
	t, err := m.tree(self)
	if err != nil {
		return "", err
	}
	maxStr := strconv.Itoa(t.maxKeys)

	pid, err := t.descendToLeaf(c, k)
	if err != nil {
		return "", err
	}
	for hop := 0; hop < maxDescend; hop++ {
		res, err := c.Call(m.nodeOID(pid), "insert", k, v, maxStr)
		if err != nil {
			return "", err
		}
		switch {
		case strings.HasPrefix(res, "moved|"):
			pid, err = parsePID(res[len("moved|"):])
			if err != nil {
				return "", err
			}
		case strings.HasPrefix(res, "ok|"):
			return res[len("ok|"):], nil
		case strings.HasPrefix(res, "split|"):
			parts := strings.SplitN(res, "|", 4)
			if len(parts) != 4 {
				return "", fmt.Errorf("%w: split result %q", ErrCorruptEntry, res)
			}
			sep := parts[1]
			newPID, err := parsePID(parts[2])
			if err != nil {
				return "", err
			}
			if err := t.propagateSplit(c, pid, sep, newPID); err != nil {
				return "", err
			}
			return parts[3], nil
		default:
			return "", fmt.Errorf("%w: insert result %q", ErrCorruptEntry, res)
		}
	}
	return "", fmt.Errorf("%w: unbounded moved chain", ErrCorruptEntry)
}

// treeSearch implements BpTree.search(k): the value, or "" when absent.
func (m *Module) treeSearch(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 {
		return "", fmt.Errorf("btree: search needs a key")
	}
	k := params[0]
	t, err := m.tree(self)
	if err != nil {
		return "", err
	}
	pid, err := t.descendToLeaf(c, k)
	if err != nil {
		return "", err
	}
	for hop := 0; hop < maxDescend; hop++ {
		res, err := c.Call(m.nodeOID(pid), "search", k)
		if err != nil {
			return "", err
		}
		switch {
		case strings.HasPrefix(res, "moved|"):
			pid, err = parsePID(res[len("moved|"):])
			if err != nil {
				return "", err
			}
		case strings.HasPrefix(res, "val|"):
			return res[len("val|"):], nil
		case res == "miss":
			return "", nil
		default:
			return "", fmt.Errorf("%w: search result %q", ErrCorruptEntry, res)
		}
	}
	return "", fmt.Errorf("%w: unbounded moved chain", ErrCorruptEntry)
}

// treeDelete implements BpTree.delete(k): the removed value, or "" when the
// key was absent.
func (m *Module) treeDelete(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 {
		return "", fmt.Errorf("btree: delete needs a key")
	}
	k := params[0]
	t, err := m.tree(self)
	if err != nil {
		return "", err
	}
	pid, err := t.descendToLeaf(c, k)
	if err != nil {
		return "", err
	}
	maxStr := strconv.Itoa(t.maxKeys)
	for hop := 0; hop < maxDescend; hop++ {
		res, err := c.Call(m.nodeOID(pid), "delete", k, maxStr)
		if err != nil {
			return "", err
		}
		switch {
		case strings.HasPrefix(res, "moved|"):
			pid, err = parsePID(res[len("moved|"):])
			if err != nil {
				return "", err
			}
		case strings.HasPrefix(res, "val|"):
			return res[len("val|"):], nil
		case res == "miss":
			return "", nil
		default:
			return "", fmt.Errorf("%w: delete result %q", ErrCorruptEntry, res)
		}
	}
	return "", fmt.Errorf("%w: unbounded moved chain", ErrCorruptEntry)
}

// treeScan implements BpTree.scan(): all pairs in key order as
// "k1:v1;k2:v2;...". It walks the leaf chain from the leftmost leaf.
func (m *Module) treeScan(c *core.Ctx, self txn.OID, params []string) (string, error) {
	t, err := m.tree(self)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	pid := t.leftmost
	t.mu.Unlock()

	var out []string
	for hop := 0; hop < 1<<20 && pid != storage.InvalidPage; hop++ {
		res, err := c.Call(m.nodeOID(pid), "scanLeaf")
		if err != nil {
			return "", err
		}
		nextStr, kv, found := strings.Cut(res, "|")
		if !found {
			return "", fmt.Errorf("%w: scanLeaf result %q", ErrCorruptEntry, res)
		}
		if kv != "" {
			out = append(out, kv)
		}
		pid, err = parsePID(nextStr)
		if err != nil {
			return "", err
		}
	}
	return strings.Join(out, ";"), nil
}

// descendToLeaf routes from the root to the leaf owning k, following
// B-links, holding no node locks across levels (route is read-only).
func (t *Tree) descendToLeaf(c *core.Ctx, k string) (storage.PageID, error) {
	t.mu.Lock()
	root := t.root
	t.mu.Unlock()
	pid := root
	for hop := 0; hop < maxDescend; hop++ {
		res, err := c.Call(t.mod.nodeOID(pid), "route", k)
		if err != nil && pid == root {
			if root, err = t.fallBack(c, root, err); err == nil {
				pid = root
				continue
			}
		}
		if err != nil {
			return 0, err
		}
		switch {
		case res == "leaf":
			return pid, nil
		case strings.HasPrefix(res, "child|"):
			pid, err = parsePID(res[len("child|"):])
		case strings.HasPrefix(res, "moved|"):
			pid, err = parsePID(res[len("moved|"):])
		default:
			err = fmt.Errorf("%w: route result %q", ErrCorruptEntry, res)
		}
		if err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: descent did not terminate", ErrCorruptEntry)
}

// fallBack is the descents' error path for the root hint. An aborted root
// split under physical undo (2PL, closed nesting) restores the new root's
// page to "" and the old root to its pre-split image, but leaves t.root
// naming the new one. When routing at the descent's root failed with a
// corrupt encoding, fallBack pops t.root back to the previous root — only
// while t.root still names the failing page; otherwise another descent
// already moved it — and returns where to restart. A tree attached from the
// catalog after a restart has no previous root in memory: restart undo of
// a loser's root split restored the catalog's root pointer too, so the
// catalog names the root to fall back to. Any other failure, or one with
// nowhere to fall back to, is returned as is.
func (t *Tree) fallBack(c *core.Ctx, failed storage.PageID, err error) (storage.PageID, error) {
	if !errors.Is(err, ErrCorruptEntry) {
		return 0, err
	}
	t.mu.Lock()
	stale := t.root == failed && len(t.prev) == 0
	t.mu.Unlock()
	// The catalog page is read outside t.mu: a transaction holding it to
	// commit may itself be waiting for t.mu.
	root := failed
	if stale && t.mod.cat != nil {
		if e, cerr := t.mod.cat.GetCtx(c, catalog.KindTree, t.name); cerr == nil {
			if _, r, ferr := catalog.TreeFields(e); ferr == nil {
				root = r
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == failed {
		if len(t.prev) > 0 {
			root, t.prev = t.prev[len(t.prev)-1], t.prev[:len(t.prev)-1]
		} else if root == failed {
			return 0, err
		}
		t.root = root
		t.height--
	}
	return t.root, nil
}

// propagateSplit posts a split upward. splitPID is the node that split,
// sep/newPID describe its new right sibling, level counts from the leaves
// (0 = a leaf split).
//
// The propagation is latch-free in the blocking sense: t.mu is only ever
// held for the root swap (a few field writes plus one uncontended write to
// a freshly allocated page), never across a lock acquisition that could
// wait. Holding a Go mutex while waiting for a database lock can deadlock
// invisibly with a transaction that holds the lock until commit and needs
// the mutex — the hardest bug class in this codebase; see DESIGN.md §4b.
//
// Concurrency argument: node LEVELS are immutable (a B-link tree only
// grows at the top), so the parent of a level-L node is always the node at
// index len(path)-1-L of a fresh root-to-leaf routing path, even if other
// transactions split nodes or the root concurrently; lateral movement is
// handled by insertChild's moved|<pid> B-link redirects, and page-level
// locks make each insertChild atomic.
func (t *Tree) propagateSplit(c *core.Ctx, splitPID storage.PageID, sep string, newPID storage.PageID) error {
	level := 0 // 0 = the split node is a leaf
	for round := 0; round < maxDescend; round++ {
		// Root split: swap the root under the mutex, re-checking that the
		// split node still IS the root (another transaction may have grown
		// the tree since our descent).
		t.mu.Lock()
		if splitPID == t.root {
			err := t.makeNewRootLocked(c, splitPID, sep, newPID)
			newRoot := t.root
			t.mu.Unlock()
			if err == nil && t.mod.cat != nil {
				// Outside the mutex: a catalog-page lock wait while holding
				// t.mu could deadlock invisibly with a transaction holding
				// the catalog page to commit and descending this tree.
				// Out-of-order updates from racing splits leave at worst a
				// STALE root pointer, which B-links render harmless.
				err = t.mod.cat.PutCtx(c, catalog.TreeEntry(t.name, t.maxKeys, newRoot))
			}
			return err
		}
		t.mu.Unlock()

		path, err := t.innerPath(c, sep)
		if err != nil {
			return err
		}
		parentIdx := len(path) - 1 - level
		if parentIdx < 0 {
			// The structure changed under our feet (a root split is in
			// flight); retry — the loop is bounded.
			continue
		}
		parent := path[parentIdx]

		posted := false
		for hop := 0; hop < maxDescend && !posted; hop++ {
			res, err := c.Call(t.mod.nodeOID(parent), "insertChild", sep, pidStr(newPID), strconv.Itoa(t.maxKeys))
			if err != nil {
				return err
			}
			switch {
			case res == "ok":
				return nil
			case strings.HasPrefix(res, "moved|"):
				parent, err = parsePID(res[len("moved|"):])
				if err != nil {
					return err
				}
			case strings.HasPrefix(res, "split|"):
				parts := strings.SplitN(res, "|", 3)
				if len(parts) != 3 {
					return fmt.Errorf("%w: insertChild result %q", ErrCorruptEntry, res)
				}
				nsep := parts[1]
				npid, err := parsePID(parts[2])
				if err != nil {
					return err
				}
				// The parent itself split; continue one level up.
				splitPID, sep, newPID = parent, nsep, npid
				level++
				posted = true
			default:
				return fmt.Errorf("%w: insertChild result %q", ErrCorruptEntry, res)
			}
		}
		if !posted {
			return fmt.Errorf("%w: unbounded moved chain in split propagation", ErrCorruptEntry)
		}
	}
	return fmt.Errorf("%w: split propagation did not terminate", ErrCorruptEntry)
}

// makeNewRootLocked installs a new root over (left=splitPID, sep, right).
// Caller holds t.mu; the only engine call is a write to a freshly
// allocated page, which cannot block on another transaction.
func (t *Tree) makeNewRootLocked(c *core.Ctx, left storage.PageID, sep string, right storage.PageID) error {
	newRoot := c.DB().AllocPage()
	rootPID, err := core.PageID(newRoot)
	if err != nil {
		return err
	}
	if _, err := c.Call(t.mod.nodeOID(rootPID), "makeRoot", pidStr(left), sep, pidStr(right)); err != nil {
		return err
	}
	t.prev = append(t.prev, t.root)
	t.root = rootPID
	t.height++
	return nil
}

// innerPath routes by key from the current root, returning the inner node
// pids down to the leaf's parent. Read-only; concurrent splits are healed
// by B-link redirects.
func (t *Tree) innerPath(c *core.Ctx, k string) ([]storage.PageID, error) {
	t.mu.Lock()
	root := t.root
	t.mu.Unlock()
	pid := root
	var path []storage.PageID
	for hop := 0; hop < maxDescend; hop++ {
		res, err := c.Call(t.mod.nodeOID(pid), "route", k)
		if err != nil && pid == root {
			if root, err = t.fallBack(c, root, err); err == nil {
				pid = root
				continue
			}
		}
		if err != nil {
			return nil, err
		}
		switch {
		case res == "leaf":
			return path, nil
		case strings.HasPrefix(res, "child|"):
			path = append(path, pid)
			pid, err = parsePID(res[len("child|"):])
		case strings.HasPrefix(res, "moved|"):
			pid, err = parsePID(res[len("moved|"):])
		default:
			err = fmt.Errorf("%w: route result %q", ErrCorruptEntry, res)
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: inner path did not terminate", ErrCorruptEntry)
}

func parsePID(s string) (storage.PageID, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: pid %q", ErrCorruptEntry, s)
	}
	return storage.PageID(n), nil
}
