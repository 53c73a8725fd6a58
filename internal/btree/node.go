package btree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Node encodings. A leaf page is
//
//	L|next=<pid>|high=<key>|kv=k1:v1;k2:v2
//
// and an inner page is
//
//	I|next=<pid>|high=<key>|ch=p0,k1,p1,k2,p2
//
// next/high implement B-links: when a node splits, the left half keeps a
// pointer to the right half and remembers the separator as its high key, so
// a concurrent descent that lands left of moved keys follows the link
// instead of failing ("B-linking", Section 2 of the paper).
//
// Reads (route, search, scanLeaf) scan the stored string in place: they cut
// the header and walk the body only as far as the probed key, allocating no
// slices and parsing only the pid they return. Writes decode the page into
// a leaf or inner, edit it, and re-encode it with encodeLeaf/encodeInner.

type leaf struct {
	next storage.PageID
	high string
	keys []string
	vals []string
}

type inner struct {
	next     storage.PageID
	high     string
	keys     []string
	children []storage.PageID // len(keys)+1
}

func encodeLeaf(l leaf) string {
	var kv strings.Builder
	for i, k := range l.keys {
		if i > 0 {
			kv.WriteByte(';')
		}
		kv.WriteString(k)
		kv.WriteByte(':')
		kv.WriteString(l.vals[i])
	}
	return fmt.Sprintf("L|next=%d|high=%s|kv=%s", l.next, l.high, kv.String())
}

func encodeInner(n inner) string {
	var ch strings.Builder
	for i, c := range n.children {
		if i > 0 {
			ch.WriteByte(',')
			ch.WriteString(n.keys[i-1])
			ch.WriteByte(',')
		}
		ch.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return fmt.Sprintf("I|next=%d|high=%s|ch=%s", n.next, n.high, ch.String())
}

// header is a node page's header, cut from the stored string in place:
// body is the text after "kv=" (leaf) or "ch=" (inner).
type header struct {
	isLeaf bool
	next   storage.PageID
	high   string
	body   string
}

// cutHeader parses a node page's kind, next= and high= fields and strips
// the body prefix its kind requires. It allocates only on error.
func cutHeader(data string) (header, error) {
	kind, rest, ok1 := strings.Cut(data, "|")
	nextF, rest, ok2 := strings.Cut(rest, "|")
	highF, rest, ok3 := strings.Cut(rest, "|")
	nextS, ok4 := strings.CutPrefix(nextF, "next=")
	high, ok5 := strings.CutPrefix(highF, "high=")
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return header{}, fmt.Errorf("%w: %q", ErrCorruptEntry, truncate(data))
	}
	next, err := strconv.ParseUint(nextS, 10, 64)
	if err != nil {
		return header{}, fmt.Errorf("%w: bad next in %q", ErrCorruptEntry, truncate(data))
	}
	h := header{next: storage.PageID(next), high: high}
	switch kind {
	case "L":
		h.isLeaf = true
		if h.body, ok1 = strings.CutPrefix(rest, "kv="); !ok1 {
			return header{}, fmt.Errorf("%w: leaf body in %q", ErrCorruptEntry, truncate(data))
		}
	case "I":
		if h.body, ok1 = strings.CutPrefix(rest, "ch="); !ok1 || h.body == "" {
			return header{}, fmt.Errorf("%w: inner body in %q", ErrCorruptEntry, truncate(data))
		}
	default:
		return header{}, fmt.Errorf("%w: kind %q", ErrCorruptEntry, kind)
	}
	return h, nil
}

// decodePage parses a node page. Exactly one of the results is non-nil.
func decodePage(data string) (*leaf, *inner, error) {
	h, err := cutHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.isLeaf {
		l := &leaf{next: h.next, high: h.high}
		if h.body != "" {
			for _, pair := range strings.Split(h.body, ";") {
				k, v, found := strings.Cut(pair, ":")
				if !found {
					return nil, nil, fmt.Errorf("%w: pair %q", ErrCorruptEntry, pair)
				}
				l.keys = append(l.keys, k)
				l.vals = append(l.vals, v)
			}
		}
		return l, nil, nil
	}
	fields := strings.Split(h.body, ",")
	if len(fields)%2 != 1 {
		return nil, nil, fmt.Errorf("%w: inner arity in %q", ErrCorruptEntry, truncate(data))
	}
	n := &inner{next: h.next, high: h.high}
	for i, f := range fields {
		if i%2 == 0 {
			pid, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: child pid %q", ErrCorruptEntry, f)
			}
			n.children = append(n.children, storage.PageID(pid))
		} else {
			n.keys = append(n.keys, f)
		}
	}
	return nil, n, nil
}

// routeIn is route over a stored page: "leaf", "moved|<next>" when k lies
// at or past the high key, else "child|<pid>" for the first child whose
// right separator is greater than k: equal keys route right, since a
// separator is the first key of its right sibling. Separators are sorted,
// so the scan stops there.
func routeIn(data, k string) (string, error) {
	h, err := cutHeader(data)
	if err != nil {
		return "", err
	}
	if h.isLeaf {
		return "leaf", nil
	}
	if movedPast(h.high, h.next, k) {
		return "moved|" + pidStr(h.next), nil
	}
	rest := h.body
	for {
		child, tail, more := strings.Cut(rest, ",")
		if more {
			var sep string
			if sep, rest, more = strings.Cut(tail, ","); !more {
				return "", fmt.Errorf("%w: inner arity in %q", ErrCorruptEntry, truncate(data))
			}
			if sep <= k {
				continue
			}
		}
		pid, err := strconv.ParseUint(child, 10, 64)
		if err != nil {
			return "", fmt.Errorf("%w: child pid %q", ErrCorruptEntry, child)
		}
		if child[0] == '0' {
			// Written pids are canonical; only leading zeros need re-rendering.
			child = pidStr(storage.PageID(pid))
		}
		return "child|" + child, nil
	}
}

// searchIn is search over a stored leaf page: "val|<v>", "miss", or
// "moved|<next>". Keys are sorted, so the scan stops at the first key
// greater than k.
func searchIn(data, k string) (string, error) {
	h, err := cutHeader(data)
	if err != nil {
		return "", err
	}
	if !h.isLeaf {
		return "", fmt.Errorf("%w: search in inner node %q", ErrCorruptEntry, truncate(data))
	}
	if movedPast(h.high, h.next, k) {
		return "moved|" + pidStr(h.next), nil
	}
	for rest, more := h.body, h.body != ""; more; {
		var pair string
		pair, rest, more = strings.Cut(rest, ";")
		key, v, found := strings.Cut(pair, ":")
		switch {
		case !found:
			return "", fmt.Errorf("%w: pair %q", ErrCorruptEntry, pair)
		case key == k:
			return "val|" + v, nil
		case key > k:
			return "miss", nil
		}
	}
	return "miss", nil
}

// scanIn is scanLeaf over a stored leaf page: "<next>|" plus the kv= body
// as stored, which is already the k1:v1;k2:v2 text the scan concatenates.
func scanIn(data string) (string, error) {
	h, err := cutHeader(data)
	if err != nil {
		return "", err
	}
	if !h.isLeaf {
		return "", fmt.Errorf("%w: scanLeaf on inner node %q", ErrCorruptEntry, truncate(data))
	}
	return pidStr(h.next) + "|" + h.body, nil
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// movedPast reports whether key k now lives right of this node.
func movedPast(high string, next storage.PageID, k string) bool {
	return high != "" && k >= high && next != storage.InvalidPage
}

// --- node object methods ---------------------------------------------------

// nodeRoute routes a key one level down: "leaf" when the node is a leaf,
// "child|<pid>" for the subtree to descend into, "moved|<pid>" when the key
// range moved right via a B-link.
func (m *Module) nodeRoute(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 {
		return "", fmt.Errorf("btree: route needs a key")
	}
	k := params[0]
	data, err := m.readNode(c, self, "read")
	if err != nil {
		return "", err
	}
	return routeIn(data, k)
}

// nodeInsert inserts k=v into a leaf node:
//
//	"ok|<old>"                 — inserted (old = previous value, may be empty)
//	"moved|<pid>"              — key range moved right, retry there
//	"split|<sep>|<new>|<old>"  — leaf split; sep/new must be posted to the parent
//
// params: key, value, maxKeys.
func (m *Module) nodeInsert(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 3 {
		return "", fmt.Errorf("btree: node insert needs key, value, maxKeys")
	}
	k, v := params[0], params[1]
	maxKeys, err := strconv.Atoi(params[2])
	if err != nil {
		return "", fmt.Errorf("btree: bad maxKeys %q", params[2])
	}
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	l, _, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l == nil {
		return "", fmt.Errorf("%w: insert into inner node %s", ErrCorruptEntry, self.Name)
	}
	if movedPast(l.high, l.next, k) {
		return "moved|" + pidStr(l.next), nil
	}

	old := ""
	i := sort.SearchStrings(l.keys, k)
	if i < len(l.keys) && l.keys[i] == k {
		old = l.vals[i]
		l.vals[i] = v
	} else {
		l.keys = append(l.keys, "")
		copy(l.keys[i+1:], l.keys[i:])
		l.keys[i] = k
		l.vals = append(l.vals, "")
		copy(l.vals[i+1:], l.vals[i:])
		l.vals[i] = v
	}

	if len(l.keys) <= maxKeys {
		if _, err := c.Call(self2page(self), "write", encodeLeaf(*l)); err != nil {
			return "", err
		}
		return "ok|" + old, nil
	}

	// Split: right half moves to a fresh page; B-link left → right.
	mid := len(l.keys) / 2
	right := leaf{
		next: l.next,
		high: l.high,
		keys: append([]string{}, l.keys[mid:]...),
		vals: append([]string{}, l.vals[mid:]...),
	}
	sep := right.keys[0]
	newOID := c.DB().AllocPage()
	newPID, err := core.PageID(newOID)
	if err != nil {
		return "", err
	}
	left := leaf{next: newPID, high: sep, keys: l.keys[:mid], vals: l.vals[:mid]}
	// Write the right half first: a concurrent descent that still reaches
	// the left page sees a consistent B-link chain either way.
	if _, err := c.Call(newOID, "write", encodeLeaf(right)); err != nil {
		return "", err
	}
	if _, err := c.Call(self2page(self), "write", encodeLeaf(left)); err != nil {
		return "", err
	}
	return fmt.Sprintf("split|%s|%s|%s", sep, pidStr(newPID), old), nil
}

// nodeSearch looks k up in a leaf: "val|<v>", "miss", or "moved|<pid>".
func (m *Module) nodeSearch(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 1 {
		return "", fmt.Errorf("btree: node search needs a key")
	}
	k := params[0]
	data, err := m.readNode(c, self, "read")
	if err != nil {
		return "", err
	}
	return searchIn(data, k)
}

// nodeDelete removes k from a leaf: "val|<old>", "miss", or "moved|<pid>".
// No rebalancing (documented simplification). params: key, maxKeys (the
// capacity is only needed by the compensating re-insert).
func (m *Module) nodeDelete(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 {
		return "", fmt.Errorf("btree: node delete needs key and maxKeys")
	}
	k := params[0]
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	l, _, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l == nil {
		return "", fmt.Errorf("%w: delete in inner node %s", ErrCorruptEntry, self.Name)
	}
	if movedPast(l.high, l.next, k) {
		return "moved|" + pidStr(l.next), nil
	}
	i := sort.SearchStrings(l.keys, k)
	if i >= len(l.keys) || l.keys[i] != k {
		return "miss", nil
	}
	old := l.vals[i]
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	if _, err := c.Call(self2page(self), "write", encodeLeaf(*l)); err != nil {
		return "", err
	}
	return "val|" + old, nil
}

// nodeInsertChild posts a separator and new-child pid into an inner node:
// "ok", "moved|<pid>", or "split|<sep>|<new>". params: sep, newpid, maxKeys.
func (m *Module) nodeInsertChild(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 3 {
		return "", fmt.Errorf("btree: insertChild needs sep, pid, maxKeys")
	}
	sep := params[0]
	newPID, err := strconv.ParseUint(params[1], 10, 64)
	if err != nil {
		return "", fmt.Errorf("btree: bad child pid %q", params[1])
	}
	maxKeys, err := strconv.Atoi(params[2])
	if err != nil {
		return "", fmt.Errorf("btree: bad maxKeys %q", params[2])
	}
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	_, n, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if n == nil {
		return "", fmt.Errorf("%w: insertChild into leaf %s", ErrCorruptEntry, self.Name)
	}
	if movedPast(n.high, n.next, sep) {
		return "moved|" + pidStr(n.next), nil
	}

	i := sort.SearchStrings(n.keys, sep)
	n.keys = append(n.keys, "")
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = storage.PageID(newPID)

	if len(n.keys) <= maxKeys {
		if _, err := c.Call(self2page(self), "write", encodeInner(*n)); err != nil {
			return "", err
		}
		return "ok", nil
	}

	// Inner split: the middle key is promoted, not copied.
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := inner{
		next:     n.next,
		high:     n.high,
		keys:     append([]string{}, n.keys[mid+1:]...),
		children: append([]storage.PageID{}, n.children[mid+1:]...),
	}
	newOID := c.DB().AllocPage()
	rightPID, err := core.PageID(newOID)
	if err != nil {
		return "", err
	}
	left := inner{
		next:     rightPID,
		high:     promoted,
		keys:     n.keys[:mid],
		children: n.children[:mid+1],
	}
	if _, err := c.Call(newOID, "write", encodeInner(right)); err != nil {
		return "", err
	}
	if _, err := c.Call(self2page(self), "write", encodeInner(left)); err != nil {
		return "", err
	}
	return fmt.Sprintf("split|%s|%s", promoted, pidStr(rightPID)), nil
}

// nodeMakeRoot initializes self as a fresh root with two children.
// params: leftpid, sep, rightpid.
func (m *Module) nodeMakeRoot(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 3 {
		return "", fmt.Errorf("btree: makeRoot needs left, sep, right")
	}
	left, err1 := strconv.ParseUint(params[0], 10, 64)
	right, err2 := strconv.ParseUint(params[2], 10, 64)
	if err1 != nil || err2 != nil {
		return "", fmt.Errorf("btree: bad root child pids %v", params)
	}
	n := inner{
		keys:     []string{params[1]},
		children: []storage.PageID{storage.PageID(left), storage.PageID(right)},
	}
	return c.Call(self2page(self), "write", encodeInner(n))
}

// nodeCompDelete is the compensation counterpart of a leaf insert: it
// deletes k, FOLLOWING B-link moved-chains itself — a plain node delete
// returns moved|<pid> and relies on the tree method to chase it, but a
// compensation must be self-contained (it may run during rollback or crash
// recovery long after the insert, when splits have moved the key).
// params: key, maxKeys.
func (m *Module) nodeCompDelete(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 2 {
		return "", fmt.Errorf("btree: compDelete needs key and maxKeys")
	}
	res, err := m.nodeDelete(c, self, params)
	if err != nil {
		return "", err
	}
	if next, ok := strings.CutPrefix(res, "moved|"); ok {
		pid, err := parsePID(next)
		if err != nil {
			return "", err
		}
		return c.Call(nodeOID(pid), "compDelete", params...)
	}
	return res, nil
}

// nodeCompInsert is the compensation counterpart of a leaf delete: it
// re-inserts k=v, following moved-chains, and NEVER splits — the node may
// go temporarily overfull (it heals on the next regular insert), because a
// compensation must not start structure modifications of its own.
// params: key, value, maxKeys.
func (m *Module) nodeCompInsert(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 3 {
		return "", fmt.Errorf("btree: compInsert needs key, value, maxKeys")
	}
	k, v := params[0], params[1]
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	l, _, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l == nil {
		return "", fmt.Errorf("%w: compInsert into inner node %s", ErrCorruptEntry, self.Name)
	}
	if movedPast(l.high, l.next, k) {
		return c.Call(nodeOID(l.next), "compInsert", params...)
	}
	i := sort.SearchStrings(l.keys, k)
	old := ""
	if i < len(l.keys) && l.keys[i] == k {
		old = l.vals[i]
		l.vals[i] = v
	} else {
		l.keys = append(l.keys, "")
		copy(l.keys[i+1:], l.keys[i:])
		l.keys[i] = k
		l.vals = append(l.vals, "")
		copy(l.vals[i+1:], l.vals[i:])
		l.vals[i] = v
	}
	if _, err := c.Call(self2page(self), "write", encodeLeaf(*l)); err != nil {
		return "", err
	}
	return "ok|" + old, nil
}

// nodeScanLeaf returns a leaf's pairs and successor: "<next>|k1:v1;k2:v2",
// the pairs being the kv= body as stored.
func (m *Module) nodeScanLeaf(c *core.Ctx, self txn.OID, params []string) (string, error) {
	data, err := m.readNode(c, self, "read")
	if err != nil {
		return "", err
	}
	return scanIn(data)
}

// readNode reads the page behind a node object with the given page method
// ("read" or "readx").
func (m *Module) readNode(c *core.Ctx, self txn.OID, how string) (string, error) {
	return c.Call(self2page(self), how)
}

func self2page(self txn.OID) txn.OID {
	return txn.OID{Type: core.PageType, Name: "Page" + strings.TrimPrefix(self.Name, "Node")}
}

func pidStr(p storage.PageID) string {
	return strconv.FormatUint(uint64(p), 10)
}
