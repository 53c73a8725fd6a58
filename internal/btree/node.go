package btree

import (
	"fmt"
	"math"
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
// Reads (route, search, scanLeaf) and writes both work on the stored string
// in place: they cut the header and walk the body, allocating no slices
// and parsing only the pids they need. A write is a splice: it walks the
// body once to find where the entry goes, then builds the new page with
// one concatenation of the stored text around the edited entry, so a key
// insert changes one entry of one page, as in the paper's Example 1. A
// split cuts the edited body in two and renders only the left half's new
// header. Every page the engine writes has the bytes a decode-edit-encode
// would give it; the text format stays so traces and page images remain
// readable.

// emptyLeaf is a fresh tree's root: a leaf with no pairs, high key or link.
const emptyLeaf = "L|next=0|high=|kv="

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

// --- splices ---------------------------------------------------------------

// allocFunc allocates the fresh right sibling of a split. A splice
// (insertLeaf, deleteLeaf, insertChildIn) works a node write out on the
// stored page and returns the method's result, the node's new page ("" when
// nothing changes) and the right sibling's page ("" unless it split).
type allocFunc func() (storage.PageID, error)

// leafAt is where key k lands in a leaf page whose body starts at byte head
// and holds n pairs: the first pair whose key is >= k starts at off
// (len(data) when none does), and when that key is k its value is
// data[vs:ve].
type leafAt struct {
	head, n, off, vs, ve int
	found                bool
}

// locate cuts a leaf page and walks its body once, checking every pair for
// its ':' as a decode does, so a corrupt page fails wherever k lies. moved
// is "moved|<next>" when k lies right of the leaf.
func locate(data, k string) (at leafAt, moved string, err error) {
	h, err := cutHeader(data)
	if err != nil {
		return at, "", err
	}
	if !h.isLeaf {
		return at, "", fmt.Errorf("%w: leaf write on inner node %q", ErrCorruptEntry, truncate(data))
	}
	at.head, at.off = len(data)-len(h.body), -1
	pos := at.head
	for rest, more := h.body, h.body != ""; more; at.n++ {
		var pair string
		pair, rest, more = strings.Cut(rest, ";")
		key, _, ok := strings.Cut(pair, ":")
		if !ok {
			return at, "", fmt.Errorf("%w: pair %q", ErrCorruptEntry, pair)
		}
		if at.off < 0 && key >= k {
			at.off, at.found, at.vs, at.ve = pos, key == k, pos+len(key)+1, pos+len(pair)
		}
		pos += len(pair) + 1
	}
	if at.off < 0 {
		at.off = len(data)
	}
	if movedPast(h.high, h.next, k) {
		moved = "moved|" + pidStr(h.next)
	}
	return at, moved, nil
}

// cutAt returns the offset just past the m-th sep in s (0 when m is 0); s
// holds at least m of them.
func cutAt(s string, sep byte, m int) int {
	off := 0
	for ; m > 0; m-- {
		off += strings.IndexByte(s[off:], sep) + 1
	}
	return off
}

// insertLeaf splices k=v into a leaf: "ok|<old>", "moved|<next>", or, past
// maxKeys pairs, "split|<sep>|<new>|<old>" with the lower half as page and
// the upper half, under the old next and high, as right.
func insertLeaf(data, k, v string, maxKeys int, alloc allocFunc) (res, page, right string, err error) {
	at, moved, err := locate(data, k)
	if err != nil || moved != "" {
		return moved, "", "", err
	}
	old, n := "", at.n+1
	switch {
	case at.found:
		old, n = data[at.vs:at.ve], at.n
		page = data[:at.vs] + v + data[at.ve:]
	case at.n == 0:
		page = data + k + ":" + v
	case at.off == len(data):
		page = data + ";" + k + ":" + v
	default:
		page = data[:at.off] + k + ":" + v + ";" + data[at.off:]
	}
	if n <= maxKeys {
		return "ok|" + old, page, "", nil
	}
	body := page[at.head:]
	cut := cutAt(body, ';', n/2)
	sep, _, _ := strings.Cut(body[cut:], ":")
	pid, err := alloc()
	if err != nil {
		return "", "", "", err
	}
	p := pidStr(pid)
	return "split|" + sep + "|" + p + "|" + old, "L|next=" + p + "|high=" + sep + "|kv=" + body[:max(cut-1, 0)], page[:at.head] + body[cut:], nil
}

// deleteLeaf cuts k's pair and one ';' from a leaf: "val|<old>", "miss" or
// "moved|<next>".
func deleteLeaf(data, k string) (res, page, right string, err error) {
	at, moved, err := locate(data, k)
	switch {
	case err != nil || moved != "":
		return moved, "", "", err
	case !at.found:
		return "miss", "", "", nil
	case at.n == 1:
		page = data[:at.head]
	case at.ve == len(data):
		page = data[:at.off-1]
	default:
		page = data[:at.off] + data[at.ve+1:]
	}
	return "val|" + data[at.vs:at.ve], page, "", nil
}

// insertChildIn splices separator sep and child pid into an inner node
// after the child sort.SearchStrings picks: "ok", "moved|<next>", or, past
// maxKeys separators, "split|<sep>|<new>", which promotes the middle
// separator instead of copying it. The walk checks the node's arity and
// every child pid, as a decode does.
func insertChildIn(data, sep string, child storage.PageID, maxKeys int, alloc allocFunc) (res, page, right string, err error) {
	h, err := cutHeader(data)
	if err == nil && h.isLeaf {
		err = fmt.Errorf("%w: insertChild into leaf %q", ErrCorruptEntry, truncate(data))
	}
	if err != nil {
		return "", "", "", err
	}
	head, at, nk, i := len(data)-len(h.body), -1, 0, 0
	for rest, more, pos := h.body, true, head; more; i++ {
		var f string
		f, rest, more = strings.Cut(rest, ",")
		if i%2 == 0 {
			if _, err := strconv.ParseUint(f, 10, 64); err != nil {
				return "", "", "", fmt.Errorf("%w: child pid %q", ErrCorruptEntry, f)
			}
		} else if nk++; at < 0 && f >= sep {
			at = pos - 1
		}
		pos += len(f) + 1
	}
	if i%2 == 0 {
		return "", "", "", fmt.Errorf("%w: inner arity in %q", ErrCorruptEntry, truncate(data))
	}
	if movedPast(h.high, h.next, sep) {
		return "moved|" + pidStr(h.next), "", "", nil
	}
	if at < 0 {
		at = len(data)
	}
	page = data[:at] + "," + sep + "," + pidStr(child) + data[at:]
	if nk++; nk <= maxKeys {
		return "ok", page, "", nil
	}
	body := page[head:]
	lo := cutAt(body, ',', 2*(nk/2)+1)
	hi := lo + strings.IndexByte(body[lo:], ',') + 1
	promoted := body[lo : hi-1]
	pid, err := alloc()
	if err != nil {
		return "", "", "", err
	}
	p := pidStr(pid)
	return "split|" + promoted + "|" + p, "I|next=" + p + "|high=" + promoted + "|ch=" + body[:lo-1], page[:head] + body[hi:], nil
}

// nodeWriter runs a splice for a node method: it allocates the fresh right
// sibling of a split on demand and writes what the splice worked out.
type nodeWriter struct {
	c           *core.Ctx
	self, fresh txn.OID
}

func (w *nodeWriter) alloc() (storage.PageID, error) {
	w.fresh = w.c.DB().AllocPage()
	return core.PageID(w.fresh)
}

// write writes a split's right sibling first, so a concurrent descent that
// still reaches self sees a consistent B-link chain either way, then self.
func (w *nodeWriter) write(res, page, right string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if right != "" {
		if _, err := w.c.Call(w.fresh, "write", right); err != nil {
			return "", err
		}
	}
	if page != "" {
		if _, err := w.c.Call(self2page(w.self), "write", page); err != nil {
			return "", err
		}
	}
	return res, nil
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
	maxKeys, err := strconv.Atoi(params[2])
	if err != nil {
		return "", fmt.Errorf("btree: bad maxKeys %q", params[2])
	}
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	w := &nodeWriter{c: c, self: self}
	return w.write(insertLeaf(data, params[0], params[1], maxKeys, w.alloc))
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
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	return (&nodeWriter{c: c, self: self}).write(deleteLeaf(data, params[0]))
}

// nodeInsertChild posts a separator and new-child pid into an inner node:
// "ok", "moved|<pid>", or "split|<sep>|<new>". params: sep, newpid, maxKeys.
func (m *Module) nodeInsertChild(c *core.Ctx, self txn.OID, params []string) (string, error) {
	if len(params) != 3 {
		return "", fmt.Errorf("btree: insertChild needs sep, pid, maxKeys")
	}
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
	w := &nodeWriter{c: c, self: self}
	return w.write(insertChildIn(data, params[0], storage.PageID(newPID), maxKeys, w.alloc))
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
	page := "I|next=0|high=|ch=" + pidStr(storage.PageID(left)) + "," + params[1] + "," + pidStr(storage.PageID(right))
	return c.Call(self2page(self), "write", page)
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
	return m.chaseMoved(c, res, err, "compDelete", params)
}

// chaseMoved sends a compensation on along the B-link when res says the
// key range moved right; otherwise res is the compensation's result.
func (m *Module) chaseMoved(c *core.Ctx, res string, err error, method string, params []string) (string, error) {
	next, ok := strings.CutPrefix(res, "moved|")
	if err != nil || !ok {
		return res, err
	}
	pid, err := parsePID(next)
	if err != nil {
		return "", err
	}
	return c.Call(m.nodeOID(pid), method, params...)
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
	data, err := m.readNode(c, self, "readx")
	if err != nil {
		return "", err
	}
	res, err := (&nodeWriter{c: c, self: self}).write(insertLeaf(data, params[0], params[1], math.MaxInt, nil))
	return m.chaseMoved(c, res, err, "compInsert", params)
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

// self2page names the page behind a node object.
func self2page(self txn.OID) txn.OID { return core.PageBehind(self, "Node") }

func pidStr(p storage.PageID) string {
	return strconv.FormatUint(uint64(p), 10)
}
