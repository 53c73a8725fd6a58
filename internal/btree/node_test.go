package btree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/storage"
)

// The decoded node: the oracle the in-place readers and the splice writers
// are checked against. Production code never decodes a node.

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

// The decode-edit-encode writers: nodeInsert, nodeDelete and
// nodeInsertChild as they were before the splices, as pure functions with
// the splices' signatures, kept as their oracle.

func insertByDecode(data, k, v string, maxKeys int, alloc allocFunc) (res, page, right string, err error) {
	l, _, err := decodePage(data)
	if err != nil {
		return "", "", "", err
	}
	if l == nil {
		return "", "", "", ErrCorruptEntry
	}
	if movedPast(l.high, l.next, k) {
		return "moved|" + pidStr(l.next), "", "", nil
	}
	old := ""
	i := sort.SearchStrings(l.keys, k)
	if i < len(l.keys) && l.keys[i] == k {
		old = l.vals[i]
		l.vals[i] = v
	} else {
		l.keys = slices.Insert(l.keys, i, k)
		l.vals = slices.Insert(l.vals, i, v)
	}
	if len(l.keys) <= maxKeys {
		return "ok|" + old, encodeLeaf(*l), "", nil
	}
	mid := len(l.keys) / 2
	r := leaf{next: l.next, high: l.high, keys: l.keys[mid:], vals: l.vals[mid:]}
	sep := r.keys[0]
	pid, err := alloc()
	if err != nil {
		return "", "", "", err
	}
	left := leaf{next: pid, high: sep, keys: l.keys[:mid], vals: l.vals[:mid]}
	return fmt.Sprintf("split|%s|%s|%s", sep, pidStr(pid), old), encodeLeaf(left), encodeLeaf(r), nil
}

func deleteByDecode(data, k string) (res, page, right string, err error) {
	l, _, err := decodePage(data)
	if err != nil {
		return "", "", "", err
	}
	if l == nil {
		return "", "", "", ErrCorruptEntry
	}
	if movedPast(l.high, l.next, k) {
		return "moved|" + pidStr(l.next), "", "", nil
	}
	i := sort.SearchStrings(l.keys, k)
	if i >= len(l.keys) || l.keys[i] != k {
		return "miss", "", "", nil
	}
	old := l.vals[i]
	l.keys = slices.Delete(l.keys, i, i+1)
	l.vals = slices.Delete(l.vals, i, i+1)
	return "val|" + old, encodeLeaf(*l), "", nil
}

func insertChildByDecode(data, sep string, child storage.PageID, maxKeys int, alloc allocFunc) (res, page, right string, err error) {
	_, n, err := decodePage(data)
	if err != nil {
		return "", "", "", err
	}
	if n == nil {
		return "", "", "", ErrCorruptEntry
	}
	if movedPast(n.high, n.next, sep) {
		return "moved|" + pidStr(n.next), "", "", nil
	}
	i := sort.SearchStrings(n.keys, sep)
	n.keys = slices.Insert(n.keys, i, sep)
	n.children = slices.Insert(n.children, i+1, child)
	if len(n.keys) <= maxKeys {
		return "ok", encodeInner(*n), "", nil
	}
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	r := inner{next: n.next, high: n.high, keys: n.keys[mid+1:], children: n.children[mid+1:]}
	pid, err := alloc()
	if err != nil {
		return "", "", "", err
	}
	left := inner{next: pid, high: promoted, keys: n.keys[:mid], children: n.children[:mid+1]}
	return fmt.Sprintf("split|%s|%s", promoted, pidStr(pid)), encodeInner(left), encodeInner(r), nil
}

// childFor returns the child pid routing key k: keys[i-1] <= k < keys[i]
// routes to children[i]; equal keys route right (a separator is the first
// key of its right sibling). It is the decoded-node reference routeIn is
// checked against.
func (n *inner) childFor(k string) storage.PageID {
	i := sort.SearchStrings(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	return n.children[i]
}

// The decode-then-look-up readers: route, search and scanLeaf as they were
// before the in-place scans, kept as the oracle for routeIn, searchIn and
// scanIn.

func routeByDecode(data, k string) (string, error) {
	l, n, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l != nil {
		return "leaf", nil
	}
	if movedPast(n.high, n.next, k) {
		return "moved|" + pidStr(n.next), nil
	}
	return "child|" + pidStr(n.childFor(k)), nil
}

func searchByDecode(data, k string) (string, error) {
	l, _, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l == nil {
		return "", ErrCorruptEntry
	}
	if movedPast(l.high, l.next, k) {
		return "moved|" + pidStr(l.next), nil
	}
	i := sort.SearchStrings(l.keys, k)
	if i < len(l.keys) && l.keys[i] == k {
		return "val|" + l.vals[i], nil
	}
	return "miss", nil
}

func scanByDecode(data string) (string, error) {
	l, _, err := decodePage(data)
	if err != nil {
		return "", err
	}
	if l == nil {
		return "", ErrCorruptEntry
	}
	var kv strings.Builder
	for i, k := range l.keys {
		if i > 0 {
			kv.WriteByte(';')
		}
		kv.WriteString(k)
		kv.WriteByte(':')
		kv.WriteString(l.vals[i])
	}
	return pidStr(l.next) + "|" + kv.String(), nil
}

// sameRead reports whether an in-place reader and its oracle agree: the
// same result, or both a corrupt-entry error.
func sameRead(got string, gotErr error, want string, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return errors.Is(gotErr, ErrCorruptEntry) && errors.Is(wantErr, ErrCorruptEntry)
	}
	return got == want
}

// randKeys returns n distinct sorted keys over a small alphabet, so probes
// often share prefixes with stored keys.
func randKeys(r *rand.Rand, n int) []string {
	const alphabet = "abxyz019"
	seen := map[string]bool{}
	var keys []string
	for len(keys) < n {
		b := make([]byte, 1+r.Intn(5))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		if k := string(b); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// probes are keys below, equal to, just above, and between the stored keys,
// around the high key, and above everything.
func probes(keys []string, high string) []string {
	out := []string{"", "0", "~~", high, high + "!"}
	for _, k := range keys {
		// '!' sorts below every key byte, so k+"!" lies just above k and
		// below any longer key that extends it; k[:1] lies at or below k.
		out = append(out, k, k+"!", k[:1])
	}
	return out
}

// randPage returns a random leaf or inner node of 0-120 keys, with and
// without high/next, as the old encoder rendered it, with its keys and
// high key.
func randPage(r *rand.Rand) (data string, keys []string, high string) {
	keys = randKeys(r, r.Intn(121))
	var next storage.PageID
	if r.Intn(2) == 0 {
		next = storage.PageID(1 + r.Intn(100000))
	}
	if r.Intn(2) == 0 {
		high = randKeys(r, 1)[0]
	}
	if r.Intn(2) == 0 {
		vals := make([]string, len(keys))
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", r.Intn(1000))
		}
		return encodeLeaf(leaf{next: next, high: high, keys: keys, vals: vals}), keys, high
	}
	children := make([]storage.PageID, len(keys)+1)
	for i := range children {
		children[i] = storage.PageID(r.Intn(1000000))
	}
	return encodeInner(inner{next: next, high: high, keys: keys, children: children}), keys, high
}

// Property: on random leaves and inner nodes (0-120 keys, with and without
// high/next), routeIn, searchIn and scanIn return exactly what the decoding
// readers return, for every probe key.
func TestInPlaceReadersMatchDecode(t *testing.T) {
	check := func(seed int64) bool {
		data, keys, high := randPage(rand.New(rand.NewSource(seed)))
		for _, k := range probes(keys, high) {
			got, gotErr := routeIn(data, k)
			want, wantErr := routeByDecode(data, k)
			if gotErr != nil || !sameRead(got, gotErr, want, wantErr) {
				t.Logf("route(%q) on %q = %q, %v; want %q, %v", k, data, got, gotErr, want, wantErr)
				return false
			}
			got, gotErr = searchIn(data, k)
			want, wantErr = searchByDecode(data, k)
			if !sameRead(got, gotErr, want, wantErr) {
				t.Logf("search(%q) on %q = %q, %v; want %q, %v", k, data, got, gotErr, want, wantErr)
				return false
			}
		}
		got, gotErr := scanIn(data)
		want, wantErr := scanByDecode(data)
		if !sameRead(got, gotErr, want, wantErr) {
			t.Logf("scanLeaf on %q = %q, %v; want %q, %v", data, got, gotErr, want, wantErr)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// headerDamage are pages whose header does not decode.
var headerDamage = []string{
	"", "L|", "L|next=0|high=", "I|next=x|high=|ch=1", "I|next=|high=|ch=1",
	"L|next=-1|high=|kv=", "L|high=|next=0|kv=", "X|next=0|high=|kv=",
	"L|next=0|high=|ch=1", "I|next=0|high=|kv=1", "I|next=0|high=|ch=",
	"L|nxt=0|high=|kv=", "L|next=0|hi=|kv=",
}

func TestInPlaceReadersRejectHeaderDamage(t *testing.T) {
	for _, data := range headerDamage {
		if _, _, err := decodePage(data); !errors.Is(err, ErrCorruptEntry) {
			t.Errorf("decodePage(%q) = %v, want ErrCorruptEntry", data, err)
		}
		if _, err := routeIn(data, "k"); !errors.Is(err, ErrCorruptEntry) {
			t.Errorf("routeIn(%q) = %v, want ErrCorruptEntry", data, err)
		}
		if _, err := searchIn(data, "k"); !errors.Is(err, ErrCorruptEntry) {
			t.Errorf("searchIn(%q) = %v, want ErrCorruptEntry", data, err)
		}
		if _, err := scanIn(data); !errors.Is(err, ErrCorruptEntry) {
			t.Errorf("scanIn(%q) = %v, want ErrCorruptEntry", data, err)
		}
	}
}

// strictlySorted reports whether keys ascend without repeats, as every
// written node's keys do; only then do the in-place scans promise to match
// the binary searches of the decoding readers.
func strictlySorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}

// FuzzNodeRead: the in-place readers never panic, fail only with
// ErrCorruptEntry, fail whenever the header does not decode, and agree with
// the decoding readers wherever decodePage accepts a well-formed node.
func FuzzNodeRead(f *testing.F) {
	for _, s := range headerDamage {
		f.Add(s, "k")
	}
	f.Add("L|next=0|high=|kv=", "a")
	f.Add("L|next=4|high=m|kv=a:1;b:2;c:", "b")
	f.Add("L|next=0|high=|kv=broken", "a")
	f.Add("I|next=9|high=q|ch=1,g,2,p,3", "g")
	f.Add("I|next=0|high=|ch=007,g,08", "z")
	f.Add("I|next=0|high=|ch=1,g", "a")
	f.Fuzz(func(t *testing.T, data, k string) {
		route, routeErr := routeIn(data, k)
		search, searchErr := searchIn(data, k)
		scan, scanErr := scanIn(data)
		for _, err := range []error{routeErr, searchErr, scanErr} {
			if err != nil && !errors.Is(err, ErrCorruptEntry) {
				t.Fatalf("reader on %q failed with %v, want ErrCorruptEntry", data, err)
			}
		}
		if _, err := cutHeader(data); err != nil {
			if routeErr == nil || searchErr == nil || scanErr == nil {
				t.Fatalf("header damage in %q not rejected: %v %v %v", data, routeErr, searchErr, scanErr)
			}
			return
		}
		l, n, err := decodePage(data)
		if err != nil || (l != nil && !strictlySorted(l.keys)) || (n != nil && !strictlySorted(n.keys)) {
			return
		}
		want, wantErr := routeByDecode(data, k)
		if !sameRead(route, routeErr, want, wantErr) {
			t.Fatalf("route(%q) on %q = %q, %v; want %q, %v", k, data, route, routeErr, want, wantErr)
		}
		want, wantErr = searchByDecode(data, k)
		if !sameRead(search, searchErr, want, wantErr) {
			t.Fatalf("search(%q) on %q = %q, %v; want %q, %v", k, data, search, searchErr, want, wantErr)
		}
		want, wantErr = scanByDecode(data)
		if !sameRead(scan, scanErr, want, wantErr) {
			t.Fatalf("scanLeaf on %q = %q, %v; want %q, %v", data, scan, scanErr, want, wantErr)
		}
	})
}

// joinWrite renders a writer's result and pages as one string, so sameRead
// can compare a splice with its oracle.
func joinWrite(res, page, right string, err error) (string, error) {
	return fmt.Sprintf("%q %q %q", res, page, right), err
}

// nodeWriters pairs each splice writer with its decode-edit-encode oracle,
// both bound to one write's key k, value v, capacity and new child pid. A
// split's fresh page is always pid 4242.
func nodeWriters(k, v string, maxKeys int, child storage.PageID) map[string][2]func(string) (string, error) {
	alloc := func() (storage.PageID, error) { return 4242, nil }
	return map[string][2]func(string) (string, error){
		"insert": {
			func(d string) (string, error) { return joinWrite(insertLeaf(d, k, v, maxKeys, alloc)) },
			func(d string) (string, error) { return joinWrite(insertByDecode(d, k, v, maxKeys, alloc)) },
		},
		"compInsert": {
			func(d string) (string, error) { return joinWrite(insertLeaf(d, k, v, math.MaxInt, nil)) },
			func(d string) (string, error) { return joinWrite(insertByDecode(d, k, v, math.MaxInt, nil)) },
		},
		"delete": {
			func(d string) (string, error) { return joinWrite(deleteLeaf(d, k)) },
			func(d string) (string, error) { return joinWrite(deleteByDecode(d, k)) },
		},
		"insertChild": {
			func(d string) (string, error) { return joinWrite(insertChildIn(d, k, child, maxKeys, alloc)) },
			func(d string) (string, error) { return joinWrite(insertChildByDecode(d, k, child, maxKeys, alloc)) },
		},
	}
}

// writeMismatch runs every splice writer and its oracle on page data. The
// splice must fail, and only with ErrCorruptEntry, exactly when the oracle
// fails; when exact is set it must also return the oracle's result and
// bytes. It describes the first disagreement, or returns "".
func writeMismatch(data, k, v string, maxKeys int, child storage.PageID, exact bool) string {
	for name, w := range nodeWriters(k, v, maxKeys, child) {
		got, gotErr := w[0](data)
		want, wantErr := w[1](data)
		if (gotErr != nil && !errors.Is(gotErr, ErrCorruptEntry)) || (gotErr != nil) != (wantErr != nil) ||
			(exact && !sameRead(got, gotErr, want, wantErr)) {
			return fmt.Sprintf("%s(%q, %q, max %d) on %q = %s, %v; want %s, %v", name, k, v, maxKeys, data, got, gotErr, want, wantErr)
		}
	}
	return ""
}

// Property: on random leaves and inner nodes, every splice writer returns
// the bytes and result of decode-edit-encode, for 24 of the probe keys,
// with and without a split, overwriting and inserting, empty values
// included.
func TestSplicesMatchDecode(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data, keys, high := randPage(r)
		ks := probes(keys, high)
		r.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		for _, k := range ks[:min(len(ks), 24)] {
			maxKeys := max(len(keys)-1+r.Intn(3), 0)
			v := []string{"", "w", "val9"}[r.Intn(3)]
			if msg := writeMismatch(data, k, v, maxKeys, storage.PageID(r.Intn(1000000)), true); msg != "" {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNodeWrite: the splice writers never panic and fail, only with
// ErrCorruptEntry, exactly when their decode-edit-encode oracle fails. On
// a page with strictly sorted keys that the old encoder would have
// rendered byte for byte (canonical pids), they return the oracle's result
// and bytes. Keys and values are those the tree accepts.
func FuzzNodeWrite(f *testing.F) {
	for _, s := range headerDamage {
		f.Add(s, "k", "v", uint8(4), uint32(9))
	}
	f.Add("L|next=0|high=|kv=", "a", "1", uint8(0), uint32(9))
	f.Add("L|next=4|high=m|kv=a:1;b:2;c:", "b", "", uint8(2), uint32(9))
	f.Add("L|next=4|high=m|kv=a:1;c:3", "b", "x", uint8(2), uint32(9))
	f.Add("L|next=0|high=|kv=a:1;b:2;c:3", "c", "x", uint8(9), uint32(9))
	f.Add("L|next=0|high=|kv=broken", "a", "1", uint8(4), uint32(9))
	f.Add("L|next=007|high=|kv=a:1", "b", "2", uint8(4), uint32(9))
	f.Add("I|next=9|high=q|ch=1,g,2,p,3", "h", "", uint8(2), uint32(5))
	f.Add("I|next=0|high=|ch=1,g,2,p,3", "a", "", uint8(9), uint32(5))
	f.Add("I|next=0|high=|ch=007,g,08", "z", "", uint8(4), uint32(5))
	f.Add("I|next=0|high=|ch=1,g", "a", "", uint8(4), uint32(5))
	f.Fuzz(func(t *testing.T, data, k, v string, maxKeys uint8, child uint32) {
		if !validKV(k) || !validKV(v) {
			return
		}
		l, n, err := decodePage(data)
		exact := err == nil &&
			((l != nil && strictlySorted(l.keys) && encodeLeaf(*l) == data) ||
				(n != nil && strictlySorted(n.keys) && encodeInner(*n) == data))
		if msg := writeMismatch(data, k, v, int(maxKeys), storage.PageID(child), exact); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestScanAfterSplitsMatchesModel: after leaf and root splits and deletes
// that empty some leaves, scan returns every pair in key order, joined
// exactly as the decode-and-re-encode scan joined them.
func TestScanAfterSplitsMatchesModel(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	tr, _ := m.NewTree("t", 3)
	r := rand.New(rand.NewSource(11))
	model := map[string]string{}
	for _, i := range r.Perm(80) {
		v := fmt.Sprintf("v%d", i)
		runOne(t, db, tr.OID(), "insert", key(i), v)
		model[key(i)] = v
	}
	for i := 20; i < 40; i++ {
		runOne(t, db, tr.OID(), "delete", key(i))
		delete(model, key(i))
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want at least two root splits", tr.Height())
	}
	var want []string
	for k, v := range model {
		want = append(want, k+":"+v)
	}
	sort.Strings(want)
	if got := runOne(t, db, tr.OID(), "scan"); got != strings.Join(want, ";") {
		t.Fatalf("scan = %q\nwant %q", got, strings.Join(want, ";"))
	}
}
