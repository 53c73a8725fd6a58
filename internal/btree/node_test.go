package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/storage"
)

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

// Property: on random leaves and inner nodes (0-120 keys, with and without
// high/next), routeIn, searchIn and scanIn return exactly what the decoding
// readers return, for every probe key.
func TestInPlaceReadersMatchDecode(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		keys := randKeys(r, r.Intn(121))
		var next storage.PageID
		if r.Intn(2) == 0 {
			next = storage.PageID(1 + r.Intn(100000))
		}
		high := ""
		if r.Intn(2) == 0 {
			high = randKeys(r, 1)[0]
		}
		var data string
		if r.Intn(2) == 0 {
			vals := make([]string, len(keys))
			for i := range vals {
				vals[i] = fmt.Sprintf("v%d", r.Intn(1000))
			}
			data = encodeLeaf(leaf{next: next, high: high, keys: keys, vals: vals})
		} else {
			children := make([]storage.PageID, len(keys)+1)
			for i := range children {
				children[i] = storage.PageID(r.Intn(1000000))
			}
			data = encodeInner(inner{next: next, high: high, keys: keys, children: children})
		}
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
