package list

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

func newDB(t testing.TB, p core.ProtocolKind) (*core.DB, *Module) {
	t.Helper()
	db := core.Open(core.Options{Protocol: p, LockTimeout: 5 * time.Second})
	m, err := Install(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func runOne(t testing.TB, db *core.DB, obj txn.OID, method string, params ...string) string {
	t.Helper()
	for attempt := 0; ; attempt++ {
		tx := db.Begin()
		res, err := tx.Exec(obj, method, params...)
		if err == nil {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return res
		}
		_ = tx.Abort()
		if attempt == 19 {
			t.Fatalf("%s.%s%v failed: %v", obj.Name, method, params, err)
		}
	}
}

func TestNewListValidation(t *testing.T) {
	_, m := newDB(t, core.ProtocolOpenNested)
	if _, err := m.NewList("x", 0); err == nil {
		t.Fatal("capacity 0 must fail")
	}
	if _, err := m.NewList("a|b", 4); !errors.Is(err, ErrBadKey) {
		t.Fatal("reserved name must fail")
	}
	if _, err := m.NewList("L", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewList("L", 4); err == nil {
		t.Fatal("duplicate must fail")
	}
	if _, ok := m.Get("L"); !ok {
		t.Fatal("Get failed")
	}
}

func TestAppendReadSeq(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 3)
	for i := 0; i < 10; i++ {
		if res := runOne(t, db, l.OID(), "append", fmt.Sprintf("k%d", i), fmt.Sprintf("r%d", i)); res != "ok" {
			t.Fatalf("append = %q", res)
		}
	}
	seq := runOne(t, db, l.OID(), "readSeq")
	parts := strings.Split(seq, ";")
	if len(parts) != 10 {
		t.Fatalf("readSeq has %d entries: %q", len(parts), seq)
	}
	// Append order preserved.
	for i, p := range parts {
		if p != fmt.Sprintf("k%d:r%d", i, i) {
			t.Fatalf("entry %d = %q", i, p)
		}
	}
}

func TestRemove(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 2)
	for i := 0; i < 6; i++ {
		runOne(t, db, l.OID(), "append", fmt.Sprintf("k%d", i), "r")
	}
	if got := runOne(t, db, l.OID(), "remove", "k3"); got != "r" {
		t.Fatalf("remove = %q", got)
	}
	if got := runOne(t, db, l.OID(), "remove", "k3"); got != "" {
		t.Fatalf("double remove = %q", got)
	}
	seq := runOne(t, db, l.OID(), "readSeq")
	if strings.Contains(seq, "k3") {
		t.Fatalf("k3 survived: %q", seq)
	}
	if got := len(strings.Split(seq, ";")); got != 5 {
		t.Fatalf("entries = %d", got)
	}
}

func TestAppendCompensation(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 4)
	runOne(t, db, l.OID(), "append", "keep", "r")

	tx := db.Begin()
	if _, err := tx.Exec(l.OID(), "append", "doomed", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(l.OID(), "remove", "keep"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	seq := runOne(t, db, l.OID(), "readSeq")
	if strings.Contains(seq, "doomed") {
		t.Fatalf("aborted append visible: %q", seq)
	}
	if !strings.Contains(seq, "keep") {
		t.Fatalf("aborted remove not compensated: %q", seq)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("trace must validate: %+v", rep)
	}
}

func TestConcurrentAppendsDistinctKeys(t *testing.T) {
	for _, p := range []core.ProtocolKind{core.ProtocolOpenNested, core.Protocol2PLPage} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			l, _ := m.NewList("L", 3)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						runOne(t, db, l.OID(), "append", fmt.Sprintf("g%d-%02d", g, i), "r")
					}
				}(g)
			}
			wg.Wait()
			seq := runOne(t, db, l.OID(), "readSeq")
			entries := strings.Split(seq, ";")
			if len(entries) != 90 {
				t.Fatalf("entries = %d, want 90", len(entries))
			}
			keys := make([]string, len(entries))
			for i, e := range entries {
				keys[i], _, _ = strings.Cut(e, ":")
			}
			sort.Strings(keys)
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("duplicate key %q", keys[i])
				}
			}
			_, rep, err := db.Validate()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.SystemOOSerializable {
				t.Fatalf("trace must validate: %+v", rep)
			}
		})
	}
}

func TestBadParams(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 4)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Exec(l.OID(), "append", "a;b", "r"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Exec(l.OID(), "append", "k"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("missing ref: %v", err)
	}
	if _, err := tx.Exec(l.OID(), "remove", ""); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
}

// The decoded spine page: the oracle cutSpine and the spine edits are
// checked against. Production code never decodes a spine page.

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

// spineBad are pages neither decodeSpine nor cutSpine accepts.
var spineBad = []string{"", "nope", "next=x|", "next=5x|", "next=0|brokenpair", "next=0|a:1;", "next=0|;a:1", "next=0|a:1;;b:2"}

func TestSpineEncoding(t *testing.T) {
	s := spine{next: 9, keys: []string{"a", "b"}, refs: []string{"1", "2"}}
	got, err := decodeSpine(encodeSpine(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.next != 9 || len(got.keys) != 2 || got.refs[1] != "2" {
		t.Fatalf("round trip: %+v", got)
	}
	for _, bad := range spineBad {
		if _, err := decodeSpine(bad); err == nil {
			t.Errorf("decodeSpine(%q) should fail", bad)
		}
		if _, err := cutSpine(bad, "a"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cutSpine(%q) = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestSpineEditsMatchDecode: on pages the engine writes, cutSpine reads
// what decodeSpine reads, and appending, chaining and cutting each key
// (first, middle, last, only, duplicated) give the bytes decode-edit-encode
// gave.
func TestSpineEditsMatchDecode(t *testing.T) {
	pages := []spine{
		{},
		{next: 3},
		{keys: []string{"a"}, refs: []string{"1"}},
		{next: 12, keys: []string{"a", "b", "c"}, refs: []string{"1", "2", "3"}},
		{keys: []string{"k", "j"}, refs: []string{"r", ""}},
		{next: 7, keys: []string{"a", "b", "a"}, refs: []string{"1", "2", "3"}},
	}
	for _, p := range pages {
		data := encodeSpine(p)
		want := func(next storage.PageID, keys, refs []string) string {
			return encodeSpine(spine{next: next, keys: keys, refs: refs})
		}
		s, err := cutSpine(data, "")
		if err != nil {
			t.Fatalf("cutSpine(%q): %v", data, err)
		}
		if s.next != p.next || s.n != len(p.keys) || s.body != strings.TrimPrefix(data, fmt.Sprintf("next=%d|", p.next)) {
			t.Errorf("cutSpine(%q) = %+v", data, s)
		}
		if got := s.withPair("new", "r9"); got != want(p.next, append(slices.Clip(p.keys), "new"), append(slices.Clip(p.refs), "r9")) {
			t.Errorf("append to %q = %q", data, got)
		}
		if got := s.withNext(42); got != want(42, p.keys, p.refs) {
			t.Errorf("chain %q = %q", data, got)
		}
		for _, k := range append([]string{"zz"}, p.keys...) {
			s, err := cutSpine(data, k)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.Index(p.keys, k)
			if (s.at >= 0) != (i >= 0) {
				t.Fatalf("cutSpine(%q, %q) found = %v, want %v", data, k, s.at >= 0, i >= 0)
			}
			if i < 0 {
				continue
			}
			keys := slices.Delete(slices.Clone(p.keys), i, i+1)
			refs := slices.Delete(slices.Clone(p.refs), i, i+1)
			if got := s.without(); got != want(p.next, keys, refs) || s.ref != p.refs[i] {
				t.Errorf("remove %q from %q = %q, ref %q; want %q, ref %q", k, data, got, s.ref, want(p.next, keys, refs), p.refs[i])
			}
		}
	}
}

// protocols are the four locking protocols a list runs under.
var protocols = []core.ProtocolKind{
	core.ProtocolOpenNested, core.Protocol2PLPage, core.Protocol2PLObject, core.ProtocolClosedNested,
}

// TestAbortedChainLeavesListUsable: an aborted append that chained a fresh
// spine page leaves the tail hint (and the key hint) naming that page. Under
// physical undo the page is back to "", so the next append must restart
// from the head and the next remove must fall back to the walk.
func TestAbortedChainLeavesListUsable(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			l, _ := m.NewList("L", 2)
			runOne(t, db, l.OID(), "append", "a", "r")
			runOne(t, db, l.OID(), "append", "b", "r")
			tx := db.Begin()
			if _, err := tx.Exec(l.OID(), "append", "c", "r"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := runOne(t, db, l.OID(), "append", "d", "r"); got != "ok" {
				t.Fatalf("append d = %q", got)
			}
			if got := runOne(t, db, l.OID(), "remove", "c"); got != "" {
				t.Fatalf("remove c = %q", got)
			}
			if got := runOne(t, db, l.OID(), "readSeq"); got != "a:r;b:r;d:r" {
				t.Fatalf("readSeq = %q", got)
			}
		})
	}
}

// TestRemoveProbesHintedPage: removing the last-appended key of a long
// chain touches the hinted page only, not every page from the head.
func TestRemoveProbesHintedPage(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 2)
	for i := 0; i < 200; i++ {
		runOne(t, db, l.OID(), "append", fmt.Sprintf("k%03d", i), "r")
	}
	before := db.Stats().Actions
	if got := runOne(t, db, l.OID(), "remove", "k199"); got != "r" {
		t.Fatalf("remove = %q", got)
	}
	if n := db.Stats().Actions - before; n > 4 {
		t.Fatalf("remove ran %d actions, want <= 4", n)
	}
}

// TestRemoveMatchesModel runs seeded random append/remove transactions,
// aborting every k-th one, and holds every remove result and the final
// contents to a map of the committed state.
func TestRemoveMatchesModel(t *testing.T) {
	const txns, abortEvery = 150, 4
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			db, m := newDB(t, p)
			l, _ := m.NewList("L", 2)
			rng := rand.New(rand.NewSource(7))
			model := map[string]string{}       // committed key → ref
			abortedAppend := map[string]bool{} // appended only by aborted txns
			removed := map[string]bool{}       // removed by a committed txn
			var removesOfAborted, reappends int
			for i := 0; i < txns; i++ {
				abort := i%abortEvery == abortEvery-1
				state := maps.Clone(model)
				var appended, removedHere []string
				tx := db.Begin()
				for op := 0; op < 1+rng.Intn(3); op++ {
					key := fmt.Sprintf("k%d", rng.Intn(12))
					if _, present := state[key]; !present && rng.Intn(2) == 0 {
						ref := fmt.Sprintf("r%d.%d", i, op)
						if got, err := tx.Exec(l.OID(), "append", key, ref); err != nil || got != "ok" {
							t.Fatalf("txn %d append %s = %q, %v", i, key, got, err)
						}
						state[key] = ref
						appended = append(appended, key)
						continue
					}
					got, err := tx.Exec(l.OID(), "remove", key)
					if err != nil {
						t.Fatalf("txn %d remove %s: %v", i, key, err)
					}
					if got != state[key] {
						t.Fatalf("txn %d remove %s = %q, model says %q", i, key, got, state[key])
					}
					if abortedAppend[key] {
						removesOfAborted++
					}
					delete(state, key)
					removedHere = append(removedHere, key)
				}
				if abort {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					for _, k := range appended {
						abortedAppend[k] = true
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, k := range appended {
					if removed[k] {
						reappends++
					}
					delete(abortedAppend, k)
				}
				for _, k := range removedHere {
					removed[k] = true
				}
				model = state
			}
			if removesOfAborted == 0 || reappends == 0 {
				t.Fatalf("sequence too tame: %d removes of aborted appends, %d re-appends", removesOfAborted, reappends)
			}
			got := map[string]string{}
			if seq := runOne(t, db, l.OID(), "readSeq"); seq != "" {
				for _, e := range strings.Split(seq, ";") {
					k, ref, _ := strings.Cut(e, ":")
					got[k] = ref
				}
			}
			if !maps.Equal(got, model) {
				t.Fatalf("readSeq = %v, model = %v", got, model)
			}
		})
	}
}

// TestConcurrentAppendRemoveDistinctKeys: open-nested appends and removes
// of distinct keys run concurrently through the hint and the walk, and the
// trace stays oo-serializable.
func TestConcurrentAppendRemoveDistinctKeys(t *testing.T) {
	db, m := newDB(t, core.ProtocolOpenNested)
	l, _ := m.NewList("L", 3)
	exec := func(method string, params ...string) (res string, err error) {
		err = db.RunWithRetry(core.RetryPolicy{MaxAttempts: 200}, func(tx *core.Txn) error {
			res, err = tx.Exec(l.OID(), method, params...)
			return err
		})
		return res, err
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				key := fmt.Sprintf("g%d-%02d", g, i)
				if _, err := exec("append", key, "r"); err != nil {
					t.Errorf("append %s: %v", key, err)
				}
				if i%2 == 0 {
					continue
				}
				if got, err := exec("remove", key); err != nil || got != "r" {
					t.Errorf("remove %s = %q, %v", key, got, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(strings.Split(runOne(t, db, l.OID(), "readSeq"), ";")); n != 24 {
		t.Fatalf("entries = %d, want 24", n)
	}
	_, rep, err := db.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SystemOOSerializable {
		t.Fatalf("trace must validate: %+v", rep)
	}
}

func BenchmarkAppend(b *testing.B) {
	db := core.Open(core.Options{Protocol: core.ProtocolOpenNested, DisableTrace: true})
	m, _ := Install(db)
	l, _ := m.NewList("L", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(l.OID(), "append", fmt.Sprintf("k%09d", i), "r"); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}
