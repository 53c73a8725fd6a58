package storage

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/span"
)

// rootOf and inSubtree are the string forms of Owner.Root and
// Owner.within, kept as their oracle: the root is the prefix before the
// first '.' once a diagnostic suffix is stripped at the first ':', and an
// owner is in an action's subtree when the action's id is its id or a
// prefix of it ending before a '.'.
func rootOf(owner string) string {
	if i := strings.IndexByte(owner, ':'); i >= 0 {
		owner = owner[:i]
	}
	if i := strings.IndexByte(owner, '.'); i >= 0 {
		owner = owner[:i]
	}
	return owner
}

func inSubtree(owner, action string) bool {
	return strings.HasPrefix(owner, action) && (len(owner) == len(action) || owner[len(action)] == '.')
}

// ownerSeeds are ids of both forms: canonical ones up to the inline depth,
// and ones kept rendered (too deep, a child number past 65535 or not
// canonical, a diagnostic suffix).
var ownerSeeds = []string{
	"T1", "T3.1", "T3.1.2", "T1.1.2.3.4.5.6.7.8", "T1.65535",
	"T01.1", "T3.1:undo", "T3:compensation-failed:core: boom", "repl:fence",
	"T1.1.2.3.4.5.6.7.8.9", "T1.70000", "T1.0", "T1.01", "T1.+1", "T1..2", "T1.",
	"", ".", ".1", "a:b.1", "T3.1:undo.2",
}

// FuzzOwner: every id parses to an owner that renders it back, whose root
// is the string form's, and which is in the subtree of exactly the owners
// the string form says, for the other input and for the prefixes of
// either id that end before one of its first 12 '.' or ':' (the pairs are
// quadratic in the prefixes).
func FuzzOwner(f *testing.F) {
	for i, s := range ownerSeeds {
		f.Add(s, ownerSeeds[(i+3)%len(ownerSeeds)])
	}
	f.Fuzz(func(t *testing.T, s, a string) {
		ids := []string{s, a}
		for _, id := range []string{s, a} {
			for i, cuts := 0, 0; i < len(id) && cuts < 12; i++ {
				if id[i] == '.' || id[i] == ':' {
					ids = append(ids, id[:i])
					cuts++
				}
			}
		}
		for _, id := range ids {
			o := ParseOwner(id)
			if got := o.String(); got != id {
				t.Fatalf("ParseOwner(%q).String() = %q", id, got)
			}
			if got, want := o.Root(), rootOf(id); got != want {
				t.Fatalf("ParseOwner(%q).Root() = %q, want %q", id, got, want)
			}
			if got, want := o.idLen(), len(id); got != want {
				t.Fatalf("ParseOwner(%q).idLen() = %d, want %d", id, got, want)
			}
			for _, other := range ids {
				if got, want := o.within(ParseOwner(other)), inSubtree(id, other); got != want {
					t.Fatalf("ParseOwner(%q).within(ParseOwner(%q)) = %v, want %v", id, other, got, want)
				}
			}
		}
	})
}

// TestOwnerForms: canonical ids up to the inline depth are kept by value
// and parse without allocating; the rest are kept rendered; PathOwner
// builds what ParseOwner parses; and inline and rendered operands compare
// alike, the mixed pairs by rendering.
func TestOwnerForms(t *testing.T) {
	for _, c := range []struct {
		id     string
		inline bool
	}{
		{"T3", false}, {"T3.1", true}, {"T1.1.2.3.4.5.6.7.8", true}, {"T1.65535", true},
		{"T1.1.2.3.4.5.6.7.8.9", false}, {"T1.70000", false}, {"T1.0", false}, {"T1.01", false},
		{"T3.1:undo", false}, {"repl:fence", false}, {"a:b.1", false},
	} {
		o := ParseOwner(c.id)
		if inline := o.steps[0] != 0; inline != c.inline {
			t.Errorf("ParseOwner(%q) inline = %v, want %v", c.id, inline, c.inline)
		}
		if !c.inline && o.id != c.id {
			t.Errorf("ParseOwner(%q) keeps %q rendered, want the whole id", c.id, o.id)
		}
	}
	if got, want := PathOwner("T7", span.Steps{4, 2, 9}, 2), ParseOwner("T7.4.2"); got != want {
		t.Errorf("PathOwner = %+v, want %+v", got, want)
	}
	deep := ParseOwner("T1.2.3.4.5.6.7.8.9.10") // rendered
	for _, c := range []struct {
		o, a   Owner
		within bool
	}{
		{deep, ParseOwner("T1.2.3"), true},
		{deep, ParseOwner("T1"), true},
		{deep, ParseOwner("T1.3"), false},
		{ParseOwner("T1.2.3"), deep, false},
		{ParseOwner("T1.2.3.4.5.6.7.8.9"), ParseOwner("T1.2.3.4.5.6.7.8"), true},
		{ParseOwner("T1.2"), ParseOwner("T1.2.3.4.5.6.7.8.9"), false},
		{ParseOwner("T1.2"), ParseOwner("T1"), true},
		{ParseOwner("T1.2"), ParseOwner("T12"), false},
		{ParseOwner("T12.2"), ParseOwner("T1"), false},
		{ParseOwner("T1.2:undo"), ParseOwner("T1"), true},
		{ParseOwner("T1:undo"), ParseOwner("T1"), false},
	} {
		if got := c.o.within(c.a); got != c.within {
			t.Errorf("%v within %v = %v, want %v", c.o, c.a, got, c.within)
		}
	}
	id := "T12345.3.17.4"
	var o Owner
	if n := testing.AllocsPerRun(100, func() { o = ParseOwner(id) }); n != 0 {
		t.Errorf("ParseOwner allocates %.0f objects for an inline owner", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = o.Root(); _ = o.within(o) }); n != 0 {
		t.Errorf("Root and within allocate %.0f objects for an inline owner", n)
	}
}

// TestRecordSize: the typed owner costs a record 8 bytes over the 120 a
// string owner took, since Kind and CLR share one word.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 128 {
		t.Fatalf("a Record is %d bytes, want at most 128", n)
	}
}
