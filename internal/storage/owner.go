package storage

import (
	"bytes"
	"strings"

	"repro/internal/span"
)

// Owner names the action that logged a record: a node of its
// transaction's action tree (the paper's Definitions 2–4), by value, as
// the lock manager names it. It has two forms:
//
//   - inline: the top-level id, which the engine shares with its
//     transaction so naming an action costs nothing, and the child
//     numbers from the root down, zero-terminated (no child number is 0),
//     as cc.Node and span.Path keep them;
//   - rendered: the whole id, with no child numbers, when the path does
//     not fit inline (deeper than span.PathInline, or a child number past
//     65535) or the id is not an action's canonical id (diagnostic owners
//     such as "T3:compensation-failed:…" and "repl:fence").
//
// A root owner ("T3") is both. Either way the id is rendered only where
// bytes or text are wanted: the record codec appends its digits straight
// into the frame, and waldump and error text call String. The bytes a
// record is logged as are the rendered id, so they do not depend on the
// form: ParseOwner(o.String()) == o for every owner ParseOwner returns.
type Owner struct {
	id    string
	steps span.Steps
}

// ParseOwner returns the owner whose rendered id is s: inline when s is a
// top-level id (no '.' or ':') followed by at most span.PathInline
// canonical child numbers (1 to 65535, no leading zero), rendered
// otherwise. An inline owner's id is a substring of s; it allocates
// nothing.
func ParseOwner(s string) Owner {
	root, rest, dotted := strings.Cut(s, ".")
	if !dotted || strings.IndexByte(root, ':') >= 0 {
		return Owner{id: s}
	}
	o := Owner{id: root}
	for d := 0; ; d++ {
		step, more, dotted := strings.Cut(rest, ".")
		n, ok := parseStep(step)
		if !ok || d == len(o.steps) {
			return Owner{id: s}
		}
		o.steps[d] = n
		if !dotted {
			return o
		}
		rest = more
	}
}

// parseStep parses a canonical child number.
func parseStep(s string) (uint16, bool) {
	if len(s) == 0 || len(s) > 5 || s[0] == '0' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return uint16(n), n <= 0xffff
}

// PathOwner returns the inline owner of the action at the first depth
// child numbers of steps (each non-zero, depth at most span.PathInline)
// below top-level id root, which has no '.' or ':'.
func PathOwner(root string, steps span.Steps, depth int) Owner {
	clear(steps[depth:])
	return Owner{id: root, steps: steps}
}

// Root returns the top-level transaction id: the undo chain the owner's
// records join. A rendered id's is its prefix before the first '.', once
// a diagnostic suffix ("T3.1:undo") is stripped at the first ':'.
func (o Owner) Root() string {
	if o.steps[0] != 0 {
		return o.id
	}
	id := o.id
	if i := strings.IndexByte(id, ':'); i >= 0 {
		id = id[:i]
	}
	if i := strings.IndexByte(id, '.'); i >= 0 {
		id = id[:i]
	}
	return id
}

// String renders the owner's id. A root or rendered owner renders without
// allocating.
func (o Owner) String() string {
	if o.steps[0] == 0 {
		return o.id
	}
	var b [64]byte
	return string(o.appendID(b[:0]))
}

// depth returns the number of inline child numbers.
func (o *Owner) depth() int {
	for d, n := range o.steps {
		if n == 0 {
			return d
		}
	}
	return len(o.steps)
}

// appendID appends the rendered id to dst.
func (o *Owner) appendID(dst []byte) []byte {
	return o.steps.AppendID(dst, o.id, o.depth())
}

// idLen returns the length of the rendered id.
func (o *Owner) idLen() int {
	n := len(o.id)
	for _, s := range o.steps {
		if s == 0 {
			break
		}
		n += 1 + decimalLen(uint64(s))
	}
	return n
}

// decimalLen returns the number of decimal digits of n.
func decimalLen(n uint64) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// within reports whether o names action a or one of its descendants: a's
// rendered id is o's, or a prefix of it ending before a '.'. Two inline
// owners, or an inline owner and its root, compare by value; any other
// pair compares by rendering.
func (o Owner) within(a Owner) bool {
	if o.steps[0] != 0 && o.id == a.id {
		// a is o's root, or an inline owner under it: a prefix of o's steps?
		for d, n := range a.steps {
			if n == 0 {
				return true
			}
			if o.steps[d] != n {
				return false
			}
		}
		return true
	}
	if o.steps[0] != 0 && a.steps[0] != 0 {
		return false // two inline owners of different roots
	}
	var ob, ab [96]byte
	oid, aid := o.appendID(ob[:0]), a.appendID(ab[:0])
	return bytes.HasPrefix(oid, aid) && (len(oid) == len(aid) || oid[len(aid)] == '.')
}
