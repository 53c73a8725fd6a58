// Package commut implements commutativity specifications for object types
// (Definition 9 of the paper). A specification decides, for two method
// invocations on the same object, whether they commute (Θ̄, "theta-bar" in
// the paper) or are in conflict (Θ). Commuting actions may be reordered in
// an equivalent schedule; conflicting actions must keep their order and the
// dependency is inherited by the calling transactions (Definition 10).
//
// Three kinds of specification are provided, mirroring the lineage the
// paper cites:
//
//   - Matrix: a symmetric method-name table (the classical read/write
//     conflict matrix is the degenerate case).
//   - ParamSpec: parameter-dependent commutativity in the style of Weihl
//     and of Spector & Schwartz, e.g. insert(k1) and insert(k2) on a B+ tree
//     node commute iff k1 ≠ k2.
//   - Escrow: value-based commutativity for numeric objects (O'Neil's
//     escrow method, the paper's refs [9,14,17]) — increments and
//     decrements commute as long as declared bounds cannot be violated.
//
// Specifications are registered per object type in a Registry; the
// transaction engine consults the registry both online (semantic lock
// compatibility) and offline (building the dependency relations checked by
// internal/sched).
package commut

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Invocation describes one method invocation on an object, as far as
// commutativity reasoning is concerned: the method name and its parameter
// list rendered as strings. The object identity is implicit — two
// invocations are only ever compared when they access the same object.
type Invocation struct {
	Method string
	Params []string
}

// String renders the invocation as method(p1,p2), in one allocation: it
// runs whenever a lock span is read or a lock blocks.
func (iv Invocation) String() string {
	n := len(iv.Method) + 2 + max(len(iv.Params)-1, 0)
	for _, p := range iv.Params {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(iv.Method)
	b.WriteByte('(')
	for i, p := range iv.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	return b.String()
}

// Param returns the i-th parameter or "" if absent.
func (iv Invocation) Param(i int) string {
	if i < 0 || i >= len(iv.Params) {
		return ""
	}
	return iv.Params[i]
}

// Spec decides commutativity of two invocations on the same object.
// Implementations must be symmetric: Commutes(a,b) == Commutes(b,a).
// Implementations must be safe for concurrent use.
type Spec interface {
	// Commutes reports whether the two invocations commute (Θ̄). If false
	// they are in conflict (Θ) and their execution order matters.
	Commutes(a, b Invocation) bool
	// Methods returns the method names the spec knows about, sorted.
	// A spec may accept unknown methods (treated conservatively as
	// conflicting with everything) — those do not appear here.
	Methods() []string
}

// Conservative is the spec of last resort: every pair of invocations
// conflicts. Using it degrades oo-serializability to conventional
// serializability on that object, which is always safe (Section 6 of the
// paper: conventional serializability is the special case where nothing
// commutes).
type Conservative struct{}

// Commutes always reports false.
func (Conservative) Commutes(a, b Invocation) bool { return false }

// Methods returns nil: the conservative spec knows no methods specifically.
func (Conservative) Methods() []string { return nil }

// Matrix is a symmetric method-name commutativity table. The zero value is
// unusable; construct with NewMatrix. Lookups for method pairs that were
// never declared return the matrix default (conflicting unless
// DefaultCommute was set).
type Matrix struct {
	commute        map[[2]string]bool
	methods        map[string]bool
	defaultCommute bool
}

// NewMatrix returns an empty matrix whose undeclared pairs conflict.
func NewMatrix() *Matrix {
	return &Matrix{
		commute: make(map[[2]string]bool),
		methods: make(map[string]bool),
	}
}

// DefaultCommute makes undeclared pairs commute instead of conflict.
// Use with care: it is only sound if the object's undeclared methods are
// genuinely independent (e.g. pure reads of disjoint state).
func (m *Matrix) DefaultCommute() *Matrix {
	m.defaultCommute = true
	return m
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Set declares whether methods a and b commute (symmetrically).
func (m *Matrix) Set(a, b string, commutes bool) *Matrix {
	m.methods[a] = true
	m.methods[b] = true
	m.commute[pairKey(a, b)] = commutes
	return m
}

// SetCommutes declares that a and b commute.
func (m *Matrix) SetCommutes(a, b string) *Matrix { return m.Set(a, b, true) }

// SetConflicts declares that a and b conflict.
func (m *Matrix) SetConflicts(a, b string) *Matrix { return m.Set(a, b, false) }

// Commutes implements Spec by method-name lookup; parameters are ignored.
func (m *Matrix) Commutes(a, b Invocation) bool {
	if v, ok := m.commute[pairKey(a.Method, b.Method)]; ok {
		return v
	}
	return m.defaultCommute
}

// Methods implements Spec.
func (m *Matrix) Methods() []string {
	out := make([]string, 0, len(m.methods))
	for name := range m.methods {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReadWriteMatrix returns the classical conflict table over methods "read"
// and "write": read/read commutes, everything else conflicts. This is the
// spec of the page object type — the zero layer of the paper, where
// Axiom 1 orders conflicting primitive actions.
func ReadWriteMatrix() *Matrix {
	return NewMatrix().
		SetCommutes("read", "read").
		SetConflicts("read", "write").
		SetConflicts("write", "write")
}

// PairFunc decides commutativity of one method pair from the two full
// invocations. It is called with a fixed orientation (the registered
// methodA invocation first); ParamSpec handles symmetry.
type PairFunc func(a, b Invocation) bool

// ParamSpec is a parameter-dependent commutativity specification. Pairs are
// declared with a decision function; undeclared pairs fall back to an
// underlying Matrix (method-name granularity).
type ParamSpec struct {
	base  *Matrix
	funcs map[[2]string]pairRule
}

type pairRule struct {
	// methodA is the method name the rule's function expects as first
	// argument; invocations are swapped to match before calling fn.
	methodA string
	fn      PairFunc
}

// NewParamSpec returns a ParamSpec whose undeclared pairs defer to base.
// If base is nil an empty (all-conflicting) matrix is used.
func NewParamSpec(base *Matrix) *ParamSpec {
	if base == nil {
		base = NewMatrix()
	}
	return &ParamSpec{base: base, funcs: make(map[[2]string]pairRule)}
}

// Rule installs fn to decide commutativity of invocations of methodA vs
// methodB. fn is always called with the methodA invocation first; when
// methodA == methodB the call order of arguments is unspecified, so fn must
// be symmetric in that case.
func (p *ParamSpec) Rule(methodA, methodB string, fn PairFunc) *ParamSpec {
	p.base.methods[methodA] = true
	p.base.methods[methodB] = true
	p.funcs[pairKey(methodA, methodB)] = pairRule{methodA: methodA, fn: fn}
	return p
}

// Commutes implements Spec.
func (p *ParamSpec) Commutes(a, b Invocation) bool {
	if r, ok := p.funcs[pairKey(a.Method, b.Method)]; ok {
		if a.Method != r.methodA {
			a, b = b, a
		}
		return r.fn(a, b)
	}
	return p.base.Commutes(a, b)
}

// Methods implements Spec.
func (p *ParamSpec) Methods() []string { return p.base.Methods() }

// DistinctFirstParam is a PairFunc: the invocations commute iff their first
// parameters differ. This is the paper's B+ tree node rule — insert(DBS)
// and insert(DBMS) on the same leaf commute because they concern different
// keys, even though both rewrite the same page.
func DistinctFirstParam(a, b Invocation) bool {
	return a.Param(0) != b.Param(0)
}

// KeyedSpec builds the standard dictionary-object specification used by the
// B+ tree and the encyclopedia: operations on distinct keys always commute;
// on equal keys, reader/reader pairs commute and anything involving a
// mutator conflicts. readers and mutators are method-name sets.
func KeyedSpec(readers, mutators []string) *ParamSpec {
	isReader := make(map[string]bool, len(readers))
	for _, m := range readers {
		isReader[m] = true
	}
	sameKey := func(a, b Invocation) bool {
		if a.Param(0) != b.Param(0) {
			return true // distinct keys commute
		}
		return isReader[a.Method] && isReader[b.Method]
	}
	spec := NewParamSpec(NewMatrix())
	all := append(append([]string{}, readers...), mutators...)
	for i, m1 := range all {
		for _, m2 := range all[i:] {
			spec.Rule(m1, m2, sameKey)
		}
	}
	return spec
}

// Escrow implements escrow commutativity for a numeric object with declared
// bounds [Low, High]. Invocations are "incr(n)", "decr(n)", and "read()".
// Two updates commute when, regardless of order, neither can be pushed out
// of bounds given the escrow quantities currently outstanding; reads
// conflict with updates (a read observes the value) but commute with reads.
//
// Unlike Matrix/ParamSpec, Escrow is stateful: commutativity depends on the
// current value and outstanding reservations, which is exactly the escrow
// method's point — e.g. two debits commute on a rich account but conflict
// on a nearly empty one.
type Escrow struct {
	mu          sync.Mutex
	low, high   int64
	value       int64
	outstanding int64 // net sum of reserved (uncommitted) deltas, pessimistic per direction below
	resIncr     int64 // total reserved increments
	resDecr     int64 // total reserved decrements (positive magnitude)
}

// NewEscrow returns an escrow object with current value v and bounds
// [low, high]. It panics if v is out of bounds or low > high, because that
// is a programming error in the caller, not a runtime condition.
func NewEscrow(v, low, high int64) *Escrow {
	if low > high || v < low || v > high {
		panic(fmt.Sprintf("commut: invalid escrow init value=%d bounds=[%d,%d]", v, low, high))
	}
	return &Escrow{low: low, high: high, value: v}
}

// Value returns the committed value.
func (e *Escrow) Value() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Reserve attempts to reserve delta (positive = increment, negative =
// decrement) under escrow rules: the reservation succeeds iff even in the
// worst case (all outstanding reservations in the unfavourable direction
// committing first) the bounds hold. On success the caller must later call
// either Commit or Cancel with the same delta.
func (e *Escrow) Reserve(delta int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if delta >= 0 {
		// Worst case for the upper bound: every reserved increment commits.
		if e.value+e.resIncr+delta > e.high {
			return false
		}
		e.resIncr += delta
	} else {
		// Worst case for the lower bound: every reserved decrement commits.
		if e.value-e.resDecr+delta < e.low {
			return false
		}
		e.resDecr += -delta
	}
	e.outstanding += delta
	return true
}

// Commit applies a previously reserved delta to the committed value.
func (e *Escrow) Commit(delta int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.release(delta)
	e.value += delta
}

// Cancel releases a previously reserved delta without applying it.
func (e *Escrow) Cancel(delta int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.release(delta)
}

func (e *Escrow) release(delta int64) {
	if delta >= 0 {
		e.resIncr -= delta
	} else {
		e.resDecr -= -delta
	}
	e.outstanding -= delta
}

// Commutes implements Spec for invocations "incr(n)" / "decr(n)" / "read()".
// Updates commute with each other when both can be escrowed simultaneously
// given current state; read commutes only with read. Malformed invocations
// conflict conservatively.
func (e *Escrow) Commutes(a, b Invocation) bool {
	if a.Method == "read" && b.Method == "read" {
		return true
	}
	if a.Method == "read" || b.Method == "read" {
		return false
	}
	da, okA := updateDelta(a)
	db, okB := updateDelta(b)
	if !okA || !okB {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Both orders must be bound-safe given outstanding reservations.
	return e.pairSafe(da, db)
}

// pairSafe checks that applying both deltas (in either order) keeps the
// value in bounds even with current reservations. Caller holds e.mu.
func (e *Escrow) pairSafe(da, db int64) bool {
	incr, decr := e.resIncr, e.resDecr
	for _, d := range []int64{da, db} {
		if d >= 0 {
			incr += d
		} else {
			decr += -d
		}
	}
	return e.value+incr <= e.high && e.value-decr >= e.low
}

// Methods implements Spec.
func (*Escrow) Methods() []string { return []string{"decr", "incr", "read"} }

func updateDelta(iv Invocation) (int64, bool) {
	var n int64
	if _, err := fmt.Sscanf(iv.Param(0), "%d", &n); err != nil {
		return 0, false
	}
	switch iv.Method {
	case "incr":
		return n, true
	case "decr":
		return -n, true
	}
	return 0, false
}

// Registry maps object type names to their commutativity specifications.
// Object types without a registered spec fall back to Conservative.
// Registry is safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register installs spec for the object type. Re-registering replaces the
// previous spec.
func (r *Registry) Register(objType string, spec Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.specs[objType] = spec
}

// Lookup returns the spec for objType, falling back to Conservative.
func (r *Registry) Lookup(objType string) Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.specs[objType]; ok {
		return s
	}
	return Conservative{}
}

// Types returns the registered object type names, sorted.
func (r *Registry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.specs))
	for t := range r.specs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
