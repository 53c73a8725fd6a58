// Package obs is the engine-wide observability layer: a lock-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms) plus an
// always-on bounded flight recorder (recorder.go) — a ring buffer of recent
// structured events every runtime subsystem publishes into (lock waits,
// group-commit batches, buffer-pool evictions, transaction outcomes,
// recovery phases). The paper's headline claim — "a lower rate of
// conflicting accesses" — is an observability claim, so the measurement
// layer is first-class: counters are trustworthy under -race, cheap enough
// to stay on in hot paths, and a crash or a failing torture round arrives
// with a timeline attached.
//
// Design rules:
//
//   - The hot path never takes a shared lock: Counter/Gauge are single
//     atomics, Histogram.Observe is one atomic add per bucket + sum +
//     count, and FlightRecorder.Record is an atomic sequence claim plus a
//     copy into the claimed slot under that slot's own mutex. The
//     registry's mutex guards only name registration and snapshotting.
//   - Every method is nil-receiver safe, so instrumented code paths need
//     no "metrics enabled?" branches: a disabled subsystem simply holds
//     nil handles.
//   - Snapshots render as expvar-compatible JSON (one flat object, one
//     member per registered var), served by Handler/Serve (http.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Var is a registered metric: Value returns a JSON-marshalable snapshot.
type Var interface {
	Value() any
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Value implements Var.
func (c *Counter) Value() any { return c.Load() }

// Gauge is an atomic instantaneous value (e.g. current waiters).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Value implements Var.
func (g *Gauge) Value() any { return g.Load() }

// funcVar publishes the result of a function at snapshot time — used to
// expose pre-existing subsystem counters (cc.Stats, core.Stats) without
// duplicating them.
type funcVar func() any

func (f funcVar) Value() any { return f() }

// Registry is a named collection of metrics plus the engine's flight
// recorder. Registration is get-or-create by name; the returned handles
// are the lock-free hot-path objects, the registry itself is only touched
// at registration and snapshot time.
type Registry struct {
	mu    sync.RWMutex
	vars  map[string]Var
	rec   *FlightRecorder
	extra map[string]http.Handler // additional endpoints, mounted by Handler()
}

// DefaultRecorderCap is the flight recorder's default capacity in events.
const DefaultRecorderCap = 4096

// New returns a registry with a DefaultRecorderCap-sized flight recorder.
func New() *Registry { return NewWithRecorder(DefaultRecorderCap) }

// NewWithRecorder returns a registry whose flight recorder holds up to
// capacity events (rounded up to a power of two, minimum 64).
func NewWithRecorder(capacity int) *Registry {
	return &Registry{
		vars: make(map[string]Var),
		rec:  NewFlightRecorder(capacity),
	}
}

// Recorder returns the registry's flight recorder (nil on a nil registry,
// which every recorder method tolerates).
func (r *Registry) Recorder() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// Counter returns the named counter, creating it on first use. A name
// already registered as a different kind panics: metric names are a
// program-level schema, not runtime input.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	v := r.getOrCreate(name, func() Var { return &Counter{} })
	c, ok := v.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Counter", name, v))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	v := r.getOrCreate(name, func() Var { return &Gauge{} })
	g, ok := v.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Gauge", name, v))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (see NewHistogram for the bounds contract).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	v := r.getOrCreate(name, func() Var { return NewHistogram(bounds) })
	h, ok := v.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Histogram", name, v))
	}
	return h
}

// PublishFunc registers (or replaces) a function evaluated at snapshot
// time. Replacement is deliberate: sequential engines in one process (a
// protocol sweep) re-publish their snapshot functions under the same
// names, and the endpoint follows the live engine.
func (r *Registry) PublishFunc(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vars[name] = funcVar(fn)
	r.mu.Unlock()
}

func (r *Registry) getOrCreate(name string, mk func() Var) Var {
	r.mu.RLock()
	v, ok := r.vars[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v = mk()
	r.vars[name] = v
	return v
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot returns a point-in-time copy of every registered var's value.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	vars := make(map[string]Var, len(r.vars))
	for n, v := range r.vars {
		vars[n] = v
	}
	r.mu.RUnlock()
	// Values are read outside the registry lock: funcVars may grab their
	// subsystem's own locks (e.g. a pool mutex) and must not nest inside
	// ours.
	out := make(map[string]any, len(vars))
	for n, v := range vars {
		out[n] = v.Value()
	}
	return out
}

// WriteJSON renders the snapshot as one expvar-shaped JSON object with
// members in sorted name order.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, n := range names {
		val, err := json.Marshal(snap[n])
		if err != nil {
			// A snapshot value that cannot marshal (NaN from an unguarded
			// division, say) must not take the whole endpoint down.
			val = []byte(fmt.Sprintf("%q", fmt.Sprintf("unmarshalable: %v", err)))
		}
		sep := ",\n"
		if i == len(names)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%q: %s%s", n, val, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
