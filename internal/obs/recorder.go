package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds published by the engine's subsystems. Kinds are plain
// strings so applications and tests can add their own without touching
// this package.
const (
	EvLockBlock    = "lock.block"    // Actor waits on Object (Note: mode, blockers)
	EvLockGrant    = "lock.grant"    // a previously blocked acquire succeeded (Dur: wait)
	EvLockTimeout  = "lock.timeout"  // a wait exceeded the bound (Dur: wait)
	EvLockDeadlock = "lock.deadlock" // Actor chosen as deadlock victim
	EvTxnBegin     = "txn.begin"
	EvTxnCommit    = "txn.commit" // Dur: begin→durable-commit; N: max nesting depth
	EvTxnAbort     = "txn.abort"  // N: max nesting depth
	EvTxnSlow      = "txn.slow"   // lifetime crossed Options.SlowTxnThreshold (Dur: lifetime; Note: outcome)
	EvPoolEvict    = "pool.evict" // Object: page; Note "dirty" when written back (Dur: write-back)
	EvPoolWriteErr = "pool.write_error"
	EvWALBatch     = "wal.batch" // N: records flushed; Dur: write+fsync
	EvRecovery     = "recovery.phase"
	EvFailure      = "failure"           // injected/unexpected failure a tool wants on the timeline
	EvDegraded     = "engine.degraded"   // the engine entered read-only degraded mode (Note: cause)
	EvOverload     = "engine.overload"   // an admission wait timed out (ErrOverloaded)
	EvCheckpoint   = "engine.checkpoint" // a fuzzy checkpoint completed (Object: file; N: segments truncated)
	EvReplRole     = "repl.role"         // a replica changed role (Actor: node; Note: new role; N: term)
)

// Event is one flight-recorder entry.
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Time     `json:"at"`
	Kind   string        `json:"kind"`
	Actor  string        `json:"actor,omitempty"`  // transaction / owner / subsystem id
	Object string        `json:"object,omitempty"` // resource, page, segment...
	Dur    time.Duration `json:"dur,omitempty"`
	N      int64         `json:"n,omitempty"`
	Note   string        `json:"note,omitempty"`
}

// FlightRecorder is a bounded, always-on ring buffer of recent events —
// the engine's black box. Record claims a slot with an atomic sequence add
// and copies the event into it by value under the slot's own mutex, so it
// allocates nothing, writers contend only when they land on one slot a
// whole ring apart, and it is safe under -race with any number of
// concurrent writers and readers. Tail reconstructs the most recent events;
// under concurrent appends the result is approximate at the wrap boundary
// (slots being overwritten show their new content), which is exactly the
// semantics a black box wants.
type FlightRecorder struct {
	slots []recorderSlot
	mask  uint64
	seq   atomic.Uint64
}

// recorderSlot is one ring entry; mu guards ev.
type recorderSlot struct {
	mu sync.Mutex
	ev Event
}

// NewFlightRecorder returns a recorder holding up to capacity events,
// rounded up to a power of two (minimum 64).
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]recorderSlot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity in events.
func (fr *FlightRecorder) Cap() int {
	if fr == nil {
		return 0
	}
	return len(fr.slots)
}

// Seq returns the total number of events ever recorded.
func (fr *FlightRecorder) Seq() uint64 {
	if fr == nil {
		return 0
	}
	return fr.seq.Load()
}

// Record appends an event, stamping Seq and (when zero) At. Nil-safe.
func (fr *FlightRecorder) Record(e Event) {
	if fr == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	s := fr.seq.Add(1)
	e.Seq = s
	sl := &fr.slots[(s-1)&fr.mask]
	sl.mu.Lock()
	// A writer a whole ring behind (claimed earlier, stored later) must not
	// overwrite the newer event.
	if sl.ev.Seq < s {
		sl.ev = e
	}
	sl.mu.Unlock()
}

// Tail returns the last n events (all buffered events when n <= 0 or
// larger than the buffer), oldest first.
func (fr *FlightRecorder) Tail(n int) []Event {
	if fr == nil {
		return nil
	}
	if n <= 0 || n > len(fr.slots) {
		n = len(fr.slots)
	}
	hi := fr.seq.Load()
	lo := uint64(1)
	if hi > uint64(len(fr.slots)) {
		lo = hi - uint64(len(fr.slots)) + 1
	}
	out := make([]Event, 0, n)
	for s := lo; s <= hi; s++ {
		// A slot lagging its claimed sequence (writer between claim and
		// store) or already overwritten by a newer event is skipped/kept by
		// the Seq check; ordering is restored by the sort below.
		sl := &fr.slots[(s-1)&fr.mask]
		sl.mu.Lock()
		e := sl.ev
		sl.mu.Unlock()
		if e.Seq >= lo {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	// Concurrent writers can leave duplicates of a re-read slot; drop them.
	dedup := out[:0]
	for i, e := range out {
		if i == 0 || e.Seq != out[i-1].Seq {
			dedup = append(dedup, e)
		}
	}
	out = dedup
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Dump writes the last n events to w, one line per event, oldest first —
// the format chaos -round crash and failing stress tests print.
func (fr *FlightRecorder) Dump(w io.Writer, n int) {
	events := fr.Tail(n)
	if len(events) == 0 {
		fmt.Fprintln(w, "flight recorder: no events")
		return
	}
	fmt.Fprintf(w, "flight recorder: last %d events (of %d recorded)\n", len(events), fr.Seq())
	for _, e := range events {
		fmt.Fprintln(w, formatEvent(e))
	}
}

func formatEvent(e Event) string {
	line := fmt.Sprintf("%8d %s %-14s", e.Seq, e.At.Format("15:04:05.000000"), e.Kind)
	if e.Actor != "" {
		line += " actor=" + e.Actor
	}
	if e.Object != "" {
		line += " obj=" + e.Object
	}
	if e.Dur != 0 {
		line += " dur=" + e.Dur.String()
	}
	if e.N != 0 {
		line += fmt.Sprintf(" n=%d", e.N)
	}
	if e.Note != "" {
		line += fmt.Sprintf(" note=%q", e.Note)
	}
	return line
}
