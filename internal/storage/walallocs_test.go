package storage

import (
	"strconv"
	"testing"

	"repro/internal/span"
)

// walTxn logs one open-nested transaction the way the engine does: a page
// write under a child that completes with an intent, a page write under a
// child that completes with a discard, and the commit; a checkpoint trims
// the window every 64 transactions. It returns the number of records it
// appended.
type walTxn struct {
	w     *WAL
	roots []string
	n     int
}

func newWALTxn(w *WAL) *walTxn {
	x := &walTxn{w: w}
	for i := 1; i <= 64; i++ {
		x.roots = append(x.roots, "T"+strconv.Itoa(i))
	}
	return x
}

func (x *walTxn) run() int {
	root := x.roots[x.n%len(x.roots)]
	x.n++
	w := x.w
	w.LogUpdate(PathOwner(root, span.Steps{1, 1}, 2), 1, "before", "after")
	w.LogIntent(PathOwner(root, span.Steps{1}, 1), "inverse")
	w.LogUpdate(PathOwner(root, span.Steps{2, 1}, 2), 2, "before", "after")
	w.LogDiscardUnder(PathOwner(root, span.Steps{2}, 1), 0)
	lsn, undo := w.Commit(PathOwner(root, span.Steps{}, 0))
	if err := w.WaitDurable(lsn); err != nil {
		panic(err)
	}
	undo.Release()
	if x.n%64 == 0 {
		w.Trim(lsn)
	}
	return 5
}

// frameSink is a durable sink that encodes each record's frame, as a
// FileWAL does, and keeps nothing.
type frameSink struct{ enc RecordEncoder }

func (s *frameSink) Append(rec Record)        { _ = s.enc.Frame(rec) }
func (s *frameSink) WaitDurable(uint64) error { return nil }
func (s *frameSink) Close() error             { return nil }

// TestWALUndoAllocs: in steady state the undo bookkeeping allocates
// nothing: owners are values, chains are reused, Refs are carved from a
// slab and the window's chunks are reused after a trim. With a sink
// attached, a transaction allocates only the sink's frame per record, the
// committer holding and releasing its ended chain included.
func TestWALUndoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mem := newWALTxn(NewWAL())
	for i := 0; i < 2000; i++ {
		mem.run()
	}
	if n := testing.AllocsPerRun(2000, func() { mem.run() }); n != 0 {
		t.Errorf("a transaction on a memory-only log allocates %v objects, want 0", n)
	}

	w := NewWAL()
	w.SetSink(new(frameSink))
	durable := newWALTxn(w)
	records := 0
	for i := 0; i < 2000; i++ {
		records = durable.run()
	}
	if n := testing.AllocsPerRun(2000, func() { durable.run() }); n != float64(records) {
		t.Errorf("a transaction on a durable log allocates %v objects, want %d: one frame per record", n, records)
	}
}

// BenchmarkWALTxn prices one transaction's log records and undo
// bookkeeping (walTxn: two page writes, an intent, a discard, a commit) on
// a memory-only log.
func BenchmarkWALTxn(b *testing.B) {
	x := newWALTxn(NewWAL())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.run()
	}
}
