package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsnlog"
)

// TestWALAtPanicsOutsideWindow: asking for a record the window no longer
// holds is a broken trimming invariant, not a lookup miss; at names the
// LSN and the window instead of returning a neighbour.
func TestWALAtPanicsOutsideWindow(t *testing.T) {
	w := NewWAL()
	w.LogUpdate(ParseOwner("T1"), 1, "a", "b")
	w.LogCommit(ParseOwner("T1"))
	live := w.LogUpdate(ParseOwner("T2"), 2, "c", "d")
	w.LogCommit(ParseOwner("T3"))
	w.Trim(w.LastLSN() + 1) // T2's chain pins LSN 3 onward
	if got := w.Len(); got != 2 {
		t.Fatalf("window holds %d records after the trim, want 2 (T2's update and T3's commit)", got)
	}
	if r := w.at(live); r.Owner.String() != "T2" {
		t.Fatalf("at(%d) = %+v", live, r)
	}
	for _, lsn := range []uint64{1, 2, 5} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("record %d ", lsn)) || !strings.Contains(msg, "[3, 4]") {
					t.Fatalf("at(%d) panicked with %q, want the LSN and the window [3, 4]", lsn, msg)
				}
			}()
			w.at(lsn)
		}()
	}
}

// TestWALWindowPastLSNOne: a log rebuilt from records that start far
// past LSN 1 and span three chunks, then trimmed to the middle of one,
// answers at, Len, Records and Clone from its oldest retained LSN, and at
// names that window when asked outside it.
func TestWALWindowPastLSNOne(t *testing.T) {
	const start, n = 10*lsnlog.Chunk + 100, 2*lsnlog.Chunk + 50
	live := uint64(start + lsnlog.Chunk + 60) // T0's update, mid-chunk
	var recs []Record
	for lsn := uint64(start); lsn < start+n; lsn++ {
		rec := Record{LSN: lsn, Kind: RecCommit, Owner: ParseOwner(fmt.Sprint("T", lsn))}
		if lsn == live {
			rec = Record{LSN: lsn, Kind: RecUpdate, Owner: ParseOwner("T0"), Page: 1, Before: "a", After: "b"}
		}
		recs = append(recs, rec)
	}
	w := NewWALFromRecords(recs)
	last := w.LastLSN()
	if last != start+n-1 || w.Len() != n || w.at(start).LSN != start {
		t.Fatalf("rebuilt log: last %d, %d records, at(%d) = %+v", last, w.Len(), start, w.at(start))
	}
	w.Trim(last + 1) // T0's chain pins its update onward
	kept := recs[live-start:]
	if w.Len() != len(kept) {
		t.Fatalf("window holds %d records after the trim, want %d", w.Len(), len(kept))
	}
	if r := w.at(live); r.Owner.String() != "T0" || r.Before != "a" {
		t.Fatalf("at(%d) = %+v", live, r)
	}
	if got := w.Records(); !reflect.DeepEqual(got, kept) {
		t.Fatalf("Records returned %d records from LSN %d, want %d from %d", len(got), got[0].LSN, len(kept), live)
	}
	c := w.Clone()
	if got := c.Records(); !reflect.DeepEqual(got, kept) || c.Len() != len(kept) {
		t.Fatalf("the clone holds %d records, want %d", c.Len(), len(kept))
	}
	if got := c.LogCommit(ParseOwner("T0")); got != last+1 {
		t.Fatalf("the clone appends at LSN %d, want %d", got, last+1)
	}
	window := fmt.Sprintf("[%d, %d]", live, last)
	for _, lsn := range []uint64{1, start, live - 1, last + 1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("record %d ", lsn)) || !strings.Contains(msg, window) {
					t.Fatalf("at(%d) panicked with %q, want the LSN and the window %s", lsn, msg, window)
				}
			}()
			w.at(lsn)
		}()
	}
}

// randomLog drives a WAL through interleaved roots: updates (some CLRs),
// intents that supersede their subtree, discards, commits and completed
// aborts, with at most 8 roots in flight and a few still open at the end.
func randomLog(seed int64, steps int) *WAL {
	rr := rand.New(rand.NewSource(seed))
	w := NewWAL()
	var open []string
	next := 0
	for i := 0; i < steps; i++ {
		if len(open) < 8 && (len(open) == 0 || rr.Intn(6) == 0) {
			next++
			open = append(open, fmt.Sprintf("T%d", next))
			continue
		}
		k := rr.Intn(len(open))
		root := open[k]
		sub := fmt.Sprintf("%s.%d", root, rr.Intn(3))
		switch op := rr.Intn(10); {
		case op < 4:
			w.LogUpdate(ParseOwner(sub), PageID(rr.Intn(16)+1), fmt.Sprint("b", i), fmt.Sprint("a", i))
		case op < 5:
			w.LogCLRUpdate(ParseOwner(root+":undo"), PageID(rr.Intn(16)+1), "x", "y")
		case op < 6:
			w.LogIntent(ParseOwner(sub), fmt.Sprint("inverse", i))
		case op < 7:
			w.LogDiscardUnder(ParseOwner(sub), 0)
		default:
			if i > steps-40 {
				continue // leave the late roots in flight
			}
			if op < 9 {
				w.LogCommit(ParseOwner(root))
			} else {
				w.LogAbort(ParseOwner(root))
			}
			open = slices.Delete(open, k, k+1)
		}
	}
	return w
}

func liveUndoOf(w *WAL) map[string][]Record {
	roots, _ := w.ActiveInfo()
	out := make(map[string][]Record, len(roots))
	for _, root := range roots {
		out[root] = w.LiveUndo(ParseOwner(root), 0)
	}
	return out
}

// TestReplayAndTrimKeepLiveChains: replaying a log record by record keeps
// a window of what in-flight roots can still undo, and trimming it keeps
// every live chain: LiveUndo and ActiveInfo answer the same before and
// after, on the original log and on the replayed one.
func TestReplayAndTrimKeepLiveChains(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ref := randomLog(seed, 20000)
		want := liveUndoOf(ref)
		if len(want) == 0 {
			t.Fatalf("seed %d: no root left in flight", seed)
		}
		_, oldest := ref.ActiveInfo()

		replayed := NewWAL()
		for _, r := range ref.Records() {
			replayed.Replay(r)
		}
		if got := replayed.Len(); got >= ref.Len()/2 {
			t.Fatalf("seed %d: replay kept %d of %d records", seed, got, ref.Len())
		}
		for _, w := range []*WAL{ref, replayed} {
			if got := liveUndoOf(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: live undo before the trim differs:\n got %v\nwant %v", seed, got, want)
			}
			w.Trim(w.LastLSN() + 1)
			if got := liveUndoOf(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: live undo after the trim differs:\n got %v\nwant %v", seed, got, want)
			}
			if _, o := w.ActiveInfo(); o != oldest {
				t.Fatalf("seed %d: oldest in-flight LSN %d after the trim, want %d", seed, o, oldest)
			}
			if got, keep := w.Len(), int(w.LastLSN()-oldest+1); got != keep {
				t.Fatalf("seed %d: trimmed window holds %d records, want the %d from the oldest chain on", seed, got, keep)
			}
		}
	}
}

// TestTrimKeepsNewestRecord: with nothing in flight a trim empties the
// window down to the newest record, so a clone of it — the crash image
// recovery starts from — continues the LSN sequence.
func TestTrimKeepsNewestRecord(t *testing.T) {
	w := NewWAL()
	w.LogUpdate(ParseOwner("T1"), 1, "a", "b")
	last := w.LogCommit(ParseOwner("T1"))
	w.Trim(last + 1)
	if w.Len() != 1 {
		t.Fatalf("window holds %d records, want the newest only", w.Len())
	}
	if got := w.Clone().LogCommit(ParseOwner("T2")); got != last+1 {
		t.Fatalf("clone of the trimmed log appends at LSN %d, want %d", got, last+1)
	}
}

// failingSink is a durable backing whose every flush fails.
type failingSink struct{}

func (failingSink) Append(Record)            {}
func (failingSink) WaitDurable(uint64) error { return ErrWALPoisoned }
func (failingSink) Close() error             { return nil }

// TestCommitUndoOutlivesTrim: a commit ends its root's chain before the
// committer learns whether the record is durable, so a checkpoint may trim
// meanwhile; Commit hands the committer the ended chain, and the trim
// keeps its records, to roll back from if the flush fails, until the
// committer releases it.
func TestCommitUndoOutlivesTrim(t *testing.T) {
	w := NewWAL()
	w.SetSink(failingSink{})
	w.LogUpdate(ParseOwner("T1.1"), 1, "a", "b")
	w.LogIntent(ParseOwner("T1.2"), "inverse")
	lsn, undo := w.Commit(ParseOwner("T1"))
	w.Trim(lsn + 1)
	if w.Len() != 3 {
		t.Fatalf("window holds %d records after the trim, want the chain's two and the commit", w.Len())
	}
	if err := w.WaitDurable(lsn); err == nil {
		t.Fatal("the failing sink acknowledged the commit")
	}
	recs := undo.Records()
	if len(recs) != 2 || recs[0].Kind != RecIntent || recs[1].Before != "a" {
		t.Fatalf("commit undo = %+v, want the intent then the update's before-image", recs)
	}
	undo.Release()
	w.Trim(lsn + 1)
	if w.Len() != 1 {
		t.Fatalf("window holds %d records after the release and a trim, want the commit only", w.Len())
	}
}
