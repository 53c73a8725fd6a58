package storage

import (
	"testing"
)

// TestWALBatchInfo: after a durable wait, the WAL can report which physical
// flush (fsync batch) carried a record — the provenance the span layer
// stamps on group-commit spans.
func TestWALBatchInfo(t *testing.T) {
	fw, _, err := openFileWAL(t.TempDir(), FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL()
	w.SetSink(fw)
	if !w.Durable() {
		t.Fatal("WAL with a sink must report durable")
	}
	var last uint64
	for i := 0; i < 3; i++ {
		last = w.LogUpdate(ParseOwner("T1"), PageID(i), "", "v")
	}
	if err := w.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	bi, ok := w.BatchInfo(last)
	if !ok {
		t.Fatalf("no batch info for durable lsn %d", last)
	}
	if bi.ID < 1 || bi.Records < 1 {
		t.Fatalf("batch info malformed: %+v", bi)
	}
	if bi.Fsync < 0 {
		t.Fatalf("negative fsync latency: %+v", bi)
	}
	// lsn 0 is never a record; an unflushed lsn has no batch yet.
	if _, ok := w.BatchInfo(0); ok {
		t.Fatal("BatchInfo(0) must report no batch")
	}
	if _, ok := w.BatchInfo(last + 100); ok {
		t.Fatal("future lsn must report no batch")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBatchInfoAgedOut: once the flush-history ring wraps past the
// flush that carried a record, BatchInfo must say so with ok=false — not
// misattribute the record to whichever newer flush happens to occupy the
// oldest retained slot. (Regression: the old code matched any retained
// entry with maxLSN ≥ lsn, which after a wrap is always a later flush.)
func TestWALBatchInfoAgedOut(t *testing.T) {
	fw, _, err := openFileWAL(t.TempDir(), FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL()
	w.SetSink(fw)
	first := w.LogCommit(ParseOwner("T1"))
	if err := w.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.BatchInfo(first); !ok {
		t.Fatal("fresh flush must be reported")
	}
	// Each commit+wait forces its own flush, so this wraps the ring.
	var last uint64
	var lasts []uint64
	for i := 0; i < flushHistCap+8; i++ {
		last = w.LogCommit(ParseOwner("T" + string(rune('A'+i%26))))
		if err := w.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
		lasts = append(lasts, last)
	}
	if bi, ok := w.BatchInfo(first); ok {
		t.Fatalf("aged-out lsn %d misattributed to flush %+v", first, bi)
	}
	// Retained flushes must each still resolve, to a batch that actually
	// covers them: strictly above the predecessor's highest LSN.
	for _, lsn := range lasts[len(lasts)-flushHistCap/2:] {
		bi, ok := w.BatchInfo(lsn)
		if !ok {
			t.Fatalf("retained lsn %d must resolve", lsn)
		}
		if bi.Records < 1 {
			t.Fatalf("lsn %d: malformed batch %+v", lsn, bi)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBatchInfoWithoutSink: a memory-only WAL is not durable and has no
// batches to report.
func TestWALBatchInfoWithoutSink(t *testing.T) {
	w := NewWAL()
	if w.Durable() {
		t.Fatal("sinkless WAL must not report durable")
	}
	lsn := w.LogUpdate(ParseOwner("T1"), 1, "", "v")
	if _, ok := w.BatchInfo(lsn); ok {
		t.Fatal("sinkless WAL must report no batch info")
	}
}
