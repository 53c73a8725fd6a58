package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// armFault arms a failpoint on the default registry for one test.
func armFault(t *testing.T, kv string) {
	t.Helper()
	name, spec, err := fault.ParseArm(kv)
	if err != nil {
		t.Fatal(err)
	}
	fault.Default.Arm(name, *spec)
	t.Cleanup(func() { fault.Default.Disarm(name) })
}

func openGroupWAL(t *testing.T, segSize int64) (*WAL, *FileWAL) {
	t.Helper()
	fw, recs, err := openFileWAL(t.TempDir(), FileWALOptions{
		Durability:  GroupCommit,
		SegmentSize: segSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh dir holds %d records", len(recs))
	}
	w := NewWAL()
	w.SetSink(fw)
	t.Cleanup(func() { _ = fw.Close() })
	return w, fw
}

// TestFsyncFailurePoisonsWAL: after an injected fsync error the WAL is
// sticky-poisoned — the failing commit and every later one get
// ErrWALPoisoned, even after the failpoint is disarmed (fsyncgate: a
// retried fsync proves nothing).
func TestFsyncFailurePoisonsWAL(t *testing.T) {
	w, fw := openGroupWAL(t, 0)

	lsn := w.LogCommit(ParseOwner("T1"))
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}

	armFault(t, "wal.fsync=error(disk gone)")
	lsn = w.LogCommit(ParseOwner("T2"))
	err := w.WaitDurable(lsn)
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("commit during fsync failure: err = %v, want ErrWALPoisoned", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("poison cause not preserved: %v", err)
	}

	// Disarm and heal nothing: the poison is sticky.
	fault.Default.Disarm("wal.fsync")
	lsn = w.LogCommit(ParseOwner("T3"))
	if err := w.WaitDurable(lsn); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("commit after disarm: err = %v, want sticky ErrWALPoisoned", err)
	}
	if err := w.Poisoned(); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("Poisoned() = %v", err)
	}
	if fw.DurableLSN() >= lsn {
		t.Fatalf("durable LSN %d advanced past the poison point", fw.DurableLSN())
	}
}

// TestFsyncFailureFailsAllGroupCommitWaiters: every committer parked in
// WaitDurable when the flusher hits the fsync error must be failed, not
// left hanging — the regression the group-commit flusher's failure
// broadcast exists for.
func TestFsyncFailureFailsAllGroupCommitWaiters(t *testing.T) {
	w, _ := openGroupWAL(t, 0)
	armFault(t, "wal.fsync=error(efsync);p=1")

	const committers = 16
	errs := make(chan error, committers)
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn := w.LogCommit(ParseOwner(fmt.Sprintf("T%d", i)))
			errs <- w.WaitDurable(lsn)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("group-commit waiters hung after fsync failure")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrWALPoisoned) {
			t.Fatalf("waiter err = %v, want ErrWALPoisoned", err)
		}
	}
}

// TestRotationFailureTypedAndFailsWaiters: a failed segment rotation (the
// disk-full / O_EXCL path) surfaces as ErrSegmentRotate wrapped in the
// sticky poison, and queued group-commit waiters fail instead of hanging.
func TestRotationFailureTypedAndFailsWaiters(t *testing.T) {
	// Tiny segments: every few records force a rotation.
	w, _ := openGroupWAL(t, 64)

	lsn := w.LogCommit(ParseOwner("T1"))
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}

	armFault(t, "wal.rotate=error(no space left on device)")
	var err error
	for i := 0; i < 50; i++ {
		lsn = w.LogUpdate(ParseOwner("T2"), 1, "", "payload-that-fills-segments")
		w.LogCommit(ParseOwner("T2"))
		if err = w.WaitDurable(lsn); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrSegmentRotate) {
		t.Fatalf("rotation failure: err = %v, want ErrSegmentRotate", err)
	}
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("rotation failure must poison: %v", err)
	}

	// A committer arriving after the poison fails immediately, no hang.
	ch := make(chan error, 1)
	go func() { ch <- w.WaitDurable(w.LogCommit(ParseOwner("T3"))) }()
	select {
	case werr := <-ch:
		if !errors.Is(werr, ErrWALPoisoned) {
			t.Fatalf("post-poison waiter: %v", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-poison waiter hung")
	}
}

// TestCloseFinalFsyncErrorSurfaces: Close performs one last fsync of the
// open segment; if THAT sync fails, Close must latch the poison and return
// the error — not swallow it (the regression where a clean shutdown lied
// about bytes that never reached stable storage). The failpoint is armed
// late (`after=1`) so the healthy commit's fsync passes and only the
// close-time sync fails.
func TestCloseFinalFsyncErrorSurfaces(t *testing.T) {
	w, fw := openGroupWAL(t, 0)

	armFault(t, "wal.fsync=error(close-time disk error);after=1")
	lsn := w.LogCommit(ParseOwner("T1"))
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("healthy commit with late-armed fault: %v", err)
	}
	// Unsynced bytes at close time — the records the final sync covers.
	w.LogUpdate(ParseOwner("T2"), 1, "", "v")

	err := fw.Close()
	if err == nil {
		t.Fatal("Close swallowed the final fsync error")
	}
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("Close err = %v, want ErrWALPoisoned", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close lost the root cause: %v", err)
	}
	// The poison is latched: a second Close reports the same failure.
	if err2 := fw.Close(); !errors.Is(err2, ErrWALPoisoned) {
		t.Fatalf("second Close = %v, want latched ErrWALPoisoned", err2)
	}
}

// TestPoisonedWALKeepsDurablePrefix: records acked durable before the
// poison survive on disk and reopen cleanly; nothing after the poison
// point was acked, so nothing after it may be required.
func TestPoisonedWALKeepsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := openFileWAL(dir, FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL()
	w.SetSink(fw)

	w.LogUpdate(ParseOwner("T1"), 1, "", "v1")
	acked := w.LogCommit(ParseOwner("T1"))
	if err := w.WaitDurable(acked); err != nil {
		t.Fatal(err)
	}

	armFault(t, "wal.fsync=error(efsync)")
	w.LogUpdate(ParseOwner("T2"), 1, "v1", "v2")
	if err := w.WaitDurable(w.LogCommit(ParseOwner("T2"))); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("poisoned commit: %v", err)
	}
	_ = fw.Close()
	fault.Default.Disarm("wal.fsync")

	recs, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sawAcked bool
	for _, r := range recs {
		if r.LSN == acked {
			sawAcked = true
		}
	}
	if !sawAcked {
		t.Fatalf("durably acked commit (lsn %d) missing from reopened log; got %d records", acked, len(recs))
	}
}
