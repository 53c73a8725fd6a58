package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/frame"
)

// openFileWAL opens dir and collects the records OpenFileWAL walks.
func openFileWAL(dir string, o FileWALOptions) (*FileWAL, []Record, error) {
	var recs []Record
	fw, err := OpenFileWAL(dir, o, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return fw, recs, err
}

// randomRecord draws a record with every field exercised; LSNs are
// assigned by the WAL, not here.
func randomRecord(rr *rand.Rand) Record {
	kinds := []RecordKind{RecUpdate, RecCommit, RecAbort, RecCompensation, RecIntent, RecDiscard}
	rec := Record{
		Kind:  kinds[rr.Intn(len(kinds))],
		Owner: ParseOwner(fmt.Sprintf("T%d.%d", rr.Intn(20)+1, rr.Intn(5))),
		CLR:   rr.Intn(4) == 0,
	}
	if rec.Kind == RecUpdate {
		rec.Page = PageID(rr.Intn(64) + 1)
		rec.Before = randString(rr, rr.Intn(80))
		rec.After = randString(rr, rr.Intn(80))
	}
	if rec.Kind == RecIntent || rec.Kind == RecCompensation {
		rec.Note = randString(rr, rr.Intn(40))
	}
	if rec.Kind == RecDiscard || rec.Kind == RecIntent {
		for i := rr.Intn(4); i > 0; i-- {
			rec.Refs = append(rec.Refs, rr.Uint64()%1000)
		}
	}
	return rec
}

func randString(rr *rand.Rand, n int) string {
	b := make([]byte, n)
	rr.Read(b)
	return string(b)
}

func TestWALRecordCodecRoundTrip(t *testing.T) {
	rr := rand.New(rand.NewSource(42))
	f := func(lsn uint64) bool {
		rec := randomRecord(rr)
		rec.LSN = lsn
		enc := EncodeRecordFrame(nil, rec)
		if len(enc) < frame.HeaderSize+recPayloadMin {
			return false
		}
		got, err := decodeRecordPayload(enc[frame.HeaderSize:])
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(rec, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// buildSegments writes n random records through a FileWAL with tiny
// segments and returns the records and the directory.
func buildSegments(t *testing.T, dir string, n int, seed int64) []Record {
	t.Helper()
	fw, existing, err := openFileWAL(dir, FileWALOptions{SegmentSize: 256, Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if len(existing) != 0 {
		t.Fatalf("fresh dir holds %d records", len(existing))
	}
	w := NewWAL()
	w.SetSink(fw)
	rr := rand.New(rand.NewSource(seed))
	var want []Record
	for i := 0; i < n; i++ {
		rec := randomRecord(rr)
		lsn := w.Append(rec)
		rec.LSN = lsn
		want = append(want, rec)
	}
	if err := w.WaitDurable(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileWALRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	want := buildSegments(t, dir, 60, 7)
	if n := len(segmentFiles(t, dir)); n < 2 {
		t.Fatalf("expected rotation, got %d segments", n)
	}
	fw, got, err := openFileWAL(dir, FileWALOptions{SegmentSize: 256, Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reopen: got %d records, want %d (or contents differ)", len(got), len(want))
	}
	// Appending after reopen continues the LSN sequence in the same files.
	w := NewWALFromRecords(got)
	w.SetSink(fw)
	lsn := w.LogCommit(ParseOwner("T99"))
	if lsn != want[len(want)-1].LSN+1 {
		t.Fatalf("continued lsn = %d, want %d", lsn, want[len(want)-1].LSN+1)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want)+1 || again[len(again)-1].Owner.String() != "T99" {
		t.Fatalf("after reopen-append: %d records", len(again))
	}
}

// TestFileWALTornTailEveryOffset is the torn-tail property test: whatever
// byte offset a crash cuts the LAST segment at, reopening either recovers
// a clean prefix of the log (and can append) or reports corruption —
// never a panic, never a half-record.
func TestFileWALTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	want := buildSegments(t, master, 40, 11)
	segs := segmentFiles(t, master)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(filepath.Join(master, last))
	if err != nil {
		t.Fatal(err)
	}
	// Records held by the earlier, untouched segments.
	infos, err := WALSegments(master)
	if err != nil {
		t.Fatal(err)
	}
	prefixCount := int(infos[len(infos)-1].FirstLSN) - 1

	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(t.TempDir(), "wal")
		copyDir(t, master, dir)
		if err := os.WriteFile(filepath.Join(dir, last), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fw, got, err := openFileWAL(dir, FileWALOptions{SegmentSize: 256, Durability: GroupCommit})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		// The recovered log must be a prefix of the original, at least as
		// long as the untouched segments.
		if len(got) < prefixCount || len(got) > len(want) {
			t.Fatalf("cut=%d: recovered %d records, prefix=%d total=%d", cut, len(got), prefixCount, len(want))
		}
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("cut=%d: recovered records are not a prefix", cut)
		}
		// The truncated log accepts appends and survives a further reopen.
		w := NewWALFromRecords(got)
		w.SetSink(fw)
		lsn := w.LogCommit(ParseOwner("Tnew"))
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		again, err := ReadWALDir(dir)
		if err != nil {
			t.Fatalf("cut=%d: reread: %v", cut, err)
		}
		if len(again) != len(got)+1 {
			t.Fatalf("cut=%d: reread %d records, want %d", cut, len(again), len(got)+1)
		}
	}
}

// TestFileWALBitFlip: single-byte damage inside a record body fails the
// checksum; in the last segment it truncates there, in an earlier segment
// it is corruption and refuses to open.
func TestFileWALBitFlip(t *testing.T) {
	master := t.TempDir()
	buildSegments(t, master, 40, 13)
	segs := segmentFiles(t, master)
	if len(segs) < 2 {
		t.Fatal("need at least two segments")
	}

	// Flip a byte mid-way through the FIRST segment: mid-log damage.
	dir := filepath.Join(t.TempDir(), "wal")
	copyDir(t, master, dir)
	p := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(p)
	data[len(data)/2] ^= 0xff
	os.WriteFile(p, data, 0o644)
	if _, _, err := openFileWAL(dir, FileWALOptions{}); err == nil {
		t.Fatal("mid-log bit flip must refuse to open")
	}

	// Flip a byte in the LAST segment: torn-tail rule truncates there.
	dir2 := filepath.Join(t.TempDir(), "wal")
	copyDir(t, master, dir2)
	p2 := filepath.Join(dir2, segs[len(segs)-1])
	data2, _ := os.ReadFile(p2)
	if len(data2) > frame.HeaderSize {
		data2[len(data2)-1] ^= 0xff
		os.WriteFile(p2, data2, 0o644)
		fw, _, err := openFileWAL(dir2, FileWALOptions{})
		if err != nil {
			t.Fatalf("tail bit flip must truncate, got %v", err)
		}
		fw.Close()
	}
}

// TestFileWALZeroFilledTail: a zero-extended last segment (preallocation
// artifact) parses as a clean prefix, not as empty records.
func TestFileWALZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	want := buildSegments(t, dir, 10, 17)
	segs := segmentFiles(t, dir)
	p := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 4096))
	f.Close()
	fw, got, err := openFileWAL(dir, FileWALOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero tail: got %d records, want %d", len(got), len(want))
	}
}

// TestFileWALGroupCommitDurability: once WaitDurable returns, the record
// is readable from the segment files by an independent scan — and many
// concurrent waiters are served by far fewer fsyncs than commits.
func TestFileWALGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := openFileWAL(dir, FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL()
	w.SetSink(fw)

	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := w.LogCommit(ParseOwner(fmt.Sprintf("T%d-%d", g, i)))
				if err := w.WaitDurable(lsn); err != nil {
					errs <- err
					return
				}
				if fw.DurableLSN() < lsn {
					errs <- fmt.Errorf("durable %d < waited %d", fw.DurableLSN(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	recs, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("files hold %d records, want %d", len(recs), workers*per)
	}
	if got := fw.Fsyncs(); got >= workers*per {
		t.Fatalf("group commit did not batch: %d fsyncs for %d commits", got, workers*per)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateWALAbove: after TruncateWALAbove(dir, keep) the directory
// holds exactly the records with LSN ≤ keep and reopens to append keep+1,
// wherever keep falls — mid-segment, on a segment boundary, past the end,
// or below the first record. A torn tail is read under OpenFileWAL's rule:
// it holds no record, so it is no reason to fail.
func TestTruncateWALAbove(t *testing.T) {
	master := t.TempDir()
	want := buildSegments(t, master, 60, 29)
	segs, err := WALSegments(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("need at least four segments, got %d", len(segs))
	}
	mid := segs[1]
	if segs[2].FirstLSN-mid.FirstLSN < 2 {
		t.Fatalf("segment %s holds a single record", mid.Name)
	}
	last := want[len(want)-1].LSN

	check := func(t *testing.T, dir string, keep uint64) {
		t.Helper()
		got, err := ReadWALDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := min(keep, last)
		if len(got) != int(n) || (n > 0 && !reflect.DeepEqual(got, want[:n])) {
			t.Fatalf("keep=%d: %d records survive, want %d", keep, len(got), n)
		}
		after, err := WALSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range after {
			if s.FirstLSN > keep {
				t.Fatalf("keep=%d: segment %s survives", keep, s.Name)
			}
		}
		fw, recs, err := openFileWAL(dir, FileWALOptions{SegmentSize: 256})
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		w := NewWALFromRecords(recs)
		w.SetSink(fw)
		if lsn := w.LogCommit(ParseOwner("Tnext")); lsn != n+1 {
			t.Fatalf("keep=%d: next lsn %d, want %d", keep, lsn, n+1)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		keep uint64
	}{
		{"mid-segment", mid.FirstLSN + 1},
		{"segment-boundary", mid.FirstLSN - 1},
		{"past-the-end", last + 5},
		{"at-the-end", last},
		{"zero", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			copyDir(t, master, dir)
			before := readDir(t, dir)
			if err := TruncateWALAbove(dir, tc.keep); err != nil {
				t.Fatal(err)
			}
			if tc.keep >= last && !reflect.DeepEqual(readDir(t, dir), before) {
				t.Fatalf("keep=%d ≥ last lsn %d changed the directory", tc.keep, last)
			}
			check(t, dir, tc.keep)
		})
	}

	// Five good records, then a sixth frame with a plausible length whose
	// payload was damaged: the checksum fails, so it is the torn tail.
	t.Run("torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		var seg []byte
		for _, rec := range want[:6] {
			seg = EncodeRecordFrame(seg, rec)
		}
		torn := len(EncodeRecordFrame(nil, want[5]))
		seg[len(seg)-torn+frame.HeaderSize+18] = 0x7f // the Owner length
		name := fmt.Sprintf("%s%020d%s", walSegPrefix, 1, walSegSuffix)
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := TruncateWALAbove(dir, 10); err != nil {
			t.Fatalf("torn tail below keep: %v", err)
		}
		got, err := ReadWALDir(dir)
		if err != nil || !reflect.DeepEqual(got, want[:5]) {
			t.Fatalf("after truncation: %d records, %v; want the 5 good ones", len(got), err)
		}
		fw, recs, err := openFileWAL(dir, FileWALOptions{})
		if err != nil || len(recs) != 5 {
			t.Fatalf("reopen: %d records, %v", len(recs), err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// readDir maps every file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestFileWALAppendAllocs: in steady state, with a flush after every few
// records, Append costs exactly one heap object per record (its frame) and
// AppendFrame none. The pending queue keeps its arrays from flush to
// flush, and the flush itself allocates nothing, in either durability
// mode. The segment is large enough that no rotation falls in the runs.
func TestFileWALAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const perFlush = 8
	rec := goldenHandRecords[1]
	frame := string(EncodeRecordFrame(nil, rec))
	for _, mode := range []Durability{SyncOnCommit, GroupCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			fw, _, err := openFileWAL(t.TempDir(), FileWALOptions{Durability: mode, SegmentSize: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer fw.Close()
			var lsn uint64
			round := func(appendOne func()) func() {
				return func() {
					for i := 0; i < perFlush; i++ {
						lsn++
						appendOne()
					}
					if err := fw.WaitDurable(lsn); err != nil {
						t.Fatal(err)
					}
				}
			}
			viaAppend := round(func() {
				rec.LSN = lsn
				fw.Append(rec)
			})
			viaFrame := round(func() { fw.AppendFrame(lsn, frame) })
			for i := 0; i < 10; i++ { // reach steady state
				viaAppend()
				viaFrame()
			}
			if got := testing.AllocsPerRun(200, viaAppend); got != perFlush {
				t.Errorf("%d Appends and a flush: %.2f allocations, want %d", perFlush, got, perFlush)
			}
			if got := testing.AllocsPerRun(200, viaFrame); got != 0 {
				t.Errorf("%d AppendFrames and a flush: %.2f allocations, want 0", perFlush, got)
			}
		})
	}
}

// TestAppendFrameWritesFrames: a segment holds exactly the frames handed
// to AppendFrame, back to back, and the flushed frames are not kept by
// the FileWAL's queue arrays.
func TestAppendFrameWritesFrames(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := openFileWAL(dir, FileWALOptions{Durability: GroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	run := goldenRun()
	for i, rec := range run {
		fw.AppendFrame(rec.LSN, string(EncodeRecordFrame(nil, rec)))
		if i%7 == 6 {
			if err := fw.WaitDurable(rec.LSN); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fw.WaitDurable(run[len(run)-1].LSN); err != nil {
		t.Fatal(err)
	}
	fw.flushMu.Lock()
	for _, p := range fw.spare[:cap(fw.spare)] {
		if p.frame != "" {
			t.Errorf("the spare queue array still holds the frame of lsn %d", p.lsn)
		}
	}
	fw.flushMu.Unlock()
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	names := segmentFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("%d segments, want 1", len(names))
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, encodeRun(run)) {
		t.Fatal("the segment is not the frames appended")
	}
}

// TestFileWALConcurrentFlushes: committers appending and waiting at once,
// in both durability modes, so that flushes (the flusher's, or each
// sync-on-commit waiter's own) swap the pending queue's arrays while
// appends land in them. Every record reaches the segments once, in order.
func TestFileWALConcurrentFlushes(t *testing.T) {
	for _, mode := range []Durability{SyncOnCommit, GroupCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			fw, _, err := openFileWAL(dir, FileWALOptions{Durability: mode, SegmentSize: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			w := NewWAL()
			w.SetSink(fw)
			const workers, per = 6, 40
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						w.LogUpdate(ParseOwner(fmt.Sprintf("T%d", g)), PageID(g+1), "", fmt.Sprint(i))
						if err := w.WaitDurable(w.LogCommit(ParseOwner(fmt.Sprintf("T%d", g)))); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadWALDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2*workers*per {
				t.Fatalf("segments hold %d records, want %d", len(recs), 2*workers*per)
			}
			for i, rec := range recs {
				if rec.LSN != uint64(i+1) {
					t.Fatalf("record %d has lsn %d", i, rec.LSN)
				}
			}
		})
	}
}
