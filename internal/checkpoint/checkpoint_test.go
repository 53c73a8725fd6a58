package checkpoint

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
)

func armFault(t *testing.T, kv string) {
	t.Helper()
	name, spec, err := fault.ParseArm(kv)
	if err != nil {
		t.Fatal(err)
	}
	fault.Default.Arm(name, *spec)
	t.Cleanup(func() { fault.Default.Disarm(name) })
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		LSN:          42,
		OldestActive: 37,
		MaxTxn:       9,
		NextPage:     5,
		PageSize:     128,
		UnixNano:     1700000000000000000,
		Active:       []string{"T7", "T9"},
		Pages:        map[storage.PageID]string{1: "alpha", 2: "", 4: "delta"},
	}
}

// TestWriteLoadRoundtrip: a checkpoint survives the disk intact —
// field-for-field, including empty pages and the in-flight set.
func TestWriteLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot()
	path, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(42) {
		t.Fatalf("path %q, want file %q", path, FileName(42))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// ckptGoldenHex is the hex of the file Write produces for goldenSnapshot.
// A change here is a change of the checkpoint file format (and of the
// snapshots replication ships).
const ckptGoldenHex = "4f4f4442434b505401000000cf0000005e00f1962a000000000000002500000000000000" +
	"09000000000000000500000000000000800000000000000000002a36fe9c971702025437" +
	"025439040105616c7068610200040564656c746180804082017070707070707070707070" +
	"707070707070707070707070707070707070707070707070707070707070707070707070" +
	"707070707070707070707070707070707070707070707070707070707070707070707070" +
	"707070707070707070707070707070707070707070707070707070707070707070707070" +
	"7070707070707070707070"

// goldenSnapshot is sampleSnapshot plus a page whose id and length need
// multi-byte uvarints.
func goldenSnapshot() *Snapshot {
	s := sampleSnapshot()
	s.Pages[1<<20] = strings.Repeat("p", 130)
	return s
}

// TestCheckpointGoldenBytes pins the checkpoint file format: Write produces
// exactly the pinned bytes, and a file holding them — as an older build
// wrote it — loads back as the same snapshot.
func TestCheckpointGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != ckptGoldenHex {
		t.Fatalf("checkpoint bytes drifted:\n got %s\nwant %s", got, ckptGoldenHex)
	}
	golden, err := hex.DecodeString(ckptGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), FileName(42))
	if err := os.WriteFile(other, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(other)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenSnapshot()) {
		t.Fatalf("golden file loads as %+v", got)
	}
}

// TestTruncateBelow: the truncation floor is the barrier unless an
// in-flight transaction's first record is older — losers keep their undo.
func TestTruncateBelow(t *testing.T) {
	s := &Snapshot{LSN: 42}
	if got := s.TruncateBelow(); got != 43 {
		t.Fatalf("no active: TruncateBelow = %d, want 43", got)
	}
	s.OldestActive = 37
	if got := s.TruncateBelow(); got != 37 {
		t.Fatalf("older active: TruncateBelow = %d, want 37", got)
	}
	s.OldestActive = 42
	if got := s.TruncateBelow(); got != 42 {
		t.Fatalf("active at barrier: TruncateBelow = %d, want 42", got)
	}
}

// TestLoadRejectsTornFile: truncation and bit flips both fail the checksum
// and come back as ErrCheckpointCorrupt — the property that makes
// write-in-place safe.
func TestLoadRejectsTornFile(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn: the tail never made it to disk.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("torn file: err = %v, want ErrCheckpointCorrupt", err)
	}
	// Bit rot: full length, flipped byte in the payload.
	rot := append([]byte(nil), raw...)
	rot[len(rot)-1] ^= 0xff
	if err := os.WriteFile(path, rot, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bit rot: err = %v, want ErrCheckpointCorrupt", err)
	}
	// Wrong magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCheckpointCorrupt", err)
	}
}

// TestLatestSkipsTornNewest: when a crash tears the newest checkpoint,
// Latest falls back to the older complete one; with no valid file at all it
// reports ErrNoCheckpoint (full replay).
func TestLatestSkipsTornNewest(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}

	old := sampleSnapshot()
	old.LSN = 10
	if _, err := Write(dir, old); err != nil {
		t.Fatal(err)
	}
	newer := sampleSnapshot()
	newer.LSN = 42
	newerPath, err := Write(dir, newer)
	if err != nil {
		t.Fatal(err)
	}

	s, path, err := Latest(dir)
	if err != nil || s.LSN != 42 {
		t.Fatalf("Latest = %v (lsn %d), want the LSN-42 checkpoint", err, s.LSN)
	}
	if path != newerPath {
		t.Fatalf("Latest path %q, want %q", path, newerPath)
	}

	// Tear the newest: Latest degrades to the older complete checkpoint.
	raw, _ := os.ReadFile(newerPath)
	if err := os.WriteFile(newerPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err = Latest(dir)
	if err != nil || s.LSN != 10 {
		t.Fatalf("after tearing newest: Latest = %v (lsn %d), want lsn 10", err, s.LSN)
	}

	// Tear the older one too: nothing verifies, full replay.
	raw, _ = os.ReadFile(filepath.Join(dir, FileName(10)))
	if err := os.WriteFile(filepath.Join(dir, FileName(10)), raw[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all torn: err = %v, want ErrNoCheckpoint", err)
	}
}

// TestWriteFailpointLeavesNoFile: an injected error mid-body abandons the
// write and removes the partial file — the error path a full disk takes.
func TestWriteFailpointLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	armFault(t, "ckpt.write=error(disk full)")
	if _, err := Write(dir, sampleSnapshot()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Write = %v, want injected error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName(42))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial checkpoint file left behind: stat err = %v", err)
	}
	if _, _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest after failed write = %v, want ErrNoCheckpoint", err)
	}
}

// writeSeg drops an empty WAL segment file named for its first LSN.
func writeSeg(t *testing.T, dir string, firstLSN uint64) {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", firstLSN))
	if err := os.WriteFile(name, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateSegments: a segment dies only when its successor starts at or
// below the boundary, and the newest segment is never deleted no matter how
// high the boundary climbs.
func TestTruncateSegments(t *testing.T) {
	dir := t.TempDir()
	writeSeg(t, dir, 1)
	writeSeg(t, dir, 100)
	writeSeg(t, dir, 200)

	// Boundary inside segment 100: only segment 1 is entirely dead.
	n, err := TruncateSegments(dir, 150)
	if err != nil || n != 1 {
		t.Fatalf("keep=150: removed %d, %v; want 1", n, err)
	}
	segs, err := storage.WALSegments(dir)
	if err != nil || len(segs) != 2 || segs[0].FirstLSN != 100 {
		t.Fatalf("keep=150 left %+v, %v", segs, err)
	}

	// Boundary above everything: the newest segment still survives.
	n, err = TruncateSegments(dir, 1<<40)
	if err != nil || n != 1 {
		t.Fatalf("keep=max: removed %d, %v; want 1", n, err)
	}
	segs, _ = storage.WALSegments(dir)
	if len(segs) != 1 || segs[0].FirstLSN != 200 {
		t.Fatalf("newest segment must survive, got %+v", segs)
	}

	// Idempotent: nothing left to reclaim.
	n, err = TruncateSegments(dir, 1<<40)
	if err != nil || n != 0 {
		t.Fatalf("second pass removed %d, %v; want 0", n, err)
	}
}

// TestTruncateSegmentsFailpointKeepsContiguous: an injected failure before
// an unlink stops truncation early but the surviving log is still a
// contiguous suffix (deletion is oldest-first).
func TestTruncateSegmentsFailpointKeepsContiguous(t *testing.T) {
	dir := t.TempDir()
	writeSeg(t, dir, 1)
	writeSeg(t, dir, 100)
	writeSeg(t, dir, 200)
	armFault(t, "ckpt.truncate=error(io);after=1")

	n, err := TruncateSegments(dir, 1<<40)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if n != 1 {
		t.Fatalf("removed %d before the failure, want 1", n)
	}
	segs, _ := storage.WALSegments(dir)
	if len(segs) != 2 || segs[0].FirstLSN != 100 || segs[1].FirstLSN != 200 {
		t.Fatalf("surviving log not a contiguous suffix: %+v", segs)
	}
}

// TestPrune: checkpoint files below the newest complete barrier are
// reclaimed; the barrier's own file and anything newer stay.
func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{10, 20, 42} {
		s := sampleSnapshot()
		s.LSN = lsn
		if _, err := Write(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Prune(dir, 42)
	if err != nil || n != 2 {
		t.Fatalf("Prune removed %d, %v; want 2", n, err)
	}
	infos, err := Scan(dir)
	if err != nil || len(infos) != 1 || infos[0].LSN != 42 {
		t.Fatalf("after prune: %+v, %v", infos, err)
	}
}
