package main

import (
	"testing"

	"repro/internal/storage"
)

// writeLog materializes records (Owner/After vary per call) into a fresh
// WAL directory through the real FileWAL, so compare sees exactly what a
// replica's disk would hold.
func writeLog(t *testing.T, dir string, owners []string) {
	t.Helper()
	fw, err := storage.OpenFileWAL(dir, storage.FileWALOptions{Durability: storage.GroupCommit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, owner := range owners {
		last = uint64(i + 1)
		fw.Append(storage.Record{
			LSN: last, Kind: storage.RecUpdate, Owner: storage.ParseOwner(owner),
			Page: storage.PageID(1), Before: "", After: owner,
		})
	}
	if last != 0 {
		if err := fw.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompareIdentical(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeLog(t, a, []string{"T1", "T2", "T3"})
	writeLog(t, b, []string{"T1", "T2", "T3"})
	if code := compareDirs(a, b); code != 0 {
		t.Fatalf("identical logs: exit %d, want 0", code)
	}
}

func TestCompareLaggingSuffixIsBenign(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeLog(t, a, []string{"T1", "T2", "T3", "T4"})
	writeLog(t, b, []string{"T1", "T2"})
	if code := compareDirs(a, b); code != 0 {
		t.Fatalf("lagging replica: exit %d, want 0 (a shorter prefix is not divergence)", code)
	}
}

func TestCompareDivergenceDetected(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeLog(t, a, []string{"T1", "T2", "T3"})
	writeLog(t, b, []string{"T1", "TX", "T3"})
	if code := compareDirs(a, b); code != 1 {
		t.Fatalf("divergent LSN 2: exit %d, want 1", code)
	}
}
