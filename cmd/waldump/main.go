// Command waldump prints the records of a WAL segment directory in a
// human-readable, grep-friendly form — one line per record. It streams
// the read-only walk (the torn tail of the last segment is skipped, mid-log
// damage is an error), so dumping never mutates the log and holds one
// segment in memory however long the log. Checkpoint files
// in the directory are summarized first — including torn ones a crash
// landed mid-checkpoint — together with the truncation boundary each one
// justifies.
//
// Usage:
//
//	waldump -dir /path/to/wal [-owner T17] [-page 3]
//	waldump -compare /path/to/walA /path/to/walB
//
// -compare diffs two WAL directories record-by-record — the replication
// debugging tool: two replicas of the same log must agree byte-for-byte
// on every LSN they share. It reports the first divergent LSN (exit 1),
// or notes the benign ways the logs may differ — a checkpoint-truncated
// prefix on one side, a longer suffix on the other (a lagging replica or
// an unreplicated torn tail) — and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/storage"
)

func main() {
	dir := flag.String("dir", "", "WAL segment directory (required)")
	owner := flag.String("owner", "", "only records whose owner's root matches")
	page := flag.Uint64("page", 0, "only update records touching this page")
	compare := flag.Bool("compare", false, "diff two WAL directories (the two positional args) record-by-record")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "waldump: -compare needs exactly two directories: waldump -compare <dirA> <dirB>")
			os.Exit(2)
		}
		os.Exit(compareDirs(flag.Arg(0), flag.Arg(1)))
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "waldump: -dir is required")
		os.Exit(2)
	}
	ckpts := dumpCheckpoints(*dir)
	n := 0
	err := storage.WalkWALDir(*dir, func(r storage.Record) error {
		if n++; n == 1 && r.LSN > 1 {
			fmt.Printf("log truncated: first surviving record is LSN %d (records 1..%d reclaimed by checkpointing)\n", r.LSN, r.LSN-1)
		}
		if *owner != "" && r.Owner.Root() != *owner {
			return nil
		}
		if *page != 0 && uint64(r.Page) != *page {
			return nil
		}
		line := fmt.Sprintf("%8d %-10s %-14s", r.LSN, r.Kind, r.Owner)
		if r.Kind == storage.RecUpdate {
			clr := ""
			if r.CLR {
				clr = " CLR"
			}
			line += fmt.Sprintf(" page=%d %q -> %q%s", r.Page, r.Before, r.After, clr)
		}
		if r.Note != "" {
			line += fmt.Sprintf(" note=%q", strings.ReplaceAll(r.Note, "\x1f", "|"))
		}
		if len(r.Refs) > 0 {
			line += fmt.Sprintf(" refs=%v", r.Refs)
		}
		fmt.Println(line)
		return nil
	})
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "waldump: %s: no such directory\n", *dir)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "waldump: %v\n", err)
		os.Exit(1)
	}
	if n == 0 {
		segs, _ := filepath.Glob(filepath.Join(*dir, "wal-*.seg"))
		switch {
		case len(segs) == 0 && ckpts == 0:
			fmt.Fprintf(os.Stderr, "waldump: %s: empty segment directory (no wal-*.seg files) — nothing was ever logged here\n", *dir)
		case len(segs) == 0:
			fmt.Fprintf(os.Stderr, "waldump: %s: checkpoint file(s) but no wal-*.seg — the image above is the whole story\n", *dir)
		default:
			fmt.Fprintf(os.Stderr, "waldump: %s: %d segment file(s) but no decodable records (torn before the first record?)\n", *dir, len(segs))
		}
	}
}

// compareDirs diffs two WAL directories on their shared LSN range and
// returns the process exit code: 0 when every shared LSN carries an
// identical record (length differences are reported but benign — a
// replica may lag, a checkpoint may have truncated one prefix), 1 on the
// first divergent LSN, 2 when a directory cannot be read at all.
func compareDirs(dirA, dirB string) int {
	readAll := func(dir string) (map[uint64]storage.Record, uint64, uint64, bool) {
		records, err := storage.ReadWALDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waldump: %s: %v\n", dir, err)
			return nil, 0, 0, false
		}
		byLSN := make(map[uint64]storage.Record, len(records))
		var first, last uint64
		for _, r := range records {
			byLSN[r.LSN] = r
			if first == 0 || r.LSN < first {
				first = r.LSN
			}
			if r.LSN > last {
				last = r.LSN
			}
		}
		return byLSN, first, last, true
	}
	a, firstA, lastA, okA := readAll(dirA)
	b, firstB, lastB, okB := readAll(dirB)
	if !okA || !okB {
		return 2
	}
	fmt.Printf("A %s: %d records, LSN %d..%d\n", dirA, len(a), firstA, lastA)
	fmt.Printf("B %s: %d records, LSN %d..%d\n", dirB, len(b), firstB, lastB)
	if len(a) == 0 || len(b) == 0 {
		fmt.Println("one side is empty; nothing to compare")
		return 0
	}

	// Shared range: below it one side's prefix was checkpoint-truncated,
	// above it one side has a suffix the other never saw (a lagging replica,
	// or a torn tail the scan already skipped).
	lo, hi := max64(firstA, firstB), min64(lastA, lastB)
	if firstA != firstB {
		fmt.Printf("prefix differs: A starts at %d, B at %d — %d record(s) reclaimed on one side, unverifiable\n",
			firstA, firstB, lo-min64(firstA, firstB))
	}
	show := func(tag string, r storage.Record, ok bool) {
		if !ok {
			fmt.Printf("  %s: <missing>\n", tag)
			return
		}
		fmt.Printf("  %s: %s %s page=%d %q -> %q note=%q\n", tag, r.Kind, r.Owner, r.Page, r.Before, r.After, r.Note)
	}
	for lsn := lo; lsn <= hi; lsn++ {
		ra, okA := a[lsn]
		rb, okB := b[lsn]
		if okA && okB && string(storage.EncodeRecordFrame(nil, ra)) == string(storage.EncodeRecordFrame(nil, rb)) {
			continue
		}
		fmt.Printf("FIRST DIVERGENT LSN: %d\n", lsn)
		show("A", ra, okA)
		show("B", rb, okB)
		return 1
	}
	fmt.Printf("shared range %d..%d identical (%d records)\n", lo, hi, hi-lo+1)
	switch {
	case lastA > lastB:
		fmt.Printf("A has a suffix B lacks: LSN %d..%d (%d records) — B lags or A's tail never replicated\n",
			lastB+1, lastA, lastA-lastB)
	case lastB > lastA:
		fmt.Printf("B has a suffix A lacks: LSN %d..%d (%d records) — A lags or B's tail never replicated\n",
			lastA+1, lastB, lastB-lastA)
	default:
		fmt.Println("logs are identical")
	}
	return 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// dumpCheckpoints summarizes the directory's checkpoint files (valid and
// torn) and returns how many there are.
func dumpCheckpoints(dir string) int {
	infos, err := checkpoint.Scan(dir)
	if err != nil || len(infos) == 0 {
		return 0
	}
	for _, info := range infos {
		s, lerr := checkpoint.Load(filepath.Join(dir, info.Name))
		if lerr != nil {
			fmt.Printf("checkpoint %s: INVALID — ignored by recovery (%v)\n", info.Name, lerr)
			continue
		}
		line := fmt.Sprintf("checkpoint %s: lsn=%d pages=%d max-txn=%d truncate-below=%d",
			info.Name, s.LSN, len(s.Pages), s.MaxTxn, s.TruncateBelow())
		if len(s.Active) > 0 {
			line += fmt.Sprintf(" active=%v", s.Active)
		}
		if s.UnixNano != 0 {
			line += " written=" + time.Unix(0, s.UnixNano).Format("2006-01-02T15:04:05.000")
		}
		fmt.Println(line)
	}
	return len(infos)
}
