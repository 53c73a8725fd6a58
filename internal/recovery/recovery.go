// Package recovery implements restart recovery for the engine — the
// "reliably, as if there were no failures" half of the paper's §1
// transaction contract — in the ARIES style, adapted to open nested
// transactions:
//
//  1. Analysis takes the in-flight roots the rebuilt WAL derived while
//     reading the log (plus a checkpoint's in-flight set): roots with a
//     commit record are winners, roots with a completed abort are already
//     undone, everything else in flight at the crash is a loser.
//  2. Redo repeats history: every page update (including rollback CLRs) is
//     reapplied in log order, reconstructing the exact pre-crash page
//     state regardless of which buffered frames had been flushed.
//  3. Undo rolls the losers back through the executor runtime abort uses
//     (core.DB.UndoLosers): the losers' live undo records — physical
//     before-images and logical compensation intents that no discard or
//     later intent consumed, tracked per root by the WAL itself — merged
//     newest first. Physical records restore before-images (logged as
//     CLRs); logical ones re-run the compensating operation, each as a
//     committed transaction of its own, which requires the application's
//     object types to be registered again (code cannot be logged).
//
// Granularity caveat (documented in DESIGN.md §4b): a crash inside a
// single compensating operation recovers to that compensation's boundary —
// its completed sub-operations are permanent (nested top actions), and the
// re-run relies on the compensation's miss-tolerance. All built-in
// compensations (btree, list, enc, banking) are miss-tolerant.
package recovery

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/storage"
)

// Recovery errors.
var (
	// ErrRedoPageGap means redo could not materialize a logged page id
	// within the allocation bound — the log references a page the store
	// can never reach, which is corruption, not a recoverable state.
	ErrRedoPageGap = errors.New("recovery: redo page unreachable within allocation bound")
	// ErrLogTruncated means the surviving log starts above LSN 1 but no
	// complete checkpoint covers the missing prefix. Recovering anyway
	// would silently drop history, so this is a hard stop.
	ErrLogTruncated = errors.New("recovery: log is truncated but no valid checkpoint covers it")
)

// Report summarizes a recovery pass.
type Report struct {
	// Winners are committed transactions whose effects were redone.
	Winners []string
	// Losers are in-flight transactions that were rolled back.
	Losers []string
	// CheckpointLSN is the barrier of the checkpoint recovery started
	// from (0 = full replay from LSN 1).
	CheckpointLSN uint64
	// Redone counts reapplied page updates.
	Redone int
	// PhysicalUndos and LogicalUndos count executed undo entries.
	PhysicalUndos int
	LogicalUndos  int
	// Phase durations: outcome analysis, history redo, and loser undo
	// (including recovery-time compensations). Also published as
	// recovery.phase events on the recovered engine's flight recorder.
	AnalysisTime time.Duration
	RedoTime     time.Duration
	UndoTime     time.Duration
}

// RegisterTypes re-registers the application's object types on the
// recovered engine; logical undo needs the method implementations.
type RegisterTypes func(db *core.DB) error

// Recover brings a crashed database back: disk and wal come from
// core.(*DB).CrashImage (or a real restart), opts configure the new engine
// (Protocol etc. — Store/WAL are set by Recover), and registerTypes
// reinstalls the application's object model. It returns the recovered,
// ready-to-use engine.
func Recover(disk *storage.MemStore, wal *storage.WAL, opts core.Options, registerTypes RegisterTypes) (*core.DB, Report, error) {
	records := wal.Records()
	return recoverWith(disk, records, storage.NewWALFromRecords(records), nil, opts, registerTypes)
}

// RecoverDir brings a database back from its WAL segment directory — the
// real-restart path. When the directory holds a complete checkpoint
// (newest valid wins; torn ones from a crash mid-checkpoint are skipped by
// checksum), the store is seeded from its page image and redo replays only
// the log suffix above its barrier LSN; otherwise the segments are opened
// with the torn-tail rule (the last segment is truncated at the first bad
// checksum) and history is redone in full into a fresh store (every page
// update carries its full after-image, so the log alone reconstructs the
// pre-crash pages). Losers are undone, and the returned engine keeps
// appending to the same segment files, with a checkpointer attached per
// opts.CheckpointInterval/CheckpointBytes. A MemOnly durability in opts is
// promoted to GroupCommit: an engine opened over segment files stays
// durable.
func RecoverDir(dir string, opts core.Options, registerTypes RegisterTypes) (*core.DB, Report, error) {
	fw, records, err := storage.OpenFileWAL(dir, storage.FileWALOptions{
		SegmentSize: opts.WALSegmentSize,
		Durability:  opts.Durability,
	})
	if err != nil {
		return nil, Report{}, err
	}
	ckpt, _, cerr := checkpoint.Latest(dir)
	if cerr != nil && !errors.Is(cerr, checkpoint.ErrNoCheckpoint) {
		_ = fw.Close()
		return nil, Report{}, cerr
	}
	// A log whose first surviving record is above LSN 1 was truncated by a
	// checkpoint; recovering without one (or with one that leaves a gap to
	// the first record) would silently drop history.
	if len(records) > 0 {
		first := records[0].LSN
		if ckpt == nil && first > 1 {
			_ = fw.Close()
			return nil, Report{}, fmt.Errorf("%w: first surviving record is LSN %d", ErrLogTruncated, first)
		}
		if ckpt != nil && first > ckpt.LSN+1 {
			_ = fw.Close()
			return nil, Report{}, fmt.Errorf("%w: checkpoint covers through LSN %d but the log resumes at %d", ErrLogTruncated, ckpt.LSN, first)
		}
	}
	// Create the registry up front (unless disabled) so the file WAL
	// publishes into the same one the recovered engine will use.
	if opts.Obs == nil && !opts.DisableObs {
		opts.Obs = obs.New()
	}
	fw.SetObs(opts.Obs)
	disk := storage.NewMemStore(opts.PageSize)
	if ckpt != nil {
		disk = storage.NewMemStoreFromSnapshot(ckpt.Pages, ckpt.NextPage, ckpt.PageSize)
	}
	wal := storage.NewWALFromRecords(records)
	wal.SetSink(fw) // existing records are already in the files; only new appends flow
	db, rep, rerr := recoverWith(disk, records, wal, ckpt, opts, registerTypes)
	if rerr != nil {
		_ = fw.Close()
		return nil, rep, rerr
	}
	ck := db.EnableCheckpoints(fw, opts.CheckpointInterval, opts.CheckpointBytes)
	if ckpt != nil {
		ck.SeedLSN(ckpt.LSN)
	}
	return db, rep, nil
}

// recoverWith is the shared analysis/redo/undo pass. engineWAL must hold
// exactly records (plus whatever sink continues them); the recovered
// engine appends its CLRs, discards, and abort markers to it. When ckpt is
// non-nil, disk was seeded from its page image: redo skips records at or
// below its barrier LSN (already reflected), and analysis unions its
// in-flight set (a belt-and-braces measure — truncation keeps every
// barrier-active transaction's records, so the records themselves normally
// re-derive the same set).
func recoverWith(disk *storage.MemStore, records []storage.Record, engineWAL *storage.WAL, ckpt *checkpoint.Snapshot, opts core.Options, registerTypes RegisterTypes) (*core.DB, Report, error) {
	var rep Report
	var ckptLSN uint64
	if ckpt != nil {
		ckptLSN = ckpt.LSN
		rep.CheckpointLSN = ckpt.LSN
	}

	// --- Analysis ---------------------------------------------------------
	// Rebuilding the engine's WAL derived the in-flight roots; a root the
	// log shows finished (EndsTxn) is no loser, whatever the checkpoint's
	// in-flight set says. The same scan collects the winners and the
	// highest transaction id.
	analysisStart := time.Now()
	ended := map[string]bool{}
	maxID := int64(0)
	for i := range records {
		r := &records[i]
		root := storage.RootOf(r.Owner)
		if n, perr := strconv.ParseInt(strings.TrimPrefix(root, "T"), 10, 64); perr == nil && n > maxID {
			maxID = n
		}
		if r.EndsTxn() {
			ended[root] = true
		}
		if r.Kind == storage.RecCommit {
			rep.Winners = append(rep.Winners, root)
		}
	}
	inflight, _ := engineWAL.ActiveInfo()
	if ckpt != nil {
		inflight = append(inflight, ckpt.Active...)
	}
	var losers []string
	for _, root := range inflight {
		if !ended[root] {
			losers = append(losers, root)
		}
	}
	sort.Strings(losers)
	rep.Losers = slices.Compact(losers)
	rep.AnalysisTime = time.Since(analysisStart)

	// --- Redo: repeat history --------------------------------------------
	redoStart := time.Now()
	for _, r := range records {
		if r.Kind != storage.RecUpdate || r.LSN <= ckptLSN {
			continue
		}
		if err := writeThrough(disk, r.Page, r.After); err != nil {
			return nil, rep, fmt.Errorf("recovery: redo lsn %d: %w", r.LSN, err)
		}
		rep.Redone++
	}
	rep.RedoTime = time.Since(redoStart)

	// --- Open the engine on the recovered image ----------------------------
	opts.Store = disk
	opts.WAL = engineWAL
	db := core.Open(opts)
	// Transaction ids restart at 1 in every engine incarnation, but the log
	// spans all of them: push the sequence past every id it mentions, so
	// the recovery transactions below — and everything the recovered engine
	// runs afterwards — can never collide with a logged id. (Analysis keys
	// winners and losers by root id; a collision would let a committed
	// T<n> from an earlier epoch mask the crashed epoch's in-flight T<n>.)
	// Truncated records can no longer vouch for the ids they carried; the
	// checkpoint recorded the sequence high-water mark at its barrier.
	if ckpt != nil && int64(ckpt.MaxTxn) > maxID {
		maxID = int64(ckpt.MaxTxn)
	}
	db.BumpTxnSeq(maxID)
	if registerTypes != nil {
		if err := registerTypes(db); err != nil {
			return nil, rep, fmt.Errorf("recovery: re-registering types: %w", err)
		}
	}

	// --- Undo the losers ----------------------------------------------------
	// One GLOBAL backward sweep over every loser's live undo records, in
	// strict reverse LSN order — NOT loser by loser. Per-loser undo is
	// unsound when losers interleave on an object: loser L's incomplete
	// page write is always newer than any other loser M's intent touching
	// that page (M's subtransaction released the page lock before L's
	// acquired it), so M's compensation must run only AFTER L's restore —
	// otherwise the physical restore clobbers the compensation's write and
	// M's forward effect silently survives the rollback. The same sweep
	// also orders non-commuting compensations of different losers newest
	// first, as logical undo requires.
	undoStart := time.Now()
	var undo []storage.Record
	for _, root := range rep.Losers {
		undo = append(undo, engineWAL.LiveUndo(root, 0)...)
	}
	sort.Slice(undo, func(i, j int) bool { return undo[i].LSN > undo[j].LSN })
	var err error
	if rep.PhysicalUndos, rep.LogicalUndos, err = db.UndoLosers(undo); err != nil {
		return nil, rep, fmt.Errorf("recovery: %w", err)
	}
	for i := len(rep.Losers) - 1; i >= 0; i-- {
		db.WAL().LogAbort(rep.Losers[i]) // the losers' aborts are now complete
	}
	rep.UndoTime = time.Since(undoStart)

	// The phases ran before (analysis, redo) or around (undo) the engine's
	// construction; stamp them onto its flight recorder retroactively so a
	// post-recovery timeline starts with the recovery story.
	startNote := ""
	if ckptLSN > 0 {
		startNote = fmt.Sprintf("from checkpoint @ LSN %d", ckptLSN)
	}
	if rec := db.Obs().Recorder(); rec != nil {
		rec.Record(obs.Event{Kind: obs.EvRecovery, Object: "analysis",
			Dur: rep.AnalysisTime, N: int64(len(records)), Note: startNote})
		rec.Record(obs.Event{Kind: obs.EvRecovery, Object: "redo",
			Dur: rep.RedoTime, N: int64(rep.Redone)})
		rec.Record(obs.Event{Kind: obs.EvRecovery, Object: "undo",
			Dur: rep.UndoTime, N: int64(rep.PhysicalUndos + rep.LogicalUndos),
			Note: fmt.Sprintf("%d losers", len(rep.Losers))})
	}
	// The same three phases as engine-track spans, so a Chrome export of a
	// post-recovery run opens with the recovery timeline.
	tr := db.Spans()
	tr.RecordEngine(span.Span{ID: "recovery/analysis", Kind: span.KRecovery,
		Name: "recovery: analysis", Start: analysisStart,
		End: analysisStart.Add(rep.AnalysisTime), N: int64(len(records)), Note: startNote})
	tr.RecordEngine(span.Span{ID: "recovery/redo", Kind: span.KRecovery,
		Name: "recovery: redo", Start: redoStart,
		End: redoStart.Add(rep.RedoTime), N: int64(rep.Redone)})
	tr.RecordEngine(span.Span{ID: "recovery/undo", Kind: span.KRecovery,
		Name: "recovery: undo", Start: undoStart,
		End:  undoStart.Add(rep.UndoTime),
		N:    int64(rep.PhysicalUndos + rep.LogicalUndos),
		Note: fmt.Sprintf("%d losers", len(rep.Losers))})

	sort.Strings(rep.Winners)
	rep.Winners = slices.Compact(rep.Winners)
	// Make the recovery pass itself durable (abort markers, CLRs, discards)
	// before declaring the engine open; a no-op without a durable sink.
	if err := db.WAL().WaitDurable(db.WAL().LastLSN()); err != nil {
		return nil, rep, fmt.Errorf("recovery: flushing recovery records: %w", err)
	}
	return db, rep, nil
}

// RedoPage applies one update record's after-image to a store, allocating
// forward as needed — the redo step recovery replays crash suffixes with,
// exported so a replication follower's warm standby applies committed
// entries through the identical path.
func RedoPage(disk *storage.MemStore, pid storage.PageID, data string) error {
	return writeThrough(disk, pid, data)
}

// writeThrough writes a page image, allocating ids the snapshot may not
// have materialized yet (allocation is not logged; ids are monotone, so
// allocating forward until pid exists is faithful).
func writeThrough(disk *storage.MemStore, pid storage.PageID, data string) error {
	err := disk.Write(pid, data)
	if err == nil {
		return nil
	}
	if !errors.Is(err, storage.ErrPageNotFound) {
		return err
	}
	const allocBound = 1 << 20
	for i := 0; i < allocBound; i++ {
		id := disk.Allocate()
		if id >= pid {
			return disk.Write(pid, data)
		}
	}
	return fmt.Errorf("%w: page %d not reached after %d allocations", ErrRedoPageGap, pid, allocBound)
}
