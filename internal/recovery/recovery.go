// Package recovery implements restart recovery for the engine — the
// "reliably, as if there were no failures" half of the paper's §1
// transaction contract — in the ARIES style, adapted to open nested
// transactions:
//
//  1. One pass reads the log record by record. Analysis: roots with a
//     commit record are winners, roots with a completed abort are already
//     undone, and the roots still in flight at the crash (the undo chains
//     the rebuilt WAL leaves open, plus a checkpoint's in-flight set) are
//     losers. Redo repeats history: every page update (including rollback
//     CLRs) is reapplied in log order, reconstructing the exact pre-crash
//     page state whichever buffered frames had been flushed. Then the
//     record is replayed into the engine's WAL, whose window keeps only
//     what undo can still read.
//  2. Undo rolls the losers back through the executor runtime abort uses
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
	"os"
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
	p := newPass(disk, nil)
	for _, r := range wal.Records() {
		if err := p.step(r); err != nil {
			return nil, p.rep, err
		}
	}
	return p.finish(opts, registerTypes)
}

// RecoverDir brings a database back from its WAL segment directory — the
// real-restart path. When the directory holds a complete checkpoint
// (newest valid wins; torn ones from a crash mid-checkpoint are skipped by
// checksum), the store is seeded from its page image and redo replays only
// the log suffix above its barrier LSN; otherwise history is redone in full
// into a fresh store (every page update carries its full after-image, so
// the log alone reconstructs the pre-crash pages). The segments are read
// once, under the torn-tail rule (the last segment is truncated at the
// first bad checksum), and each record is analysed, redone and replayed
// into the engine's WAL as it is read. Losers are undone, and the returned
// engine keeps appending to the same segment files, with a checkpointer
// attached per opts.CheckpointInterval/CheckpointBytes. A MemOnly
// durability in opts is promoted to GroupCommit: an engine opened over
// segment files stays durable.
func RecoverDir(dir string, opts core.Options, registerTypes RegisterTypes) (*core.DB, Report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Report{}, err
	}
	ckpt, _, cerr := checkpoint.Latest(dir)
	if cerr != nil && !errors.Is(cerr, checkpoint.ErrNoCheckpoint) {
		return nil, Report{}, cerr
	}
	disk := storage.NewMemStore(opts.PageSize)
	if ckpt != nil {
		disk = storage.NewMemStoreFromSnapshot(ckpt.Pages, ckpt.NextPage, ckpt.PageSize)
	}
	p := newPass(disk, ckpt)
	fw, err := storage.OpenFileWAL(dir, storage.FileWALOptions{
		SegmentSize: opts.WALSegmentSize,
		Durability:  opts.Durability,
	}, p.step)
	if err != nil {
		return nil, p.rep, err
	}
	// A log whose first surviving record is above LSN 1 was truncated by a
	// checkpoint; recovering without one (or with one that leaves a gap to
	// the first record) would silently drop history.
	if ckpt == nil && p.first > 1 {
		_ = fw.Close()
		return nil, Report{}, fmt.Errorf("%w: first surviving record is LSN %d", ErrLogTruncated, p.first)
	}
	if ckpt != nil && p.first > ckpt.LSN+1 {
		_ = fw.Close()
		return nil, Report{}, fmt.Errorf("%w: checkpoint covers through LSN %d but the log resumes at %d", ErrLogTruncated, ckpt.LSN, p.first)
	}
	// Create the registry up front (unless disabled) so the file WAL
	// publishes into the same one the recovered engine will use.
	if opts.Obs == nil && !opts.DisableObs {
		opts.Obs = obs.New()
	}
	fw.SetObs(opts.Obs)
	p.wal.SetSink(fw) // replayed records are already in the files; only new appends flow
	db, rep, rerr := p.finish(opts, registerTypes)
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

// pass is recovery's one streaming pass over the log: step takes each
// record through analysis, redo and replay into the engine's WAL; finish
// resolves the losers, opens the engine and undoes them. With a
// checkpoint, disk was seeded from its page image: redo skips records at
// or below its barrier LSN (already reflected), and analysis unions its
// in-flight set (a belt-and-braces measure — truncation keeps every
// barrier-active transaction's records, so the records themselves normally
// re-derive the same set).
type pass struct {
	disk        *storage.MemStore
	wal         *storage.WAL
	rep         Report
	start       time.Time
	first       uint64 // the first record's LSN
	n           int    // records read
	maxID       int64
	ckptEnded   map[string]bool // the checkpoint's in-flight roots: ended in the log?
	redoSampled time.Duration   // time of every redoSample-th page write
}

// redoSample spaces the page writes whose time RedoTime is extrapolated
// from: reading the clock around each would cost more than the write.
const redoSample = 32

func newPass(disk *storage.MemStore, ckpt *checkpoint.Snapshot) *pass {
	p := &pass{disk: disk, wal: storage.NewWAL(), start: time.Now()}
	if ckpt != nil {
		p.rep.CheckpointLSN, p.maxID = ckpt.LSN, int64(ckpt.MaxTxn)
		p.ckptEnded = make(map[string]bool, len(ckpt.Active))
		for _, root := range ckpt.Active {
			p.ckptEnded[root] = false
		}
	}
	return p
}

// step analyses one record, redoes it when it is an update above the
// barrier, and only then replays it into the engine's WAL, which may drop
// it from memory.
func (p *pass) step(r storage.Record) error {
	if p.n == 0 {
		p.first = r.LSN
	}
	p.n++
	root := r.Owner.Root()
	if n, perr := strconv.ParseInt(strings.TrimPrefix(root, "T"), 10, 64); perr == nil && n > p.maxID {
		p.maxID = n
	}
	if _, ok := p.ckptEnded[root]; ok && r.EndsTxn() {
		p.ckptEnded[root] = true
	}
	if r.Kind == storage.RecCommit {
		p.rep.Winners = append(p.rep.Winners, root)
	}
	if r.Kind == storage.RecUpdate && r.LSN > p.rep.CheckpointLSN {
		t0, sampled := time.Time{}, p.rep.Redone%redoSample == 0
		if sampled {
			t0 = time.Now()
		}
		if err := writeThrough(p.disk, r.Page, r.After); err != nil {
			return fmt.Errorf("recovery: redo lsn %d: %w", r.LSN, err)
		}
		if sampled {
			p.redoSampled += time.Since(t0)
		}
		p.rep.Redone++
	}
	p.wal.Replay(r)
	return nil
}

// finish ends the pass and runs undo through the opened engine.
func (p *pass) finish(opts core.Options, registerTypes RegisterTypes) (*core.DB, Report, error) {
	rep := &p.rep
	losers, _ := p.wal.ActiveInfo()
	for root, ended := range p.ckptEnded {
		if !ended {
			losers = append(losers, root)
		}
	}
	sort.Strings(losers)
	rep.Losers = slices.Compact(losers)
	sort.Strings(rep.Winners)
	rep.Winners = slices.Compact(rep.Winners)
	if samples := (rep.Redone + redoSample - 1) / redoSample; samples > 0 {
		rep.RedoTime = p.redoSampled * time.Duration(rep.Redone) / time.Duration(samples)
	}
	rep.AnalysisTime = max(time.Since(p.start)-rep.RedoTime, time.Nanosecond)
	analysisStart, redoStart := p.start, p.start.Add(rep.AnalysisTime)

	// --- Open the engine on the recovered image ----------------------------
	opts.Store = p.disk
	opts.WAL = p.wal
	db := core.Open(opts)
	// Transaction ids restart at 1 in every engine incarnation, but the log
	// spans all of them: push the sequence past every id it mentions, so
	// the recovery transactions below — and everything the recovered engine
	// runs afterwards — can never collide with a logged id. (Analysis keys
	// winners and losers by root id; a collision would let a committed
	// T<n> from an earlier epoch mask the crashed epoch's in-flight T<n>.)
	// Truncated records can no longer vouch for the ids they carried; the
	// pass started from the high-water mark the checkpoint recorded.
	db.BumpTxnSeq(p.maxID)
	if registerTypes != nil {
		if err := registerTypes(db); err != nil {
			return nil, *rep, fmt.Errorf("recovery: re-registering types: %w", err)
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
		undo = append(undo, p.wal.LiveUndo(storage.ParseOwner(root), 0)...)
	}
	sort.Slice(undo, func(i, j int) bool { return undo[i].LSN > undo[j].LSN })
	var err error
	if rep.PhysicalUndos, rep.LogicalUndos, err = db.UndoLosers(undo); err != nil {
		return nil, *rep, fmt.Errorf("recovery: %w", err)
	}
	for i := len(rep.Losers) - 1; i >= 0; i-- {
		db.WAL().LogAbort(storage.ParseOwner(rep.Losers[i])) // the losers' aborts are now complete
	}
	rep.UndoTime = time.Since(undoStart)

	// The phases ran before (analysis, redo) or around (undo) the engine's
	// construction; stamp them onto its flight recorder retroactively so a
	// post-recovery timeline starts with the recovery story.
	startNote := ""
	if rep.CheckpointLSN > 0 {
		startNote = fmt.Sprintf("from checkpoint @ LSN %d", rep.CheckpointLSN)
	}
	if rec := db.Obs().Recorder(); rec != nil {
		rec.Record(obs.Event{Kind: obs.EvRecovery, Object: "analysis",
			Dur: rep.AnalysisTime, N: int64(p.n), Note: startNote})
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
		End: analysisStart.Add(rep.AnalysisTime), N: int64(p.n), Note: startNote})
	tr.RecordEngine(span.Span{ID: "recovery/redo", Kind: span.KRecovery,
		Name: "recovery: redo", Start: redoStart,
		End: redoStart.Add(rep.RedoTime), N: int64(rep.Redone)})
	tr.RecordEngine(span.Span{ID: "recovery/undo", Kind: span.KRecovery,
		Name: "recovery: undo", Start: undoStart,
		End:  undoStart.Add(rep.UndoTime),
		N:    int64(rep.PhysicalUndos + rep.LogicalUndos),
		Note: fmt.Sprintf("%d losers", len(rep.Losers))})

	// Make the recovery pass itself durable (abort markers, CLRs, discards)
	// before declaring the engine open; a no-op without a durable sink.
	if err := db.WAL().WaitDurable(db.WAL().LastLSN()); err != nil {
		return nil, *rep, fmt.Errorf("recovery: flushing recovery records: %w", err)
	}
	return db, *rep, nil
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
