package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Durability selects how the write-ahead log reaches stable storage.
type Durability int

const (
	// MemOnly keeps the log in memory (the original simulation mode; crash
	// recovery works from CrashImage snapshots only).
	MemOnly Durability = iota
	// SyncOnCommit writes and fsyncs the log on every commit individually —
	// the naive per-commit-fsync baseline.
	SyncOnCommit
	// GroupCommit batches concurrent commit waiters into a single
	// write+fsync performed by a dedicated flusher goroutine; updates and
	// CLRs ride the next batch without forcing one.
	GroupCommit
)

func (d Durability) String() string {
	switch d {
	case MemOnly:
		return "mem-only"
	case SyncOnCommit:
		return "sync-on-commit"
	case GroupCommit:
		return "group-commit"
	}
	return fmt.Sprintf("durability(%d)", int(d))
}

// ParseDurability maps a mode name back to its Durability.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "mem-only", "":
		return MemOnly, nil
	case "sync-on-commit":
		return SyncOnCommit, nil
	case "group-commit":
		return GroupCommit, nil
	}
	return MemOnly, fmt.Errorf("storage: unknown durability mode %q", s)
}

// File WAL errors.
var (
	ErrWALClosed  = errors.New("storage: file WAL closed")
	ErrWALCorrupt = errors.New("storage: WAL segment corrupt")
	// ErrWALPoisoned is the sticky degraded state after a stable-storage
	// failure: every error the durable layer surfaces after the first wraps
	// it, and the WAL refuses all further commits. The policy follows
	// fsyncgate: a failed fsync may have silently dropped dirty pages from
	// the kernel cache, so retrying the fsync and reporting success would
	// fabricate durability — the only safe move is to stop acknowledging
	// commits and let the operator restart onto recovery, which trusts only
	// what reached the segments before the failure.
	ErrWALPoisoned = errors.New("storage: WAL poisoned by stable-storage failure, refusing further commits")
	// ErrSegmentRotate marks a failed segment rotation — the disk-full or
	// O_EXCL name-collision path when creating the next wal-*.seg file (or
	// fsyncing the directory entry). It poisons the WAL like any other
	// stable-storage failure; the group-commit flusher fails every queued
	// waiter instead of hanging.
	ErrSegmentRotate = errors.New("storage: WAL segment rotation failed")
)

const (
	// DefaultSegmentSize is the rotation threshold for WAL segment files.
	DefaultSegmentSize = 4 << 20
	walSegPrefix       = "wal-"
	walSegSuffix       = ".seg"
	// flushBackpressure caps the bytes buffered between forced flushes so an
	// update-heavy, commit-rare workload cannot grow the pending queue
	// without bound.
	flushBackpressure = 8 << 20
)

// FileWALOptions configure OpenFileWAL.
type FileWALOptions struct {
	// SegmentSize is the rotation threshold in bytes (DefaultSegmentSize
	// when 0). A record never spans segments; a segment holds at least one
	// record even when the record exceeds the threshold.
	SegmentSize int64
	// Durability must be SyncOnCommit or GroupCommit; MemOnly is promoted
	// to GroupCommit (a file WAL that never syncs would be pointless).
	Durability Durability
}

type pendingRec struct {
	lsn   uint64
	frame string
}

// flushHistCap bounds the flush-history ring. A committer queries its batch
// immediately after WaitDurable wakes it, so only a few flushes of slack
// are ever needed; 64 is generous.
const flushHistCap = 64

// flushEntry is one completed flush in the history ring: every record with
// LSN in (prevLSN, maxLSN] rode this fsync. prevLSN — the previous flush's
// maxLSN — is tracked explicitly so BatchInfo can tell "this flush carried
// lsn" apart from "the flush that carried lsn has aged out of the ring and
// this is merely the oldest survivor": without it, any survivor with
// maxLSN ≥ lsn would be misattributed as the covering batch.
type flushEntry struct {
	prevLSN uint64
	maxLSN  uint64
	info    BatchInfo
}

// FileWAL is the durable backing of a WAL: a directory of fixed-size,
// checksummed segment files named wal-<first LSN>.seg. It implements
// DurableSink: the in-memory WAL forwards every appended record (in LSN
// order, under its own mutex), and commit paths block in WaitDurable until
// their record is on stable storage.
//
// On open the segments are read under the torn-tail rule (walkSegments),
// and the last segment is truncated at its torn tail.
type FileWAL struct {
	dir     string
	segSize int64
	mode    Durability

	mu           sync.Mutex
	cond         *sync.Cond // wakes group-commit waiters (durable advanced, failure, close)
	flushCond    *sync.Cond // wakes the flusher only (work arrived); avoids a thundering herd
	pending      []pendingRec
	pendingBytes int
	appended     uint64 // highest LSN handed to Append
	maxWait      uint64 // highest LSN a group-commit waiter needs durable
	durable      uint64 // highest LSN guaranteed on stable storage
	failed       error  // sticky I/O error; fails every subsequent wait
	closed       bool

	// flushMu serializes physical flushes (the group flusher and the
	// sync-on-commit inline path); cur/curSize/writeBuf/spare are guarded
	// by it. spare is the array pending moves to when a flush takes its
	// head, and the flushed array, cleared, becomes the next spare: the
	// two swap, so neither regrows once the queue's depth is reached.
	flushMu  sync.Mutex
	cur      *os.File
	curSize  int64
	writeBuf []byte
	spare    []pendingRec

	// encMu guards enc, Append's encode buffer.
	encMu sync.Mutex
	enc   RecordEncoder

	flusherDone chan struct{}
	fsyncs      atomic.Int64
	// bytesAppended counts every frame byte handed to Append — the
	// checkpointer's bytes-since-last-checkpoint trigger reads it.
	bytesAppended atomic.Int64

	// flushHist is a bounded ring of recent flushes (guarded by w.mu) so a
	// committer can ask, after WaitDurable returns, which batch carried its
	// record (BatchInfo). flushPrev is the maxLSN of the most recent flush —
	// the prevLSN the next ring entry records.
	flushHist     [flushHistCap]flushEntry
	flushHistNext int
	flushPrev     uint64

	// Observability handles (SetObs); nil and nil-safe when detached.
	obsFsync *obs.Histogram      // latency of each physical fsync
	obsBatch *obs.Histogram      // records per group-commit flush
	rec      *obs.FlightRecorder // one wal.batch event per flush
}

// OpenFileWAL opens (or creates) the segmented WAL in dir, applying the
// torn-tail rule: it hands each surviving record to fn (if non-nil) in LSN
// order, then returns a FileWAL positioned to append after the last good
// record. An error from fn ends the walk and is returned, files untouched.
func OpenFileWAL(dir string, o FileWALOptions, fn func(Record) error) (*FileWAL, error) {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.Durability == MemOnly {
		o.Durability = GroupCommit
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var last uint64
	names, truncate, err := walkSegments(dir, func(_, _ int, rec Record) error {
		last = rec.LSN
		if fn == nil {
			return nil
		}
		return fn(rec)
	})
	if err != nil {
		return nil, err
	}
	lastPath := ""
	if len(names) > 0 {
		lastPath = filepath.Join(dir, names[len(names)-1])
	}
	if truncate >= 0 {
		if err := truncateSegment(lastPath, truncate); err != nil {
			return nil, fmt.Errorf("storage: truncating torn tail of %s: %w", lastPath, err)
		}
	}

	w := &FileWAL{
		dir:         dir,
		segSize:     o.SegmentSize,
		mode:        o.Durability,
		flusherDone: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.flushCond = sync.NewCond(&w.mu)
	if last > 0 {
		w.appended = last
		w.durable = w.appended
		// Records already in the files predate every flush this incarnation
		// will perform; the first new flush covers (w.durable, maxLSN].
		w.flushPrev = w.durable
	}
	if lastPath != "" {
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.cur, w.curSize = f, st.Size()
	}
	go w.flusher()
	return w, nil
}

// SetObs attaches an observability registry: the WAL observes every fsync's
// latency in "wal.fsync_ns", every flush's record count in
// "wal.batch_records", records one wal.batch event per flush, and publishes
// its counters under "wal". Call before the WAL sees commit traffic.
func (w *FileWAL) SetObs(reg *obs.Registry) {
	w.obsFsync = reg.Histogram("wal.fsync_ns", obs.LatencyBounds())
	w.obsBatch = reg.Histogram("wal.batch_records", obs.SizeBounds())
	w.rec = reg.Recorder()
	reg.PublishFunc("wal", func() any {
		w.mu.Lock()
		appended, durable, pendingBytes := w.appended, w.durable, w.pendingBytes
		w.mu.Unlock()
		return map[string]int64{
			"fsyncs":        w.fsyncs.Load(),
			"appended_lsn":  int64(appended),
			"durable_lsn":   int64(durable),
			"pending_bytes": int64(pendingBytes),
		}
	})
}

// WalkWALDir is OpenFileWAL's read-only walk for tools and tests: the torn
// tail of the last segment is skipped (not truncated), mid-log damage is an
// error, an error from fn ends the walk, and one segment is held in memory.
func WalkWALDir(dir string, fn func(Record) error) error {
	_, _, err := walkSegments(dir, func(_, _ int, rec Record) error { return fn(rec) })
	return err
}

// ReadWALDir collects WalkWALDir's records into a slice.
func ReadWALDir(dir string) (records []Record, err error) {
	err = WalkWALDir(dir, func(rec Record) error {
		records = append(records, rec)
		return nil
	})
	return records, err
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, walSegPrefix) && strings.HasSuffix(n, walSegSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names) // zero-padded first-LSN names sort chronologically
	return names, nil
}

// walkSegments decodes the segments of dir in order under the torn-tail
// rule, calling fn with each record, its segment's index in names and its
// frame's offset there; an error from fn ends the walk. Any frame error
// (short frame, length out of bounds, checksum mismatch) is a torn tail, as
// a crash can leave each of them; in the last segment the walk ends there
// and torn is its offset (-1 when the tail is clean). A torn tail in an
// earlier segment, a payload that does not decode behind a good checksum,
// or an LSN that breaks the contiguous sequence is ErrWALCorrupt — a crash
// cannot produce it.
func walkSegments(dir string, fn func(seg, off int, rec Record) error) (names []string, torn int64, err error) {
	if names, err = listSegments(dir); err != nil {
		return nil, -1, err
	}
	prevLSN := uint64(0)
	for i, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, -1, err
		}
		for off := 0; off < len(data); {
			payload, n, ferr := frame.Parse(data[off:], recPayloadMin, maxWALRecordSize)
			if ferr != nil && i == len(names)-1 {
				return names, int64(off), nil
			}
			if ferr != nil {
				return nil, -1, fmt.Errorf("%w: %s torn at offset %d but later segments exist", ErrWALCorrupt, path, off)
			}
			rec, derr := decodeRecordPayload(payload)
			if derr != nil {
				return nil, -1, fmt.Errorf("%w: %s offset %d: %v", ErrWALCorrupt, path, off, derr)
			}
			if prevLSN != 0 && rec.LSN != prevLSN+1 {
				return nil, -1, fmt.Errorf("%w: %s offset %d: lsn %d after %d", ErrWALCorrupt, path, off, rec.LSN, prevLSN)
			}
			if err := fn(i, off, rec); err != nil {
				return names, -1, err
			}
			prevLSN = rec.LSN
			off += n
		}
	}
	return names, -1, nil
}

func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Append implements DurableSink: AppendFrame of rec's frame, encoded in
// the FileWAL's own buffer, so a record costs one allocation, its frame.
func (w *FileWAL) Append(rec Record) {
	w.encMu.Lock()
	frame := w.enc.Frame(rec)
	w.encMu.Unlock()
	w.AppendFrame(rec.LSN, frame)
}

// AppendFrame buffers frame, the record lsn's EncodeRecordFrame bytes, for
// the flusher (or a sync-on-commit waiter) to write out as they are. It is
// called in LSN order: by the in-memory WAL under its mutex through
// Append, by a replication leader that encoded the record once for its
// segment and its followers, and by a follower with the frame it
// received. It allocates nothing.
func (w *FileWAL) AppendFrame(lsn uint64, frame string) {
	if err := fpWALAppend.Inject(); err != nil {
		w.fail(err)
		return
	}
	w.mu.Lock()
	if w.closed || w.failed != nil {
		w.mu.Unlock()
		return
	}
	w.pending = append(w.pending, pendingRec{lsn: lsn, frame: frame})
	w.pendingBytes += len(frame)
	w.appended = lsn
	w.bytesAppended.Add(int64(len(frame)))
	if w.pendingBytes >= flushBackpressure {
		w.flushCond.Signal()
	}
	w.mu.Unlock()
}

// WaitDurable implements DurableSink: it blocks until the record with the
// given LSN (and, since flushing is prefix-ordered, every earlier record)
// is on stable storage.
//
// In GroupCommit mode the caller registers as a waiter and the flusher
// batches every pending record — typically covering many concurrent
// committers — into one write+fsync. In SyncOnCommit mode the caller
// flushes inline and always pays its own fsync, even when a concurrent
// committer's flush already covered its record: that is precisely the
// per-commit-fsync baseline the group-commit benchmark compares against.
func (w *FileWAL) WaitDurable(lsn uint64) error {
	if w.mode == SyncOnCommit {
		if err := w.syncTo(lsn, true); err != nil {
			w.fail(err)
			return w.Poisoned()
		}
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if lsn <= w.durable {
		return nil
	}
	if lsn > w.maxWait {
		w.maxWait = lsn
	}
	w.flushCond.Signal()
	for w.failed == nil && w.durable < lsn && !w.closed {
		w.cond.Wait()
	}
	if w.failed != nil {
		return w.failed
	}
	if w.durable < lsn {
		return ErrWALClosed
	}
	return nil
}

// flusher is the single group-commit goroutine: it sleeps until some
// waiter needs durability (or backpressure/close demands a flush), then
// writes the whole pending batch with one fsync.
func (w *FileWAL) flusher() {
	defer close(w.flusherDone)
	for {
		w.mu.Lock()
		for w.failed == nil && !w.closed && w.maxWait <= w.durable && w.pendingBytes < flushBackpressure {
			w.flushCond.Wait()
		}
		if w.failed != nil {
			w.mu.Unlock()
			return
		}
		if w.closed && len(w.pending) == 0 {
			w.mu.Unlock()
			return
		}
		target := w.appended
		closing := w.closed
		w.mu.Unlock()
		// Accumulation window (the classic group-commit "commit delay"):
		// yield a few times so committers that are runnable right now reach
		// their commit point and ride the upcoming fsync instead of waiting
		// out a whole extra cycle. Yields cost nanoseconds on an idle
		// scheduler, so a lone committer is not taxed the way a timed sleep
		// would tax it. syncTo chases w.appended past target, so everything
		// that arrived during the window joins the batch.
		if !closing {
			for i := 0; i < 4; i++ {
				runtime.Gosched()
			}
		}
		if err := fpWALFlush.Inject(); err != nil {
			w.fail(err)
			return
		}
		if err := w.syncTo(target, false); err != nil {
			w.fail(err)
			return
		}
	}
}

// syncTo writes every pending record with LSN ≤ target to the current
// segment (rotating as needed) and fsyncs. forceSync fsyncs even when
// nothing was written (the sync-on-commit baseline's unconditional sync).
func (w *FileWAL) syncTo(target uint64, forceSync bool) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()

	// Drain-and-write in passes, then fsync ONCE. On the flusher path the
	// target chases w.appended between passes, so records appended while
	// the previous pass was writing ride the same fsync — the batch grows
	// with the flush latency instead of waiting out a full extra cycle.
	// The pass count is capped so a stream of never-committing appenders
	// cannot starve the waiters of their fsync; the baseline (forceSync)
	// takes exactly one pass, preserving its one-commit-one-fsync shape.
	var maxLSN uint64
	batchRecords := 0
	for pass := 0; pass < 4; pass++ {
		w.mu.Lock()
		if !forceSync && w.appended > target {
			target = w.appended
		}
		n := 0
		for n < len(w.pending) && w.pending[n].lsn <= target {
			n++
		}
		if n == 0 {
			w.mu.Unlock()
			break
		}
		// The batch keeps its array; what is left moves to the spare,
		// which becomes pending.
		taken := w.pending
		batch := taken[:n]
		w.pending = append(w.spare[:0], taken[n:]...)
		w.spare = nil
		for _, p := range batch {
			w.pendingBytes -= len(p.frame)
		}
		w.mu.Unlock()
		batchRecords += len(batch)

		// Coalesce the batch into one write syscall per segment run: a
		// group flush covers many committers' frames, and a short
		// write+fsync cycle is exactly where the group-commit advantage
		// comes from.
		buf := w.writeBuf[:0]
		for _, p := range batch {
			if w.cur == nil || w.curSize >= w.segSize {
				if err := w.flushRun(buf); err != nil {
					return err
				}
				buf = buf[:0]
				if err := w.rotate(p.lsn); err != nil {
					return err
				}
			}
			buf = append(buf, p.frame...)
			w.curSize += int64(len(p.frame))
			maxLSN = p.lsn
		}
		if err := w.flushRun(buf); err != nil {
			return err
		}
		w.writeBuf = buf[:0]
		clear(taken) // a written frame is not pinned by the spare
		w.spare = taken[:0]
		if forceSync {
			break
		}
	}
	var fsyncDur time.Duration
	if w.cur != nil && (maxLSN > 0 || forceSync) {
		fsyncStart := time.Now()
		if err := fpWALFsync.Inject(); err != nil {
			return err
		}
		if err := w.cur.Sync(); err != nil {
			return err
		}
		fsyncDur = time.Since(fsyncStart)
		w.fsyncs.Add(1)
		w.obsFsync.ObserveDuration(fsyncDur)
		if batchRecords > 0 {
			w.obsBatch.Observe(int64(batchRecords))
			w.rec.Record(obs.Event{Kind: obs.EvWALBatch, N: int64(batchRecords), Dur: fsyncDur})
		}
	}
	if maxLSN > 0 {
		w.mu.Lock()
		if maxLSN > w.durable {
			w.durable = maxLSN
		}
		w.flushHist[w.flushHistNext] = flushEntry{
			prevLSN: w.flushPrev,
			maxLSN:  maxLSN,
			info:    BatchInfo{ID: w.fsyncs.Load(), Records: batchRecords, Fsync: fsyncDur},
		}
		w.flushHistNext = (w.flushHistNext + 1) % flushHistCap
		w.flushPrev = maxLSN
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	return nil
}

// BatchInfo implements the WAL's batchInfoSink extension: it reports the
// flush that carried lsn to stable storage — the ring entry whose covered
// range (prevLSN, maxLSN] contains lsn. False when lsn is not yet durable
// or the covering flush has aged out of the history ring. The half-open
// range check is what makes "aged out" detectable: an entry with
// maxLSN ≥ lsn but prevLSN ≥ lsn is a NEWER flush that did not carry the
// record, and reporting it would misattribute the commit's batch after the
// ring wraps past the true covering flush.
func (w *FileWAL) BatchInfo(lsn uint64) (BatchInfo, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn == 0 || lsn > w.durable {
		return BatchInfo{}, false
	}
	for _, e := range w.flushHist {
		if e.maxLSN != 0 && e.prevLSN < lsn && lsn <= e.maxLSN {
			return e.info, true
		}
	}
	return BatchInfo{}, false
}

// flushRun writes one coalesced run of frames to the current segment.
// Called with flushMu held; the run's bytes are already counted in
// curSize (on a write error the WAL fails permanently, so the overcount
// is never observed).
func (w *FileWAL) flushRun(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := w.cur.Write(buf)
	return err
}

// rotate syncs and closes the current segment and creates the next one,
// named by the first LSN it will hold; the directory entry is fsynced so
// the new file survives a crash.
func (w *FileWAL) rotate(firstLSN uint64) error {
	if w.cur != nil {
		fsyncStart := time.Now()
		if err := fpWALFsync.Inject(); err != nil {
			return err
		}
		if err := w.cur.Sync(); err != nil {
			return err
		}
		w.fsyncs.Add(1)
		w.obsFsync.ObserveDuration(time.Since(fsyncStart))
		if err := w.cur.Close(); err != nil {
			return err
		}
		w.cur = nil
	}
	// The rotation proper: creating the next segment is where disk-full and
	// O_EXCL name collisions strike, so every failure from here on is typed
	// ErrSegmentRotate. The caller's failure handling poisons the WAL, which
	// fails every queued group-commit waiter instead of leaving them parked.
	if err := fpWALRotate.Inject(); err != nil {
		return fmt.Errorf("%w: %w", ErrSegmentRotate, err)
	}
	name := fmt.Sprintf("%s%020d%s", walSegPrefix, firstLSN, walSegSuffix)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSegmentRotate, err)
	}
	w.cur, w.curSize = f, 0
	if err := SyncDir(w.dir); err != nil {
		return fmt.Errorf("%w: %w", ErrSegmentRotate, err)
	}
	return nil
}

// SyncDir fsyncs a directory so the creates, renames and unlinks in it are
// themselves durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fail records the first stable-storage failure as the WAL's sticky poison
// state and wakes every parked waiter (and the flusher) so they observe it.
// All later failures are ignored: the first one defines the point after
// which no commit ack can be trusted.
func (w *FileWAL) fail(err error) {
	w.mu.Lock()
	if w.failed == nil {
		if !errors.Is(err, ErrWALPoisoned) {
			err = fmt.Errorf("%w: %w", ErrWALPoisoned, err)
		}
		w.failed = err
	}
	w.cond.Broadcast()
	w.flushCond.Signal()
	w.mu.Unlock()
}

// Poisoned returns the sticky stable-storage failure (nil while healthy).
// Once non-nil it never clears: recovery after a restart is the only way
// back to a WAL that acknowledges commits.
func (w *FileWAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Close flushes everything pending, stops the flusher, and closes the
// current segment. It implements DurableSink.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	alreadyClosed := w.closed
	w.closed = true
	w.cond.Broadcast()
	w.flushCond.Signal()
	w.mu.Unlock()
	<-w.flusherDone
	if !alreadyClosed {
		// Drain anything the flusher left behind after a failure and close
		// the segment. This Sync is the LAST one the log will ever see: an
		// error here means bytes the flusher wrote may never have reached
		// stable storage, so it latches the poison state (fsyncgate — same
		// rule as every other fsync) and Close surfaces it instead of
		// swallowing the failure.
		w.flushMu.Lock()
		if w.cur != nil {
			err := fpWALFsync.Inject()
			if err == nil {
				err = w.cur.Sync()
			}
			if err == nil {
				w.fsyncs.Add(1)
			} else {
				w.fail(err)
			}
			w.cur.Close()
			w.cur = nil
		}
		w.flushMu.Unlock()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// DurableLSN returns the highest LSN guaranteed on stable storage.
func (w *FileWAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Fsyncs returns the number of physical fsync calls performed — the
// quantity group commit amortizes.
func (w *FileWAL) Fsyncs() int64 { return w.fsyncs.Load() }

// BytesAppended returns the total frame bytes handed to Append over this
// incarnation's lifetime — the checkpointer's bytes-threshold trigger.
func (w *FileWAL) BytesAppended() int64 { return w.bytesAppended.Load() }

// Dir returns the segment directory.
func (w *FileWAL) Dir() string { return w.dir }

// SegmentInfo describes one WAL segment file: its name and the LSN of the
// first record it holds (encoded in the name).
type SegmentInfo struct {
	Name     string
	FirstLSN uint64
}

// WALSegments lists the segment files of a WAL directory in LSN order,
// parsing each first-LSN from the file name. A segment holds the records
// [FirstLSN, next segment's FirstLSN): checkpoint truncation deletes every
// segment whose whole range falls below the keep boundary.
func WALSegments(dir string) ([]SegmentInfo, error) {
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]SegmentInfo, 0, len(names))
	for _, name := range names {
		lsnPart := strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix)
		first, perr := strconv.ParseUint(lsnPart, 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("storage: segment %s: unparseable first LSN: %w", name, perr)
		}
		infos = append(infos, SegmentInfo{Name: name, FirstLSN: first})
	}
	return infos, nil
}

// TruncateWALAbove rewrites the segment directory so no record with
// LSN > keep survives: segments wholly above the boundary are deleted,
// and the segment containing it is cut at the frame boundary after record
// keep. This is the conflict-resolution primitive of log replication — a
// follower whose unreplicated suffix diverges from the new leader's log
// discards that suffix before accepting the leader's version. Segments are
// read under OpenFileWAL's torn-tail rule; a torn tail is left for
// OpenFileWAL to truncate. Deletion runs newest-first and the cut comes
// last, so a failure partway leaves a contiguous log that a retry finishes.
// It must be called with no FileWAL open on dir; reopen with OpenFileWAL
// afterwards.
func TruncateWALAbove(dir string, keep uint64) error {
	cutSeg, cut := -1, 0
	errCut := errors.New("cut found")
	names, _, err := walkSegments(dir, func(seg, off int, rec Record) error {
		if rec.LSN > keep {
			cutSeg, cut = seg, off
			return errCut
		}
		return nil
	})
	if err != nil && err != errCut {
		return err
	}
	if cutSeg >= 0 {
		for i := len(names) - 1; i > cutSeg; i-- {
			if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
				return err
			}
		}
		path := filepath.Join(dir, names[cutSeg])
		if cut == 0 {
			err = os.Remove(path)
		} else {
			err = truncateSegment(path, int64(cut))
		}
		if err != nil {
			return err
		}
	}
	return SyncDir(dir)
}
