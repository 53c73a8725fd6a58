package core

import (
	"errors"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/storage"
)

// ErrNoCheckpointing is returned by Checkpoint on an engine without a
// durable WAL — there is no segment directory to checkpoint into.
var ErrNoCheckpointing = errors.New("core: checkpointing requires a durable WAL (OpenDurable or recovery.RecoverDir)")

// CheckpointSnapshot implements checkpoint.Source: it captures the page
// image, barrier LSN, and in-flight transaction set as one consistent cut.
//
// The exclusive snapshot barrier (snapMu) quiesces every [page mutation +
// WAL record] critical section, so flushing the pool here yields a store
// image reflecting exactly the RecUpdates with LSN ≤ the barrier LSN.
// Commit records append without the barrier, which is why LastLSN is read
// BEFORE ActiveInfo: a transaction whose commit raced in with LSN ≤ the
// barrier has already left the active set by the time the barrier LSN is
// read, so the snapshot can never list a committed-below-the-barrier
// transaction as in flight (which would make it a false loser after its
// records were truncated). The race in the other direction — a commit
// landing after LastLSN — is harmless: its record survives in the suffix
// and analysis sees it.
func (db *DB) CheckpointSnapshot() (*checkpoint.Snapshot, error) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if err := db.pool.FlushAll(); err != nil {
		return nil, err
	}
	lsn := db.wal.LastLSN()
	active, oldest := db.wal.ActiveInfo()
	pages, next, pageSize := db.store.Snapshot()
	// The store now reflects every update at or below the barrier, so the
	// in-memory log keeps only what live undo chains still name.
	db.wal.Trim(lsn + 1)
	return &checkpoint.Snapshot{
		LSN:          lsn,
		OldestActive: oldest,
		MaxTxn:       uint64(db.txnSeq.Load()),
		NextPage:     next,
		PageSize:     pageSize,
		Active:       active,
		Pages:        pages,
	}, nil
}

// ForceWAL implements checkpoint.Source: block until every record with
// LSN ≤ lsn is physically durable. A poisoned WAL fails here, which
// correctly vetoes the checkpoint (never trust an image whose log may
// have silently lost records).
func (db *DB) ForceWAL(lsn uint64) error { return db.wal.WaitDurable(lsn) }

// WALDir implements checkpoint.Source.
func (db *DB) WALDir() string { return db.walFile.Dir() }

// WALBytes implements checkpoint.Source.
func (db *DB) WALBytes() int64 { return db.walFile.BytesAppended() }

// EnableCheckpoints attaches a checkpointer to an engine whose WAL sink is
// the given file WAL, and starts its background loop when interval or
// bytes is set (manual Checkpoint calls work either way). OpenDurable and
// recovery.RecoverDir call this; Close stops the loop.
func (db *DB) EnableCheckpoints(fw *storage.FileWAL, interval time.Duration, bytes int64) *checkpoint.Checkpointer {
	db.walFile = fw
	db.ckpt = checkpoint.New(db, interval, bytes, db.obs, db.spans)
	db.ckpt.Start()
	return db.ckpt
}

// Checkpointer returns the attached checkpointer (nil on engines without
// a durable WAL).
func (db *DB) Checkpointer() *checkpoint.Checkpointer { return db.ckpt }

// Checkpoint takes one fuzzy checkpoint right now: snapshot under the
// barrier, force the WAL, write the checkpoint file, truncate dead
// segments. Commit traffic keeps flowing except for the brief barrier
// hold while the image is copied.
func (db *DB) Checkpoint() (checkpoint.Result, error) {
	if db.ckpt == nil {
		return checkpoint.Result{}, ErrNoCheckpointing
	}
	return db.ckpt.Run()
}
