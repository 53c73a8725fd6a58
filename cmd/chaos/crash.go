package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// crash: SIGKILL a real process mid-workload, recover its WAL, verify.

const (
	crashFunding = 1000 // per account
	crashMinRun  = 80 * time.Millisecond
	crashMaxRun  = 400 * time.Millisecond // child lifetime before the kill
	crashSegSize = 64 << 10               // small segments force rotation
)

// crashFaults are the regimes checkpointed rounds cycle through so kills
// land in every phase: clean checkpoints, inside the checkpoint file write
// (torn file ⇒ fall back to an older checkpoint or full replay), and inside
// segment truncation (extra dead segments, still a contiguous log).
var crashFaults = []string{"", "ckpt.write=delay(150ms);every=1", "ckpt.truncate=delay(120ms);every=1"}

// bankTotal sums every account's balance.
func bankTotal(db *core.DB, accounts int) (total int64, err error) {
	for i := 0; i < accounts && err == nil; i++ {
		var b int64
		b, err = balance(db, i)
		total += b
	}
	return total, err
}

// runCrashChild is the -crash-child entry point, the victim of one round:
// recover (or freshly open) every partition under dir, fund each one that
// recovered empty, then transfer until the parent SIGKILLs it. It returns
// only on failure.
func runCrashChild(cfg chaosConfig, dir string, round int) error {
	if spec := crashFaults[(round-1)%len(crashFaults)]; cfg.checkpoint > 0 && spec != "" {
		if err := fault.Default.ArmString(spec); err != nil {
			return err
		}
	}
	c, reports, err := partition.Recover(partition.Options{
		N: cfg.partitions,
		Engine: core.Options{Durability: storage.GroupCommit, WALSegmentSize: crashSegSize,
			LockTimeout: 5 * time.Second, DisableTrace: true, CheckpointInterval: cfg.checkpoint},
		WALRoot:  dir,
		Register: func(_ int, db *core.DB) error { return registerBank(cfg.accounts)(db) },
	})
	if err != nil {
		return err
	}
	for i, rep := range reports {
		db := c.Part(i)
		total, err := bankTotal(db, cfg.accounts)
		if err == nil && total != 0 && total != int64(cfg.accounts*crashFunding) {
			err = fmt.Errorf("recovered total %d, want %d or 0 (winners=%d losers=%d)",
				total, cfg.accounts*crashFunding, len(rep.Winners), len(rep.Losers))
		}
		if err == nil && total == 0 {
			// One transaction funds every account: the whole funding
			// recovers or none of it.
			err = db.RunWithRetry(core.RetryPolicy{MaxAttempts: 1}, func(tx *core.Txn) error {
				for a := 0; a < cfg.accounts; a++ {
					if _, err := tx.Exec(acct(a), "credit", strconv.Itoa(crashFunding)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			return fmt.Errorf("p%d: %w", i, err)
		}
		fmt.Printf("child: p%d up (recovered total=%d winners=%d losers=%d)\n",
			i, total, len(rep.Winners), len(rep.Losers))
	}
	// Worker g moves 1..50 between two random accounts of partition g mod N
	// (so every partition gets one): debit, then credit. Debits and credits
	// commute (escrow), so no lock order is needed; a transfer that aborts
	// (insufficient funds, a lock timeout) is dropped.
	for g := 0; g < max(cfg.workers, c.N()); g++ {
		go func(db *core.DB, rr *rand.Rand) {
			for {
				from, to := rr.Intn(cfg.accounts), rr.Intn(cfg.accounts)
				if from == to {
					to = (to + 1) % cfg.accounts
				}
				amt := strconv.Itoa(rr.Intn(50) + 1)
				_ = db.RunWithRetry(core.RetryPolicy{MaxAttempts: 1}, func(tx *core.Txn) error {
					if _, err := tx.Exec(acct(from), "debit", amt); err != nil {
						return err
					}
					_, err := tx.Exec(acct(to), "credit", amt)
					return err
				})
			}
		}(c.Part(g%c.N()), rand.New(rand.NewSource(cfg.seed+int64(g)*7919)))
	}
	select {}
}

// runCrash is the kill-the-process durability round. Each iteration
// re-execs chaos as a -crash-child on the same WAL directory, SIGKILLs it
// after a random lifetime and verifies a scratch copy of every partition's
// directory; the next child then recovers the original and keeps going.
// The directory is removed on success and kept, path printed, on failure.
func runCrash(cfg chaosConfig) (err error) {
	root, err := os.MkdirTemp("", "chaos-crash-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: keeping crash WAL directory %s\n", root)
		} else {
			os.RemoveAll(root)
		}
	}()
	rr := rand.New(rand.NewSource(cfg.seed))
	// funded[i] latches once partition i recovers funded: a later round
	// recovering it empty lost a durable commit (recovered < acked).
	funded := make([]bool, max(cfg.partitions, 1))
	checkpointed := 0
	rounds := max(cfg.iters, 1)
	for round := 1; round <= rounds; round++ {
		child, err := spawnSelf(func(line string) { fmt.Println("chaos:   " + line) },
			"-crash-child", "-child-dir", root, "-child-round", strconv.Itoa(round),
			"-accounts", strconv.Itoa(cfg.accounts), "-workers", strconv.Itoa(cfg.workers),
			"-seed", strconv.FormatInt(cfg.seed+int64(round), 10),
			"-checkpoint", cfg.checkpoint.String(), "-partitions", strconv.Itoa(cfg.partitions))
		if err != nil {
			return err
		}
		time.Sleep(crashMinRun + time.Duration(rr.Int63n(int64(crashMaxRun-crashMinRun))))
		if child.exited() {
			return fmt.Errorf("round %d: child exited before the kill", round)
		}
		child.kill()
		ckptRound := false
		for i := range funded {
			dir, tag := root, fmt.Sprintf("round %d", round)
			if len(funded) > 1 {
				dir, tag = partition.Dir(root, i), tag+" "+partition.DirName(i)
			}
			ckptLSN, total, err := verifyCrashCopy(cfg, dir, tag)
			if err != nil {
				return err
			}
			if funded[i] && total == 0 {
				return fmt.Errorf("%s: durably funded partition recovered empty (recovered < acked)", tag)
			}
			funded[i] = funded[i] || total > 0
			ckptRound = ckptRound || ckptLSN > 0
		}
		if ckptRound {
			checkpointed++
		}
	}
	if cfg.checkpoint > 0 && checkpointed == 0 {
		return errors.New("checkpointing was enabled but no round recovered from a checkpoint")
	}
	fmt.Printf("chaos:   %d rounds survived (%d recovered from a checkpoint)\n", rounds, checkpointed)
	return nil
}

// verifyCrashCopy recovers a scratch copy of one partition's WAL directory
// twice: the first pass must conserve money, start from the newest complete
// checkpoint and redo exactly the update records above it; the second must
// find no losers and change nothing (idempotence). It returns the
// checkpoint's LSN (0 for full replay) and the recovered total. A failing
// image is kept next to a pristine <scratch>.orig, and the flight recorder
// of both passes is dumped.
func verifyCrashCopy(cfg chaosConfig, src, tag string) (uint64, int64, error) {
	scratch, err := os.MkdirTemp("", "chaos-crash-verify-*")
	if err != nil {
		return 0, 0, err
	}
	oreg := obs.New() // shared by both passes
	failed := true
	defer func() {
		if failed {
			fmt.Fprintf(os.Stderr, "chaos: keeping failing image at %s (pristine: %s.orig)\n", scratch, scratch)
			oreg.Recorder().Record(obs.Event{Kind: obs.EvFailure, Object: tag, Note: "verification failed"})
			oreg.Recorder().Dump(os.Stderr, 64)
			return
		}
		os.RemoveAll(scratch)
		os.RemoveAll(scratch + ".orig")
	}()
	for _, dst := range []string{scratch, scratch + ".orig"} {
		if err := copyDir(src, dst); err != nil {
			return 0, 0, err
		}
	}
	// Predict what recovery must do. A checkpoint torn by the kill must be
	// skipped in favour of an older one or full replay.
	var ckptLSN uint64
	if snap, _, err := checkpoint.Latest(scratch); err == nil {
		ckptLSN = snap.LSN
	} else if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return 0, 0, err
	}
	records, err := storage.ReadWALDir(scratch)
	if err != nil {
		return 0, 0, err
	}
	expectRedo := 0
	for _, r := range records {
		if r.Kind == storage.RecUpdate && r.LSN > ckptLSN {
			expectRedo++
		}
	}

	opts := core.Options{Durability: storage.GroupCommit, WALDir: scratch, WALSegmentSize: crashSegSize,
		DisableTrace: true, Obs: oreg}
	recoverTotal := func(pass string) (int64, recovery.Report, error) {
		db, rep, err := recovery.RecoverDir(scratch, opts, registerBank(cfg.accounts))
		if err != nil {
			return 0, rep, fmt.Errorf("%s: %s recovery: %w", tag, pass, err)
		}
		total, err := bankTotal(db, cfg.accounts)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return total, rep, err
	}
	want := int64(cfg.accounts * crashFunding)
	total1, rep1, err := recoverTotal("first")
	switch {
	case err != nil: // returned as is
	case total1 != 0 && total1 != want:
		err = fmt.Errorf("%s: recovered total %d, want %d or 0", tag, total1, want)
	case rep1.CheckpointLSN != ckptLSN:
		err = fmt.Errorf("%s: recovery started from checkpoint LSN %d, newest complete is %d", tag, rep1.CheckpointLSN, ckptLSN)
	case rep1.Redone != expectRedo:
		err = fmt.Errorf("%s: redo replayed %d updates, the post-checkpoint suffix holds %d", tag, rep1.Redone, expectRedo)
	}
	if err != nil {
		return 0, 0, err
	}
	total2, rep2, err := recoverTotal("second")
	switch {
	case err != nil: // returned as is
	case total2 != total1:
		err = fmt.Errorf("%s: recovery not idempotent: total %d then %d", tag, total1, total2)
	case len(rep2.Losers) != 0:
		err = fmt.Errorf("%s: second recovery found losers %v", tag, rep2.Losers)
	}
	if err != nil {
		return 0, 0, err
	}
	fmt.Printf("chaos:   %s: verified (total=%d winners=%d losers=%d ckpt=%d redone=%d, idempotent)\n",
		tag, total1, len(rep1.Winners), len(rep1.Losers), ckptLSN, rep1.Redone)
	failed = false
	return ckptLSN, total1, nil
}

// copyDir copies the files of src into a new or existing directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
