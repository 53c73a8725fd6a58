package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/obs"
	"repro/internal/server"
)

// enc_wire_read: read-only transactions over loopback. The same wire,
// server and pool layers as the write workloads, used the other way round:
// no WAL flush, large reply frames, and item pages that outnumber the
// 1024-frame pool several times over, so fetches miss and evict.
const (
	wireKeys      = 4000 // one item page each: ~4 pool capacities
	wireTextLen   = 256
	wireSeqItems  = 256 // the second encyclopedia, read whole (≈ 64 KiB reply)
	wireSearches  = 4   // per point-read transaction
	wireSeqPct    = 5   // share of transactions that are one readSeq
	wireLoadBatch = 100 // inserts per preload transaction
)

type encWire struct {
	salt    string   // seed-derived, makes every run's texts its own
	seqWant string   // the readSeq reply expected from the second encyclopedia
	texts   []string // key index → text
	cl      *client.Client
}

// wireText is the 256-byte text of key i: recognisable, and different for
// every key and seed so a reply can be checked against the key asked for.
func wireText(salt string, i int) string {
	head := fmt.Sprintf("%s-%d-", salt, i)
	return head + strings.Repeat("x", wireTextLen-len(head))
}

func (wl *encWire) fixture(e *env) error {
	wl.salt = fmt.Sprintf("s%d", e.seed)
	wl.texts = make([]string, wireKeys)
	for i := range wl.texts {
		wl.texts[i] = wireText(wl.salt, i)
	}
	pairs := make([]string, wireSeqItems)
	for i := range pairs {
		pairs[i] = encKey(i) + "=" + wireText(wl.salt+"q", i)
	}
	wl.seqWant = strings.Join(pairs, ";")
	return nil
}

// startServer serves db on a loopback port and dials a pool of one
// connection per caller at it.
func startServer(db *core.DB, callers int) (*server.Server, *client.Client, *obs.Registry, error) {
	srv := server.New(db, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	clientReg := obs.New()
	cl, err := client.Dial(addr, client.Options{PoolSize: callers, Obs: clientReg, Seed: 1})
	if err != nil {
		_ = stopServer(srv, nil)
		return nil, nil, nil, err
	}
	return srv, cl, clientReg, nil
}

// stopServer closes the client pool and drains the server, which closes
// the engine it owns.
func stopServer(srv *server.Server, cl *client.Client) error {
	if cl != nil {
		_ = cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func (wl *encWire) setup(e *env) (*system, error) {
	db := core.Open(engineOptions())
	if _, err := openEncyclopedia(db, "Enc", "Seq"); err != nil {
		return nil, err
	}
	srv, cl, clientReg, err := startServer(db, e.callers)
	if err != nil {
		return nil, err
	}
	wl.cl = cl
	sys := &system{db: db, reg: db.Obs(), clientReg: clientReg,
		stop: sync.OnceValue(func() error { return stopServer(srv, cl) })}
	// The sequential encyclopedia is loaded by one caller so that its list
	// order, and with it the readSeq reply, is the same on every run.
	load := func(name string, text func(i int) string, lo, hi int) error {
		jitter := rand.New(rand.NewSource(int64(lo) + 1))
		for ; lo < hi; lo += wireLoadBatch {
			_, err := wireTxn(cl, nil, jitter, func(tx *client.Tx, _ uint64) error {
				for i := lo; i < lo+wireLoadBatch && i < hi; i++ {
					if _, err := tx.Invoke(enc.Type, name, "insert", encKey(i), text(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("preload %s: %w", name, err)
			}
		}
		return nil
	}
	errs := make(chan error, e.callers+1)
	go func() {
		errs <- load("Seq", func(i int) string { return wireText(wl.salt+"q", i) }, 0, wireSeqItems)
	}()
	share := (wireKeys + e.callers - 1) / e.callers
	for w := 0; w < e.callers; w++ {
		lo := w * share
		go func() {
			errs <- load("Enc", func(i int) string { return wl.texts[i] }, lo, min(lo+share, wireKeys))
		}()
	}
	for i := 0; i < e.callers+1; i++ {
		if lerr := <-errs; lerr != nil && err == nil {
			err = lerr
		}
	}
	if err != nil {
		_ = sys.stop()
		return nil, err
	}
	return sys, nil
}

func (wl *encWire) start(e *env, sys *system) error { return nil }

func (wl *encWire) caller(e *env, sys *system, w int) txnFunc {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(w)))
	jitter := rand.New(rand.NewSource(int64(w) + 1))
	var keys [wireSearches]int
	return func(tr *tracer) (int, error) {
		if rng.Intn(100) < wireSeqPct {
			return wireTxn(wl.cl, tr, jitter, func(tx *client.Tx, parent uint64) error {
				got, err := invoke(tx, tr, parent, enc.Type, "Seq", "readSeq")
				if err == nil && got != wl.seqWant {
					err = fmt.Errorf("%w: readSeq returned %d bytes, want %d", errCheck, len(got), len(wl.seqWant))
				}
				return err
			})
		}
		for i := range keys {
			keys[i] = rng.Intn(wireKeys)
		}
		return wireTxn(wl.cl, tr, jitter, func(tx *client.Tx, parent uint64) error {
			for _, k := range keys {
				got, err := invoke(tx, tr, parent, enc.Type, "Enc", "search", encKey(k))
				if err != nil {
					return err
				}
				if got != wl.texts[k] {
					return fmt.Errorf("%w: search(%s) returned %.40q", errCheck, encKey(k), got)
				}
			}
			return nil
		})
	}
}

// verify has nothing left to do: every reply was compared with the text
// loaded for its key when it arrived, and nothing writes after set-up.
func (wl *encWire) verify(e *env, sys *system) error { return nil }
