package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/span"
)

// Frame is one buffered page. Callers pin a frame with FetchPage, operate
// on it under its latch, and release it with Unpin. The latch protects
// physical consistency of a single page access; transactional isolation is
// the lock manager's job (internal/cc), not the pool's.
type Frame struct {
	ID PageID

	mu   sync.RWMutex
	data string
	// dirty is written under the exclusive latch, and read there or, by
	// eviction, under the pool's mutex alone: a frame out of every
	// fetcher's hands only ever turns clean (FlushAll), and eviction
	// re-checks under the latch before it writes back.
	dirty atomic.Bool
	// loadErr records a failed load from the store. It is written under the
	// exclusive latch the loading fetcher holds across the I/O, so every
	// concurrent fetcher that pinned the in-flight frame observes it once
	// the latch is released.
	loadErr error

	// pool bookkeeping, guarded by the pool's mutex. prev/next thread the
	// frame through the pool's LRU list; next is nil while it is not in it.
	pins       int
	prev, next *Frame
	// loading is true while the creating fetcher still holds the exclusive
	// latch across its store read; concurrent fetchers of the frame must
	// wait on the latch and re-check loadErr before using it.
	loading bool
}

// reuse resets f, unpinned and out of the pool, as the frame of page id,
// pinned once and loading: every field but the latch, which the caller
// holds exclusively. Nothing else references a frame out of the pool: a
// fetcher drops its pointer at Unpin (core's pageOp and restorePage do,
// and a frame is evicted only at zero pins), and an orphan left by a
// failed load is never put on the LRU, so it is never evicted or reused.
// Call with bp.mu held.
func (f *Frame) reuse(id PageID) {
	f.ID, f.data, f.loadErr = id, "", nil
	f.dirty.Store(false)
	f.pins, f.prev, f.next, f.loading = 1, nil, nil, true
}

// RLatch acquires the frame's shared latch.
func (f *Frame) RLatch() { f.mu.RLock() }

// RUnlatch releases the shared latch.
func (f *Frame) RUnlatch() { f.mu.RUnlock() }

// Latch acquires the frame's exclusive latch.
func (f *Frame) Latch() { f.mu.Lock() }

// Unlatch releases the exclusive latch.
func (f *Frame) Unlatch() { f.mu.Unlock() }

// Data returns the payload. Hold at least the shared latch.
func (f *Frame) Data() string { return f.data }

// SetData replaces the payload and marks the frame dirty. Hold the
// exclusive latch.
func (f *Frame) SetData(data string) {
	f.data = data
	f.dirty.Store(true)
}

// BufferPool caches pages of a Store with pin counting and LRU eviction of
// unpinned frames. It is safe for concurrent use.
type BufferPool struct {
	store    Store
	capacity int

	mu     sync.Mutex
	frames map[PageID]*Frame
	// lru is the sentinel of a circular list of the evictable (unpinned)
	// frames, least recently used at lru.next; lruLen counts them.
	lru    Frame
	lruLen int

	// Counters are atomics so Stats and the metrics endpoint never contend
	// with fetches on bp.mu.
	hits, misses, evictions atomic.Int64

	// rec receives evict / write-error events when SetObs attached a
	// registry; nil (and nil-safe) otherwise.
	rec *obs.FlightRecorder
	// spans receives one engine-track span per dirty write-back when
	// SetSpans attached a tracer; nil (and nil-safe) otherwise.
	spans *span.Tracer
	// The names those events and spans give a page, each rendered once.
	pageNames, writebackIDs, writebackNames *Names
}

// NewBufferPool wraps store with a pool holding at most capacity frames
// (minimum 1).
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*Frame),

		pageNames:      NewNames("page "),
		writebackIDs:   NewNames("pool/writeback/page"),
		writebackNames: NewNames("write-back page "),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// pushLRU makes f the most recently used evictable frame. Call with bp.mu
// held and f not in the list.
func (bp *BufferPool) pushLRU(f *Frame) {
	tail := bp.lru.prev
	f.prev, f.next = tail, &bp.lru
	tail.next, bp.lru.prev = f, f
	bp.lruLen++
}

// removeLRU takes f out of the evictable list. Call with bp.mu held and f
// in the list.
func (bp *BufferPool) removeLRU(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
	bp.lruLen--
}

// Store returns the backing store.
func (bp *BufferPool) Store() Store { return bp.store }

// SetObs attaches an observability registry: the pool publishes its
// counters under "pool" and records evictions and write-back errors in the
// registry's flight recorder. Call before the pool sees traffic.
func (bp *BufferPool) SetObs(reg *obs.Registry) {
	bp.rec = reg.Recorder()
	reg.PublishFunc("pool", func() any {
		hits, misses, evictions := bp.Stats()
		bp.mu.Lock()
		cached := len(bp.frames)
		bp.mu.Unlock()
		return map[string]int64{
			"hits":      hits,
			"misses":    misses,
			"evictions": evictions,
			"cached":    int64(cached),
			"capacity":  int64(bp.capacity),
		}
	})
}

// SetSpans attaches a span tracer: each dirty write-back becomes one
// engine-track span (write-backs happen on whichever fetch needed the
// frame, so they belong to no transaction). Call before the pool sees
// traffic.
func (bp *BufferPool) SetSpans(tr *span.Tracer) { bp.spans = tr }

// FetchPage pins the page's frame, loading it from the store on a miss.
// Every successful fetch must be paired with an Unpin, after which the
// caller must not touch the frame: a miss reuses the frame it evicts for
// the page it loads.
func (bp *BufferPool) FetchPage(id PageID) (*Frame, error) {
	var spare *Frame // a victim evicted by this call, reused below
	bp.mu.Lock()
	for {
		if f, ok := bp.frames[id]; ok {
			bp.hits.Add(1)
			f.pins++
			if f.next != nil {
				bp.removeLRU(f)
			}
			loading := f.loading
			bp.mu.Unlock()
			if loading {
				// A concurrent loader holds the exclusive latch across its
				// I/O; wait for it and surface its failure instead of
				// handing out a frame with empty data.
				f.mu.RLock()
				err := f.loadErr
				f.mu.RUnlock()
				if err != nil {
					// The loader already removed the frame from the pool;
					// just drop our pin on the orphan.
					bp.mu.Lock()
					f.pins--
					bp.mu.Unlock()
					return nil, err
				}
			}
			return f, nil
		}
		if len(bp.frames) < bp.capacity {
			break
		}
		freed, err := bp.evictOneLocked()
		if err != nil {
			bp.mu.Unlock()
			return nil, err
		}
		if freed != nil {
			spare = freed
		}
		// evictOneLocked may drop bp.mu around store I/O, so another fetcher
		// can have installed the frame meanwhile; re-check the map.
	}
	bp.misses.Add(1)
	// Reserve the slot before dropping the pool lock for I/O so concurrent
	// fetchers of the same page share one frame.
	f := spare
	if f == nil {
		f = &Frame{}
	}
	// Hold the frame latch across the load. A victim's latch is free or
	// held only by a FlushAll that listed the frame before its eviction and
	// takes no pool lock while holding it, so waiting for it here under
	// bp.mu cannot deadlock; and FlushAll reads the fields reset below only
	// under the latch, so it finds this page's frame, never a mix.
	f.mu.Lock()
	f.reuse(id)
	bp.frames[id] = f
	bp.mu.Unlock()

	data, err := bp.store.Read(id)
	if err != nil {
		f.loadErr = err
		bp.mu.Lock()
		delete(bp.frames, id)
		f.loading = false
		bp.mu.Unlock()
		f.mu.Unlock()
		return nil, err
	}
	f.data = data
	bp.mu.Lock()
	f.loading = false
	bp.mu.Unlock()
	f.mu.Unlock()
	return f, nil
}

// evictOneLocked evicts one unpinned frame, writing a dirty victim back to
// the store BEFORE removing it from the pool — a failed write-back must not
// drop the only copy of the page. A failed victim is requeued (still dirty,
// still evictable) and the next LRU candidate is tried, so one page whose
// write-back persistently fails does not starve fetches that could evict a
// clean frame; the first write error is surfaced only when no candidate
// could be evicted. The store I/O happens with bp.mu released (the caller
// must re-check any map lookups afterwards); each victim is pinned across
// its window so it cannot be evicted twice. Returns with bp.mu held. A nil
// return means progress was made, not necessarily that a frame was freed: a
// victim re-fetched during write-back stays cached and the caller
// re-evaluates capacity. A freed victim is returned for reuse: it is
// unpinned and out of the map and the LRU.
func (bp *BufferPool) evictOneLocked() (*Frame, error) {
	if err := fpPoolEvict.Inject(); err != nil {
		return nil, err
	}
	var firstErr error
	// Bound the pass by the LRU length on entry: failed victims are pushed
	// to the back and must not be retried within the same pass.
	for attempts := bp.lruLen; attempts > 0 && bp.lruLen > 0; attempts-- {
		victim := bp.lru.next
		bp.removeLRU(victim)
		var wroteBack time.Duration
		if victim.dirty.Load() {
			victim.pins++
			bp.mu.Unlock()
			victim.mu.Lock()
			var err error
			if victim.dirty.Load() {
				wbStart := time.Now()
				if err = fpPoolWriteback.Inject(); err == nil {
					err = bp.store.Write(victim.ID, victim.data)
				}
				if err == nil {
					victim.dirty.Store(false)
					wroteBack = time.Since(wbStart)
					bp.spans.RecordEngine(span.Span{
						ID:     bp.writebackIDs.Of(victim.ID),
						Kind:   span.KPool,
						Name:   bp.writebackNames.Of(victim.ID),
						Object: bp.pageNames.Of(victim.ID),
						Start:  wbStart, End: wbStart.Add(wroteBack),
					})
				}
			}
			victim.mu.Unlock()
			bp.mu.Lock()
			victim.pins--
			if err != nil {
				bp.rec.Record(obs.Event{Kind: obs.EvPoolWriteErr,
					Object: bp.pageNames.Of(victim.ID), Note: err.Error()})
				if firstErr == nil {
					firstErr = err
				}
				// Keep the dirty page cached and evictable; its data
				// survives for a later retry or FlushAll. Try the next
				// candidate.
				if victim.pins == 0 && victim.next == nil {
					bp.pushLRU(victim)
				}
				continue
			}
			if victim.pins > 0 || victim.next != nil {
				// Someone re-fetched the page during the write-back; it is no
				// longer a victim.
				return nil, nil
			}
			if victim.dirty.Load() {
				// Re-dirtied (fetched, modified, unpinned) during the window;
				// it needs another write-back before it may be dropped.
				bp.pushLRU(victim)
				return nil, nil
			}
		}
		delete(bp.frames, victim.ID)
		bp.evictions.Add(1)
		ev := obs.Event{Kind: obs.EvPoolEvict, Object: bp.pageNames.Of(victim.ID)}
		if wroteBack > 0 {
			ev.Note, ev.Dur = "dirty", wroteBack
		}
		bp.rec.Record(ev)
		return victim, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned)", len(bp.frames))
}

// Unpin releases one pin. When the pin count reaches zero the frame becomes
// evictable.
func (bp *BufferPool) Unpin(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.ID))
	}
	f.pins--
	if f.pins == 0 && f.next == nil {
		bp.pushLRU(f)
	}
}

// FlushAll writes every dirty frame back to the store. Pinned frames are
// flushed under their latch.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	frames := make([]*Frame, 0, len(bp.frames))
	for _, f := range bp.frames {
		frames = append(frames, f)
	}
	bp.mu.Unlock()
	for _, f := range frames {
		f.mu.Lock()
		if f.dirty.Load() {
			if err := bp.store.Write(f.ID, f.data); err != nil {
				f.mu.Unlock()
				return err
			}
			f.dirty.Store(false)
		}
		f.mu.Unlock()
	}
	return nil
}

// Stats returns (hits, misses, evictions). It reads atomics only, so a
// metrics poller never contends with fetches on the pool mutex.
func (bp *BufferPool) Stats() (hits, misses, evictions int64) {
	return bp.hits.Load(), bp.misses.Load(), bp.evictions.Load()
}
