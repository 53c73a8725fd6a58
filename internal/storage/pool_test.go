package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The faultStore test double that used to live here is promoted to
// storage.FaultStore (faultstore.go) as part of the fault-injection
// framework; these tests drive it through its setter methods. newFaultMem
// keeps the underlying MemStore handle for gate-free direct access.
func newFaultMem() (*FaultStore, *MemStore) {
	ms := NewMemStore(0)
	return NewFaultStore(ms), ms
}

// TestFetchLoadFailureSharedByConcurrentFetcher: a fetcher that hits the
// in-flight frame of a failing load must get the load error too, not a
// frame with empty data and an orphaned pin.
func TestFetchLoadFailureSharedByConcurrentFetcher(t *testing.T) {
	s, ms := newFaultMem()
	id := s.Allocate()
	if err := ms.Write(id, "payload"); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.FailReads(true)
	s.GateReads(gate)

	bp := NewBufferPool(s, 4)
	loader := make(chan error, 1)
	go func() {
		_, err := bp.FetchPage(id)
		loader <- err
	}()
	// Wait until the loader has reserved the in-flight frame.
	for i := 0; ; i++ {
		bp.mu.Lock()
		_, inFlight := bp.frames[id]
		bp.mu.Unlock()
		if inFlight {
			break
		}
		if i > 1000 {
			t.Fatal("loader never reserved the frame")
		}
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := bp.FetchPage(id)
		second <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the second fetcher pin and park
	close(gate)                       // the load now fails

	for i, ch := range []chan error{loader, second} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrInjectedIO) {
				t.Fatalf("fetcher %d: err = %v, want injected failure", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fetcher %d never returned", i)
		}
	}

	// The failed frame must be gone and a healed store fetchable again.
	s.FailReads(false)
	s.GateReads(nil)
	f, err := bp.FetchPage(id)
	if err != nil {
		t.Fatalf("fetch after heal: %v", err)
	}
	f.RLatch()
	if f.Data() != "payload" {
		t.Fatalf("data = %q, want %q", f.Data(), "payload")
	}
	f.RUnlatch()
	bp.Unpin(f)
}

// TestEvictWriteBackFailureKeepsDirtyPage: a failed write-back must leave
// the dirty page cached (and the fetch that triggered eviction must fail),
// so the only copy of the data is never dropped.
func TestEvictWriteBackFailureKeepsDirtyPage(t *testing.T) {
	s, ms := newFaultMem()
	p1, p2 := s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 1)

	f, err := bp.FetchPage(p1)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	f.SetData("dirty-data")
	f.Unlatch()
	bp.Unpin(f)

	s.FailWrites(true)
	if _, err := bp.FetchPage(p2); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("fetch during failing write-back: err = %v, want injected failure", err)
	}

	// The dirty frame survived; once the store heals the data reaches it.
	s.FailWrites(false)
	g, err := bp.FetchPage(p2)
	if err != nil {
		t.Fatalf("fetch after heal: %v", err)
	}
	bp.Unpin(g)
	if data, err := ms.Read(p1); err != nil || data != "dirty-data" {
		t.Fatalf("store p1 = %q, %v; want the written-back dirty data", data, err)
	}
}

// TestEvictWriteBackDoesNotHoldPoolLock: while a dirty victim's write-back
// is in flight, hits on other cached pages must proceed — the store I/O
// runs outside bp.mu.
func TestEvictWriteBackDoesNotHoldPoolLock(t *testing.T) {
	s, ms := newFaultMem()
	p1, p2, p3 := s.Allocate(), s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 2)

	f, err := bp.FetchPage(p1) // oldest: the eviction victim
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	f.SetData("v1")
	f.Unlatch()
	bp.Unpin(f)
	g, err := bp.FetchPage(p2)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(g)

	gate := make(chan struct{})
	s.GateWrites(gate)
	evicted := make(chan error, 1)
	go func() {
		h, err := bp.FetchPage(p3) // evicts p1, blocking in store.Write
		if err == nil {
			bp.Unpin(h)
		}
		evicted <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the write-back start

	hit := make(chan error, 1)
	go func() {
		h, err := bp.FetchPage(p2)
		if err == nil {
			bp.Unpin(h)
		}
		hit <- err
	}()
	select {
	case err := <-hit:
		if err != nil {
			t.Fatalf("hit on cached page: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hit on a cached page blocked behind an in-flight write-back")
	}

	close(gate)
	if err := <-evicted; err != nil {
		t.Fatalf("eviction fetch: %v", err)
	}
	if data, _ := ms.Read(p1); data != "v1" {
		t.Fatalf("evicted page reached the store as %q, want %q", data, "v1")
	}
}

// TestEvictRefetchDuringWriteBackStaysCached: a page re-fetched while its
// write-back is in flight must survive the eviction attempt — and a
// modification made through that re-fetch must not be lost.
func TestEvictRefetchDuringWriteBackStaysCached(t *testing.T) {
	s, ms := newFaultMem()
	p1, p2, p3 := s.Allocate(), s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 2)

	f, err := bp.FetchPage(p1)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	f.SetData("v1")
	f.Unlatch()
	bp.Unpin(f)
	g, err := bp.FetchPage(p2)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(g)

	gate := make(chan struct{})
	s.GateWrites(gate)
	evicted := make(chan error, 1)
	go func() {
		h, err := bp.FetchPage(p3)
		if err == nil {
			bp.Unpin(h)
		}
		evicted <- err
	}()
	time.Sleep(10 * time.Millisecond)

	// Re-fetch the victim mid-write-back and modify it.
	refetched := make(chan error, 1)
	go func() {
		h, err := bp.FetchPage(p1)
		if err == nil {
			h.Latch()
			h.SetData("v1-modified")
			h.Unlatch()
			bp.Unpin(h)
		}
		refetched <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	if err := <-evicted; err != nil {
		t.Fatalf("eviction fetch: %v", err)
	}
	if err := <-refetched; err != nil {
		t.Fatalf("re-fetch of victim: %v", err)
	}

	// Whatever got evicted, the modification must survive: either still
	// cached (flush surfaces it) or already written back post-modification.
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if data, _ := ms.Read(p1); data != "v1-modified" {
		t.Fatalf("store p1 = %q, want %q", data, "v1-modified")
	}
}

// TestEvictSkipsFailingVictim: when the oldest victim's write-back fails,
// eviction must requeue it and evict the next candidate instead of failing
// the (unrelated) fetch — one page with a bad write-back must not starve
// fetches while clean evictable frames exist.
func TestEvictSkipsFailingVictim(t *testing.T) {
	s, ms := newFaultMem()
	p1, p2, p3 := s.Allocate(), s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 2)

	f, err := bp.FetchPage(p1) // oldest: the first eviction candidate
	if err != nil {
		t.Fatal(err)
	}
	f.Latch()
	f.SetData("dirty-data")
	f.Unlatch()
	bp.Unpin(f)
	g, err := bp.FetchPage(p2) // clean second candidate
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(g)

	s.FailWritesOnly(p1)
	h, err := bp.FetchPage(p3)
	if err != nil {
		t.Fatalf("fetch should evict the clean candidate past the failing one: %v", err)
	}
	bp.Unpin(h)

	// p1 survived the failed write-back, still cached and dirty; a healed
	// store receives its data.
	s.FailWrites(false)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if data, err := ms.Read(p1); err != nil || data != "dirty-data" {
		t.Fatalf("store p1 = %q, %v; want the preserved dirty data", data, err)
	}
}

// scriptStore is a MemStore whose writes consult a hook first: a non-nil
// error from the hook fails the write.
type scriptStore struct {
	*MemStore
	hook func(id PageID) error
}

func (s *scriptStore) Write(id PageID, data string) error {
	if err := s.hook(id); err != nil {
		return err
	}
	return s.MemStore.Write(id, data)
}

// lruModel restates the pool's eviction policy over a plain slice: the
// reference the pool's LRU is checked against.
type lruModel struct {
	cap   int
	pins  map[PageID]int // the cached pages
	dirty map[PageID]bool
	order []PageID // evictable pages, least recently used first
	// failing's write-backs fail; refetch is fetched by another user while
	// its write-back runs.
	failing, refetch  PageID
	failed, refetched int
}

func (m *lruModel) fetch(id PageID) (evicted []PageID, ok bool) {
	if _, cached := m.pins[id]; cached {
		m.pins[id]++
		m.order = slices.DeleteFunc(m.order, func(p PageID) bool { return p == id })
		return nil, true
	}
	for len(m.pins) >= m.cap {
		progress := false
		for n := len(m.order); n > 0 && !progress; n-- {
			v := m.order[0]
			m.order = m.order[1:]
			switch {
			case m.dirty[v] && v == m.failing:
				m.failed++
				m.order = append(m.order, v)
			case m.dirty[v] && v == m.refetch:
				m.refetched++
				m.dirty[v] = false
				m.pins[v]++
				progress = true
			default:
				delete(m.pins, v)
				delete(m.dirty, v)
				evicted = append(evicted, v)
				progress = true
			}
		}
		if !progress {
			return evicted, false
		}
	}
	m.pins[id] = 1
	return evicted, true
}

func (m *lruModel) unpin(id PageID) {
	if m.pins[id]--; m.pins[id] == 0 {
		m.order = append(m.order, id)
	}
}

// TestLRUMatchesListModel drives the pool through a seeded fetch / write /
// unpin sequence — with a page whose write-backs fail for a while, and a
// page re-fetched and re-dirtied during its write-back for a while — and
// checks every eviction and the whole evictable order against lruModel.
func TestLRUMatchesListModel(t *testing.T) {
	const none = PageID(1 << 30)
	ms := NewMemStore(0)
	var bp *BufferPool
	var held []*Frame // pinned by the refetch hook during a write-back
	m := &lruModel{cap: 3, pins: map[PageID]int{}, dirty: map[PageID]bool{}, failing: none, refetch: none}
	s := &scriptStore{MemStore: ms, hook: func(id PageID) error {
		switch id {
		case m.failing:
			return ErrInjectedIO
		case m.refetch:
			f, err := bp.FetchPage(id)
			if err != nil {
				return err
			}
			held = append(held, f)
		}
		return nil
	}}
	pages := make([]PageID, 8)
	for i := range pages {
		pages[i] = s.Allocate()
	}
	bp = NewBufferPool(s, m.cap)

	cached := func() map[PageID]bool {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		out := map[PageID]bool{}
		for id := range bp.frames {
			out[id] = true
		}
		return out
	}
	lruOrder := func() []PageID {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		var out []PageID
		for f := bp.lru.next; f != &bp.lru; f = f.next {
			out = append(out, f.ID)
		}
		if len(out) != bp.lruLen {
			t.Fatalf("LRU list holds %d frames, lruLen says %d", len(out), bp.lruLen)
		}
		return out
	}

	rng := rand.New(rand.NewSource(1))
	var pinned *Frame // one page held across steps: pinned frames are skipped
	for step := 0; step < 400; step++ {
		switch step {
		case 100:
			m.failing = pages[2]
		case 160:
			m.failing = none
		case 220:
			m.refetch = pages[5]
		case 280:
			m.refetch = none
		}
		id := pages[rng.Intn(len(pages))]
		before := cached()
		f, err := bp.FetchPage(id)
		want, ok := m.fetch(id)
		if (err == nil) != ok {
			t.Fatalf("step %d: fetch %d: err = %v, model ok = %v", step, id, err, ok)
		}
		var got []PageID
		for p := range before {
			if !cached()[p] {
				got = append(got, p)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: fetch %d evicted %v, model evicted %v", step, id, got, want)
		}
		if err == nil {
			if rng.Intn(3) == 0 {
				f.Latch()
				f.SetData(fmt.Sprint(step))
				f.Unlatch()
				m.dirty[id] = true
			}
			if pinned == nil && rng.Intn(8) == 0 {
				pinned = f
			} else {
				bp.Unpin(f)
				m.unpin(id)
			}
		}
		if pinned != nil && rng.Intn(6) == 0 {
			bp.Unpin(pinned)
			m.unpin(pinned.ID)
			pinned = nil
		}
		for _, h := range held {
			h.Latch()
			h.SetData("re-dirtied")
			h.Unlatch()
			m.dirty[h.ID] = true
			bp.Unpin(h)
			m.unpin(h.ID)
		}
		held = held[:0]
		if got := lruOrder(); !slices.Equal(got, m.order) {
			t.Fatalf("step %d: LRU order %v, model %v", step, got, m.order)
		}
	}
	if m.failed == 0 || m.refetched == 0 {
		t.Fatalf("sequence missed a path: %d failed write-backs, %d re-fetches during write-back", m.failed, m.refetched)
	}
}

// TestUnpinAllocs: a hit and its unpin allocate nothing — the LRU is
// threaded through the frames themselves.
func TestUnpinAllocs(t *testing.T) {
	s := NewMemStore(0)
	p := s.Allocate()
	bp := NewBufferPool(s, 2)
	f, err := bp.FetchPage(p)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f)
	allocs := testing.AllocsPerRun(100, func() {
		f, _ := bp.FetchPage(p)
		bp.Unpin(f)
	})
	if allocs != 0 {
		t.Fatalf("FetchPage hit + Unpin = %.1f allocs, want 0", allocs)
	}
}

// TestReusedFramesKeepTheirPage: fetchers reading and writing many more
// pages than the pool holds, while FlushAll runs beside them, always find
// their own page's data in the frame they pinned, and every page written
// back holds only its own data, although each miss reuses the frame of
// the page it evicted. Run it under -race: a FlushAll that listed a frame
// before its eviction reads its reset fields.
func TestReusedFramesKeepTheirPage(t *testing.T) {
	const pages, workers, rounds = 32, 4, 400
	store := NewMemStore(0)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = store.Allocate()
		if err := store.Write(ids[i], fmt.Sprintf("page-%d-v0", ids[i])); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(store, 4)
	done := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				flushed <- bp.FlushAll()
				return
			default:
				if err := bp.FlushAll(); err != nil {
					flushed <- err
					return
				}
			}
		}
	}()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				id := ids[rng.Intn(pages)]
				f, err := bp.FetchPage(id)
				if err != nil {
					errs <- err
					return
				}
				prefix := fmt.Sprintf("page-%d-", id)
				f.Latch()
				if got := f.Data(); f.ID != id || len(got) < len(prefix) || got[:len(prefix)] != prefix {
					f.Unlatch()
					bp.Unpin(f)
					errs <- fmt.Errorf("frame of page %d holds page %d, data %q", id, f.ID, got)
					return
				}
				if rng.Intn(2) == 0 {
					f.SetData(fmt.Sprintf("%sv%d.%d", prefix, w, r))
				}
				f.Unlatch()
				bp.Unpin(f)
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(done)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		data, err := store.Read(id)
		if prefix := fmt.Sprintf("page-%d-", id); err != nil || len(data) < len(prefix) || data[:len(prefix)] != prefix {
			t.Fatalf("page %d in the store = %q, %v", id, data, err)
		}
	}
}
