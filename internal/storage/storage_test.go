package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemStoreBasic(t *testing.T) {
	s := NewMemStore(0)
	if s.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d", s.PageSize())
	}
	id := s.Allocate()
	if id == InvalidPage {
		t.Fatal("allocated invalid page id")
	}
	if got, err := s.Read(id); err != nil || got != "" {
		t.Fatalf("fresh page = %q, %v", got, err)
	}
	if err := s.Write(id, "hello"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read(id); got != "hello" {
		t.Fatalf("read back %q", got)
	}
	if s.NumPages() != 1 {
		t.Fatalf("NumPages = %d", s.NumPages())
	}
}

func TestMemStoreErrors(t *testing.T) {
	s := NewMemStore(8)
	if _, err := s.Read(99); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("Read missing: %v", err)
	}
	if err := s.Write(99, "x"); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("Write missing: %v", err)
	}
	id := s.Allocate()
	if err := s.Write(id, strings.Repeat("x", 9)); !errors.Is(err, ErrPageTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	if err := s.Write(id, strings.Repeat("x", 8)); err != nil {
		t.Fatalf("exact-size write: %v", err)
	}
}

func TestMemStoreDistinctIDs(t *testing.T) {
	s := NewMemStore(0)
	seen := map[PageID]bool{}
	for i := 0; i < 100; i++ {
		id := s.Allocate()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestBufferPoolFetchUnpin(t *testing.T) {
	s := NewMemStore(0)
	id := s.Allocate()
	if err := s.Write(id, "data"); err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(s, 4)
	f, err := bp.FetchPage(id)
	if err != nil {
		t.Fatal(err)
	}
	f.RLatch()
	if f.Data() != "data" {
		t.Fatalf("frame data = %q", f.Data())
	}
	f.RUnlatch()
	bp.Unpin(f)

	hits, misses, _ := bp.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	// Second fetch hits the cache.
	f2, err := bp.FetchPage(id)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f2)
	hits, _, _ = bp.Stats()
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestBufferPoolMissingPage(t *testing.T) {
	bp := NewBufferPool(NewMemStore(0), 2)
	if _, err := bp.FetchPage(42); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("err = %v", err)
	}
	// The failed reservation must not leak a frame.
	if _, _, ev := bp.Stats(); ev != 0 {
		t.Fatal("eviction after failed fetch")
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	s := NewMemStore(0)
	a, b, c := s.Allocate(), s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 2)

	fa, _ := bp.FetchPage(a)
	fa.Latch()
	fa.SetData("dirty-a")
	fa.Unlatch()
	bp.Unpin(fa)

	fb, _ := bp.FetchPage(b)
	bp.Unpin(fb)
	// Fetching c evicts a (LRU), which must be written back.
	fc, _ := bp.FetchPage(c)
	bp.Unpin(fc)

	if got, _ := s.Read(a); got != "dirty-a" {
		t.Fatalf("store has %q after eviction", got)
	}
	_, _, ev := bp.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
	// Re-fetch of a sees the written-back data.
	fa2, _ := bp.FetchPage(a)
	fa2.RLatch()
	if fa2.Data() != "dirty-a" {
		t.Fatalf("refetched %q", fa2.Data())
	}
	fa2.RUnlatch()
	bp.Unpin(fa2)
}

func TestBufferPoolAllPinned(t *testing.T) {
	s := NewMemStore(0)
	a, b, c := s.Allocate(), s.Allocate(), s.Allocate()
	bp := NewBufferPool(s, 2)
	fa, _ := bp.FetchPage(a)
	fb, _ := bp.FetchPage(b)
	if _, err := bp.FetchPage(c); err == nil {
		t.Fatal("expected exhaustion error")
	}
	bp.Unpin(fa)
	bp.Unpin(fb)
	if _, err := bp.FetchPage(c); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestBufferPoolUnpinUnderflowPanics(t *testing.T) {
	s := NewMemStore(0)
	id := s.Allocate()
	bp := NewBufferPool(s, 2)
	f, _ := bp.FetchPage(id)
	bp.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin must panic")
		}
	}()
	bp.Unpin(f)
}

func TestBufferPoolFlushAll(t *testing.T) {
	s := NewMemStore(0)
	id := s.Allocate()
	bp := NewBufferPool(s, 2)
	f, _ := bp.FetchPage(id)
	f.Latch()
	f.SetData("flushed")
	f.Unlatch()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f)
	if got, _ := s.Read(id); got != "flushed" {
		t.Fatalf("store = %q", got)
	}
}

func TestBufferPoolConcurrent(t *testing.T) {
	s := NewMemStore(0)
	var ids []PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, s.Allocate())
	}
	bp := NewBufferPool(s, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id := ids[r.Intn(len(ids))]
				f, err := bp.FetchPage(id)
				if err != nil {
					continue // transient exhaustion is acceptable under contention
				}
				if r.Intn(2) == 0 {
					f.Latch()
					f.SetData(fmt.Sprintf("p%d-%d", id, i))
					f.Unlatch()
				} else {
					f.RLatch()
					_ = f.Data()
					f.RUnlatch()
				}
				bp.Unpin(f)
			}
		}(int64(g))
	}
	wg.Wait()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestWALBasics(t *testing.T) {
	w := NewWAL()
	lsn1 := w.LogUpdate(ParseOwner("T1"), 7, "old", "new")
	lsn2 := w.LogCommit(ParseOwner("T1"))
	if lsn2 != lsn1+1 {
		t.Fatalf("LSNs not monotone: %d %d", lsn1, lsn2)
	}
	w.LogUpdate(ParseOwner("T2"), 8, "a", "b")
	w.LogAbort(ParseOwner("T2"))
	w.LogCompensation(ParseOwner("T3"), "delete(k)")

	if w.Len() != 5 {
		t.Fatalf("Len = %d", w.Len())
	}
	recs := w.Records()
	if recs[0].Page != 7 || recs[0].Before != "old" || recs[0].After != "new" {
		t.Fatalf("update record = %+v", recs[0])
	}
	if recs[1].Kind != RecCommit || recs[3].Kind != RecAbort || recs[4].Kind != RecCompensation {
		t.Fatalf("kinds wrong: %+v", recs)
	}
	for _, k := range []RecordKind{RecUpdate, RecCommit, RecAbort, RecCompensation, RecordKind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestWALRecordsIsCopy(t *testing.T) {
	w := NewWAL()
	w.LogCommit(ParseOwner("T1"))
	recs := w.Records()
	recs[0].Owner = ParseOwner("mutated")
	if w.Records()[0].Owner.String() != "T1" {
		t.Fatal("Records must return a copy")
	}
}

// Property: store round-trips arbitrary payloads within the size bound.
func TestPropertyStoreRoundTrip(t *testing.T) {
	s := NewMemStore(1024)
	f := func(data string) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		id := s.Allocate()
		if err := s.Write(id, data); err != nil {
			return false
		}
		got, err := s.Read(id)
		return err == nil && got == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: under random fetch/write/unpin traffic with FlushAll at the
// end, the store content equals the last write per page.
func TestPropertyPoolConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewMemStore(0)
		n := 4 + r.Intn(8)
		ids := make([]PageID, n)
		for i := range ids {
			ids[i] = s.Allocate()
		}
		bp := NewBufferPool(s, 2+r.Intn(3))
		last := make(map[PageID]string)
		for i := 0; i < 200; i++ {
			id := ids[r.Intn(n)]
			fr, err := bp.FetchPage(id)
			if err != nil {
				return false
			}
			val := fmt.Sprintf("v%d", i)
			fr.Latch()
			fr.SetData(val)
			fr.Unlatch()
			last[id] = val
			bp.Unpin(fr)
		}
		if err := bp.FlushAll(); err != nil {
			return false
		}
		for id, want := range last {
			got, err := s.Read(id)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolFetchHit(b *testing.B) {
	s := NewMemStore(0)
	id := s.Allocate()
	bp := NewBufferPool(s, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := bp.FetchPage(id)
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(f)
	}
}

func BenchmarkPoolFetchEvict(b *testing.B) {
	s := NewMemStore(0)
	ids := make([]PageID, 64)
	for i := range ids {
		ids[i] = s.Allocate()
	}
	bp := NewBufferPool(s, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := bp.FetchPage(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(f)
	}
}

func TestWALIntentDiscardAndClone(t *testing.T) {
	w := NewWAL()
	u1 := w.LogUpdate(ParseOwner("T1.1"), 3, "a", "b")
	i1 := w.LogIntent(ParseOwner("T1"), "undo-op") // supersedes T1.1's update
	if i1 != u1+1 {
		t.Fatalf("lsns not monotone: %d %d", u1, i1)
	}
	if w.LogDiscard(ParseOwner("T1"), nil) != 0 {
		t.Fatal("empty discard must be a no-op")
	}
	d1 := w.LogDiscard(ParseOwner("T1"), []uint64{i1})
	clr := w.LogCLRUpdate(ParseOwner("T1:undo"), 3, "b", "a")

	recs := w.Records()
	if recs[1].Kind != RecIntent || recs[1].Note != "undo-op" || recs[1].Refs[0] != u1 {
		t.Fatalf("intent record wrong: %+v", recs[1])
	}
	if recs[2].Kind != RecDiscard || recs[2].Refs[0] != i1 {
		t.Fatalf("discard record wrong: %+v", recs[2])
	}
	if !recs[3].CLR {
		t.Fatalf("CLR flag missing: %+v", recs[3])
	}
	_ = d1
	_ = clr
	for _, k := range []RecordKind{RecIntent, RecDiscard} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}

	// Clone and NewWALFromRecords preserve records and continue LSNs.
	c := w.Clone()
	if c.Len() != w.Len() {
		t.Fatal("clone length mismatch")
	}
	next := c.LogCommit(ParseOwner("T2"))
	if next != clr+1 {
		t.Fatalf("cloned wal lsn continuation: %d, want %d", next, clr+1)
	}
	if w.Len() == c.Len() {
		t.Fatal("clone must be independent")
	}
	r := NewWALFromRecords(w.Records())
	if r.Len() != w.Len() {
		t.Fatal("rebuild length mismatch")
	}
}

func TestMemStoreClone(t *testing.T) {
	s := NewMemStore(64)
	id := s.Allocate()
	_ = s.Write(id, "original")
	c := s.Clone()
	_ = s.Write(id, "mutated")
	if got, _ := c.Read(id); got != "original" {
		t.Fatalf("clone shares state: %q", got)
	}
	// Allocation continues independently from the same next id.
	id2 := c.Allocate()
	if id2 != id+1 {
		t.Fatalf("clone allocation = %d, want %d", id2, id+1)
	}
	if c.PageSize() != 64 {
		t.Fatal("clone page size lost")
	}
}
