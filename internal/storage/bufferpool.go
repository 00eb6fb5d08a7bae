package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches disk pages with LRU replacement. Page fetches that hit
// the pool cost nothing; misses incur a physical read (and a writeback if the
// victim is dirty). Pin/Unpin follow the classic protocol: a pinned page is
// never evicted.
//
// The pool is divided into independent shards selected by a hash of the
// (file, page) key, each with its own lock, frame map, and LRU list, so
// concurrent sessions fetching different pages rarely contend. A single-shard
// pool (the default, see NewBufferPool) behaves exactly like the classic
// global-LRU pool. Concurrent misses on the same page are deduplicated:
// one goroutine performs the physical read while the rest wait and share
// the result, so a page is never read (or charged) twice by a race.
type BufferPool struct {
	disk     *Disk
	capacity int
	shards   []poolShard
}

type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[frameKey]*frame
	lru      *list.List // front = most recently used; holds *frame
	inflight map[frameKey]*inflightRead

	hits   int64
	misses int64
}

type frameKey struct {
	file FileID
	page PageID
}

type frame struct {
	key   frameKey
	pg    *Page
	pins  int
	dirty bool
	elem  *list.Element
}

// inflightRead is a pending physical read shared by every goroutine that
// missed on the same page while it was being loaded (singleflight).
type inflightRead struct {
	done chan struct{}
	err  error
}

// NewBufferPool creates a single-shard pool of the given capacity (in
// pages) over disk — the classic global-LRU pool.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	return NewShardedBufferPool(disk, capacity, 1)
}

// NewShardedBufferPool creates a pool of the given total capacity split
// across the given number of hash-selected shards. More shards reduce lock
// contention between concurrent sessions; shard capacities sum to capacity
// (each at least one page).
func NewShardedBufferPool(disk *Disk, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	bp := &BufferPool{disk: disk, capacity: capacity, shards: make([]poolShard, shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range bp.shards {
		cap := base
		if i < extra {
			cap++
		}
		bp.shards[i] = poolShard{
			capacity: cap,
			frames:   make(map[frameKey]*frame, cap),
			lru:      list.New(),
			inflight: make(map[frameKey]*inflightRead),
		}
	}
	return bp
}

// shardFor selects the shard owning key.
func (bp *BufferPool) shardFor(key frameKey) *poolShard {
	return &bp.shards[pageShard(key, len(bp.shards))]
}

// pageShard maps a page key to one of n shards (splitmix64-style hash so
// adjacent pages of one file spread across shards). Shared by the pool and
// the per-query IOTracker simulation, which must agree on shard geometry.
func pageShard(key frameKey, n int) int {
	if n == 1 {
		return 0
	}
	x := uint64(key.file)<<32 | uint64(key.page)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Capacity returns the total pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Shards returns the number of lock shards.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// PinnedFrames returns the number of resident frames with at least one pin —
// the leak-audit introspection: after any query teardown (success, DNF,
// cancellation, or injected fault) it must be zero.
func (bp *BufferPool) PinnedFrames() int {
	n := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// HitRate returns (hits, misses) since creation or the last ResetCounters.
// A goroutine that waits out another's in-flight read of the same page
// counts as a hit (it cost no physical I/O).
func (bp *BufferPool) HitRate() (hits, misses int64) {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// ResetCounters zeroes the hit/miss counters (not the cached contents).
func (bp *BufferPool) ResetCounters() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		s.hits, s.misses = 0, 0
		s.mu.Unlock()
	}
}

// Fetch pins page p of file f, reading it from disk on a miss. Concurrent
// misses on the same page issue a single physical read.
func (bp *BufferPool) Fetch(f FileID, p PageID) (*Page, error) {
	key := frameKey{f, p}
	s := bp.shardFor(key)
	for {
		s.mu.Lock()
		if fr, ok := s.frames[key]; ok {
			fr.pins++
			s.hits++
			s.lru.MoveToFront(fr.elem)
			pg := fr.pg
			s.mu.Unlock()
			return pg, nil
		}
		if fl, ok := s.inflight[key]; ok {
			// Another goroutine is reading this page; share its read.
			s.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			continue // the frame is now resident (or re-elect a reader)
		}
		s.misses++
		if err := s.evictLocked(bp.disk); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		fl := &inflightRead{done: make(chan struct{})}
		s.inflight[key] = fl
		s.mu.Unlock()

		pg, err := bp.disk.ReadPage(f, p)

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			fr := &frame{key: key, pg: pg, pins: 1}
			fr.elem = s.lru.PushFront(fr)
			s.frames[key] = fr
		}
		fl.err = err
		close(fl.done)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return pg, nil
	}
}

// evictLocked makes room for one more frame in the shard, writing back a
// dirty victim. Caller holds the shard lock.
func (s *poolShard) evictLocked(disk *Disk) error {
	for len(s.frames) >= s.capacity {
		var victim *frame
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			fr := e.Value.(*frame)
			if fr.pins == 0 {
				victim = fr
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", s.capacity)
		}
		if victim.dirty {
			if err := disk.WritePage(victim.key.file, victim.key.page); err != nil {
				return err
			}
		}
		s.lru.Remove(victim.elem)
		delete(s.frames, victim.key)
	}
	return nil
}

// Unpin releases one pin on page p of file f; dirty marks the page modified.
func (bp *BufferPool) Unpin(f FileID, p PageID, dirty bool) {
	key := frameKey{f, p}
	s := bp.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[key]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

// NewPage allocates a fresh page in file f, pins it, and returns it. The new
// page is resident and dirty; it is written back on eviction or FlushAll.
func (bp *BufferPool) NewPage(f FileID) (PageID, *Page, error) {
	pid, err := bp.disk.AllocPage(f)
	if err != nil {
		return 0, nil, err
	}
	key := frameKey{f, pid}
	s := bp.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.evictLocked(bp.disk); err != nil {
		return 0, nil, err
	}
	// The freshly allocated page is already in the disk's array; register a
	// frame for it directly without charging a read (it was never on disk).
	pg, _ := bp.disk.peek(f, pid)
	fr := &frame{key: key, pg: pg, pins: 1, dirty: true}
	fr.elem = s.lru.PushFront(fr)
	s.frames[key] = fr
	return pid, pg, nil
}

// FlushAll writes back every dirty frame and clears the pool.
func (bp *BufferPool) FlushAll() error {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for key, fr := range s.frames {
			if fr.dirty {
				if err := bp.disk.WritePage(key.file, key.page); err != nil {
					s.mu.Unlock()
					return err
				}
				fr.dirty = false
			}
		}
		s.frames = make(map[frameKey]*frame, s.capacity)
		s.lru.Init()
		s.mu.Unlock()
	}
	return nil
}

// EvictUnpinned writes back and drops every unpinned frame, leaving pinned
// frames resident. It exists so a query phase that scans tables outside the
// main plan (the predicate-transfer prepass) can return the pool to a
// deterministic cold state: whether a later scan's page access hits or
// misses must not depend on what the phase happened to leave cached, or the
// charged physical I/O would vary with executor mode and access order.
func (bp *BufferPool) EvictUnpinned() error {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for key, fr := range s.frames {
			if fr.pins > 0 {
				continue
			}
			if fr.dirty {
				if err := bp.disk.WritePage(key.file, key.page); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			s.lru.Remove(fr.elem)
			delete(s.frames, key)
		}
		s.mu.Unlock()
	}
	return nil
}

// peek returns the page without charging an I/O; used only by NewPage for
// pages that were just allocated and have never been written to disk.
func (d *Disk) peek(f FileID, p PageID) (*Page, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[f]
	if !ok || int(p) >= len(pages) {
		return nil, false
	}
	return pages[p], true
}
