package storage

import (
	"container/list"
	"sync"
)

// IOTracker gives one query private, deterministic I/O accounting over a
// shared BufferPool. Before the multi-session engine, per-query charged cost
// was a delta against the disk's single global Accountant, and every query
// began by flushing the whole buffer pool so it was measured cold; neither
// survives two queries running at once — concurrent queries would observe
// each other's page traffic, and a flush would evict pages out from under a
// running scan.
//
// The tracker replaces both with a per-query simulation: it mirrors the
// pool's exact replacement geometry (shard hash, per-shard capacities, LRU
// with pinned-frame skipping) starting from an empty — cold — state, and
// charges a read into its own Accountant exactly when the page access would
// have missed in a cold, private pool. Physical page traffic still flows
// through the shared pool (which may hit where the simulation misses — that
// is the performance win of sharing); the tracker's accountant is the
// measurement. A query's charged cost is therefore byte-identical to what
// the same query charges running alone on a freshly flushed pool, no matter
// what other sessions do to the shared pool in the meantime.
//
// One tracker serves one query, driven by that query's single goroutine in
// the deterministic order its operator tree touches pages, so the simulated
// hit/miss pattern — and the charged cost — is the same on every run.
type IOTracker struct {
	acct   Accountant
	shards []trackShard
}

type trackShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[frameKey]*trackFrame
	lru      *list.List // front = most recently used; holds *trackFrame
}

type trackFrame struct {
	key   frameKey
	pins  int
	dirty bool
	elem  *list.Element
}

// NewIOTracker creates a tracker simulating a cold private pool with the
// same capacity and shard layout as pool.
func NewIOTracker(pool *BufferPool) *IOTracker {
	capacity, shards := pool.Capacity(), pool.Shards()
	t := &IOTracker{shards: make([]trackShard, shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range t.shards {
		cap := base
		if i < extra {
			cap++
		}
		t.shards[i] = trackShard{
			capacity: cap,
			frames:   make(map[frameKey]*trackFrame, cap),
			lru:      list.New(),
		}
	}
	return t
}

// Acct returns the tracker's private accountant — the query's I/O ledger.
// Index probes charge their synthetic random reads here directly.
func (t *IOTracker) Acct() *Accountant { return &t.acct }

// Stats snapshots the query's accumulated I/O.
func (t *IOTracker) Stats() IOStats { return t.acct.Stats() }

func (t *IOTracker) shardFor(key frameKey) *trackShard {
	return &t.shards[pageShard(key, len(t.shards))]
}

// OnFetch records one successful BufferPool.Fetch of page p of file f: a hit
// in the simulated private pool costs nothing; a miss evicts to capacity
// (writing back simulated-dirty victims) and charges one read. Pins mirror
// the real pool's so a pinned page is never chosen as the simulated victim.
func (t *IOTracker) OnFetch(f FileID, p PageID) {
	key := frameKey{f, p}
	s := t.shardFor(key)
	s.mu.Lock()
	if fr, ok := s.frames[key]; ok {
		fr.pins++
		s.lru.MoveToFront(fr.elem)
		s.mu.Unlock()
		return
	}
	s.evictToCapacity(&t.acct)
	fr := &trackFrame{key: key, pins: 1}
	fr.elem = s.lru.PushFront(fr)
	s.frames[key] = fr
	s.mu.Unlock()
	t.acct.RecordRead(f, p)
}

// OnNewPage records a successful BufferPool.NewPage: the fresh page becomes
// resident, pinned, and dirty without charging a read (it was never on
// disk), exactly as in the real pool.
func (t *IOTracker) OnNewPage(f FileID, p PageID) {
	key := frameKey{f, p}
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr, ok := s.frames[key]; ok {
		fr.pins++
		fr.dirty = true
		s.lru.MoveToFront(fr.elem)
		return
	}
	s.evictToCapacity(&t.acct)
	fr := &trackFrame{key: key, pins: 1, dirty: true}
	fr.elem = s.lru.PushFront(fr)
	s.frames[key] = fr
}

// OnUnpin mirrors BufferPool.Unpin in the simulation.
func (t *IOTracker) OnUnpin(f FileID, p PageID, dirty bool) {
	key := frameKey{f, p}
	s := t.shardFor(key)
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

// evictToCapacity makes room for one more simulated frame, charging a write
// for each dirty victim (the real pool writes dirty victims back). Caller
// holds the shard lock. When every frame is pinned the real pool would fail
// the query; the simulation inserts over capacity instead and keeps
// counting — an accounting layer must never abort what the engine allows.
func (s *trackShard) evictToCapacity(acct *Accountant) {
	for len(s.frames) >= s.capacity {
		var victim *trackFrame
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			fr := e.Value.(*trackFrame)
			if fr.pins == 0 {
				victim = fr
				break
			}
		}
		if victim == nil {
			return
		}
		if victim.dirty {
			acct.RecordWrite()
		}
		s.lru.Remove(victim.elem)
		delete(s.frames, victim.key)
	}
}

// EvictUnpinned drops every unpinned simulated frame, charging writes for
// dirty ones — the simulation of BufferPool.EvictUnpinned, used by query
// phases (the predicate-transfer prepass) that deliberately return to a
// cold state so the main plan's charged I/O stays deterministic.
func (t *IOTracker) EvictUnpinned() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for key, fr := range s.frames {
			if fr.pins > 0 {
				continue
			}
			if fr.dirty {
				t.acct.RecordWrite()
			}
			s.lru.Remove(fr.elem)
			delete(s.frames, key)
		}
		s.mu.Unlock()
	}
}

// PinnedFrames returns the number of simulated frames with at least one pin;
// like the real pool's count it must be zero between queries (the simulation
// mirrors every Fetch/Unpin, so a leak here is a leak there).
func (t *IOTracker) PinnedFrames() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
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
