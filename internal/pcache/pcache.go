// Package pcache implements Montage-style predicate caching (paper §5.1):
// each expensive predicate owns a main-memory dynamic hash table keyed on
// the binding of its input variables, storing the result of the *entire
// predicate* — true, false, or NULL — never the raw function result (whose
// type may be an arbitrarily large derived object, e.g. a subquery's set).
package pcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"predplace/internal/expr"
)

// Scope selects the caching granularity of §5.1: Montage caches the result
// of the *whole predicate* per binding (ByPredicate, the default); the
// alternative proposed in [Jhi88] and [HS93a] caches per *function*, which
// shares entries between predicates that call the same function.
type Scope uint8

// Caching scopes.
const (
	ByPredicate Scope = iota
	ByFunction
)

// stripes is the number of lock shards per unbounded cache table. Bindings
// hash across shards, so concurrent lookups and stores rarely contend on one
// mutex.
const stripes = 16

// Manager holds one cache per predicate (or per function, depending on
// Scope) for the duration of a query. Caches are dropped between queries,
// exactly like the per-query hash tables in Montage.
//
// The manager is safe for concurrent use: hit/miss counters are atomics and
// each cache table is striped into lock shards keyed by a hash of the
// binding. Bounded tables (maxEntries > 0) use a single shard so the FIFO
// eviction order below is exact.
type Manager struct {
	// enabled gates all caching; a disabled manager misses on every lookup.
	enabled bool
	scope   Scope
	// maxEntries bounds each predicate's table (0 = unbounded); when full,
	// the oldest entry is evicted (deterministic FIFO — the paper notes any
	// of a variety of replacement schemes may be used, and a deterministic
	// one keeps bounded-cache runs reproducible across processes).
	maxEntries int
	hits       atomic.Int64
	misses     atomic.Int64

	mu     sync.RWMutex
	caches map[string]*cache
}

// cache is one predicate's (or function's) table, striped into lock shards.
type cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]expr.Value
	// order and head form a FIFO queue of keys for bounded tables
	// (max > 0); unbounded tables skip order tracking entirely.
	order []string
	head  int
	max   int
}

// NewManager creates a predicate-scoped cache manager. maxEntriesPerPred of
// 0 means unbounded tables.
func NewManager(enabled bool, maxEntriesPerPred int) *Manager {
	return NewManagerScoped(enabled, maxEntriesPerPred, ByPredicate)
}

// NewManagerScoped creates a cache manager with an explicit scope.
func NewManagerScoped(enabled bool, maxEntriesPerPred int, scope Scope) *Manager {
	return &Manager{
		enabled:    enabled,
		scope:      scope,
		maxEntries: maxEntriesPerPred,
		caches:     make(map[string]*cache),
	}
}

// newCache builds one owner's table: striped when unbounded, single-shard
// FIFO when bounded.
func newCache(maxEntries int) *cache {
	n := stripes
	if maxEntries > 0 {
		n = 1
	}
	c := &cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i] = cacheShard{m: make(map[string]expr.Value), max: maxEntries}
	}
	return c
}

// shardFor hashes a binding key to one of the cache's lock shards (FNV-1a).
func (c *cache) shardFor(key string) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// shardIdx is shardFor over a raw key, allocation-free for the batched
// paths (converting a []byte to string for a function argument would copy).
func (c *cache) shardIdx(key []byte) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(c.shards)))
}

// Scope returns the manager's caching granularity.
func (m *Manager) Scope() Scope {
	if m == nil {
		return ByPredicate
	}
	return m.scope
}

// Owner computes the cache-table identifier for a predicate: its ID under
// ByPredicate, its function's name under ByFunction.
func (m *Manager) Owner(predID int, funcName string) string {
	if m.Scope() == ByFunction {
		return "f:" + funcName
	}
	return fmt.Sprintf("p:%d", predID)
}

// Enabled reports whether caching is on.
func (m *Manager) Enabled() bool { return m != nil && m.enabled }

// Key encodes an argument binding into a cache key.
func Key(args []expr.Value) string {
	var buf []byte
	for _, a := range args {
		buf = a.AppendKey(buf)
	}
	return string(buf)
}

// table returns the owner's cache, creating it when create is set.
func (m *Manager) table(owner string, create bool) *cache {
	m.mu.RLock()
	c := m.caches[owner]
	m.mu.RUnlock()
	if c != nil || !create {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.caches[owner]; c == nil {
		c = newCache(m.maxEntries)
		m.caches[owner] = c
	}
	return c
}

// Lookup returns the cached tri-state result of the owner's table on the
// given binding (owner comes from Owner).
func (m *Manager) Lookup(owner string, key string) (expr.Value, bool) {
	if !m.Enabled() {
		return expr.Null, false
	}
	c := m.table(owner, false)
	if c == nil {
		m.misses.Add(1)
		return expr.Null, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Store records the predicate's result for a binding. When the table is
// bounded and full, the oldest binding is evicted (FIFO).
func (m *Manager) Store(owner string, key string, v expr.Value) {
	if !m.Enabled() {
		return
	}
	c := m.table(owner, true)
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store(key, v)
}

// store records one binding in the shard; the caller holds the shard lock.
func (s *cacheShard) store(key string, v expr.Value) {
	if _, exists := s.m[key]; exists {
		s.m[key] = v
		return
	}
	if s.max > 0 {
		if len(s.m) >= s.max {
			victim := s.order[s.head]
			s.order[s.head] = "" // release the string for GC
			s.head++
			delete(s.m, victim)
			if s.head == len(s.order) {
				s.order, s.head = s.order[:0], 0
			}
		}
		s.order = append(s.order, key)
	}
	s.m[key] = v
}

// Batch lookup states: the outcome of one binding in a GetBatch call.
const (
	// BatchMiss marks a binding absent from the cache; the caller must
	// evaluate it and hand the result back through PutBatch.
	BatchMiss uint8 = iota
	// BatchHit marks a cached binding; Val carries the stored result.
	BatchHit
	// BatchDup marks a binding equal to an earlier BatchMiss in the same
	// batch (index in Dup). Under tuple-at-a-time execution the earlier
	// row's store would have completed before this row's lookup, so the
	// duplicate counts as a hit and takes the earlier row's result.
	BatchDup
)

// BatchEntry is one binding's outcome in a GetBatch call.
type BatchEntry struct {
	// Val is the cached result for BatchHit entries (and is filled in by
	// the caller for misses before PutBatch).
	Val expr.Value
	// State is BatchMiss, BatchHit, or BatchDup.
	State uint8
	// Dup is the index of the earlier miss sharing this binding
	// (BatchDup only; -1 otherwise).
	Dup int32
}

// Batchable reports whether the batched lookup path may be used: only
// enabled managers with unbounded tables qualify. Bounded tables evict in
// FIFO order, which is sensitive to the exact interleaving of lookups and
// stores, so batching them could change hit patterns versus
// tuple-at-a-time execution; unbounded tables are monotone (a cached
// binding stays cached), making GetBatch/PutBatch exactly equivalent to
// the sequential per-row protocol.
func (m *Manager) Batchable() bool { return m.Enabled() && m.maxEntries == 0 }

// GetBatch looks up a batch of bindings, taking each shard lock at most
// once per call instead of once per row. Semantics are as-if-sequential:
// out[i] reports what the i'th Lookup of a tuple-at-a-time loop would have
// seen, assuming each miss is stored before the next lookup — duplicates
// of an earlier miss therefore report BatchDup (counted as hits). Keys are
// raw binding encodings; GetBatch does not retain them.
func (m *Manager) GetBatch(owner string, keys [][]byte, out []BatchEntry) {
	var c *cache
	if m.Enabled() {
		c = m.table(owner, false)
	}
	var hits, misses int64
	// pending maps a missed binding to its first index, for duplicate
	// detection. Allocated lazily: batches with no misses never touch it.
	var pending map[string]int32
	miss := func(i int, key []byte) {
		if j, ok := pending[string(key)]; ok {
			out[i] = BatchEntry{State: BatchDup, Dup: j}
			hits++
			return
		}
		if pending == nil {
			pending = make(map[string]int32, 8)
		}
		pending[string(key)] = int32(i)
		out[i] = BatchEntry{State: BatchMiss, Dup: -1}
		misses++
	}
	if c == nil {
		for i, key := range keys {
			miss(i, key)
		}
	} else {
		// One pass per shard, locking each shard once; equal bindings hash
		// to the same shard, so duplicate detection stays in order.
		for si := range c.shards {
			s := &c.shards[si]
			locked := false
			for i, key := range keys {
				if c.shardIdx(key) != si {
					continue
				}
				if !locked {
					//pplint:ignore lockbalance the locked flag guards both Lock and the Unlock below, giving exactly one Lock/Unlock per shard pass; the flag correlation is outside the analyzer's path model
					s.mu.Lock()
					locked = true
				}
				if v, ok := s.m[string(key)]; ok {
					out[i] = BatchEntry{Val: v, State: BatchHit, Dup: -1}
					hits++
				} else {
					miss(i, key)
				}
			}
			if locked {
				s.mu.Unlock()
			}
		}
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
}

// PutBatch stores the results of a GetBatch's misses (entries whose State
// is BatchMiss, with Val filled in by the caller), taking each shard lock
// at most once. Hits and duplicates are skipped.
func (m *Manager) PutBatch(owner string, keys [][]byte, entries []BatchEntry) {
	if !m.Enabled() {
		return
	}
	c := m.table(owner, true)
	for si := range c.shards {
		s := &c.shards[si]
		locked := false
		for i := range entries {
			if entries[i].State != BatchMiss || c.shardIdx(keys[i]) != si {
				continue
			}
			if !locked {
				//pplint:ignore lockbalance the locked flag guards both Lock and the Unlock below, giving exactly one Lock/Unlock per shard pass; the flag correlation is outside the analyzer's path model
				s.mu.Lock()
				locked = true
			}
			s.store(string(keys[i]), entries[i].Val)
		}
		if locked {
			s.mu.Unlock()
		}
	}
}

// Stats returns (hits, misses, totalEntries).
func (m *Manager) Stats() (hits, misses int64, entries int) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.caches {
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			entries += len(s.m)
			s.mu.Unlock()
		}
	}
	return m.hits.Load(), m.misses.Load(), entries
}

// Reset clears all cached entries and counters (between queries).
func (m *Manager) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.caches = make(map[string]*cache)
	m.hits.Store(0)
	m.misses.Store(0)
}
