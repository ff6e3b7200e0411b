package fuse

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The process-wide compiled-plan cache. A compiled plan is the expensive
// artifact of the global tensor formulation: building it walks the operator
// DAG, fuses virtual-node chains and reserves every intermediate buffer
// from a workspace arena. The cache makes that cost a per-structure
// one-off: any consumer — a layer rebinding to a mini-batch subgraph, a
// per-rank row engine, a serving endpoint fanning out over ego networks —
// that asks for a plan with the same adjacency content, input width and
// layer signature gets the plan that was already compiled.
//
// Concurrency model: plans are stateful (their intermediate buffers are
// written by Forward), so a cached plan is leased to exactly one caller at
// a time. Get hands out an idle plan or compiles a fresh one; Release
// returns it to the idle pool. Two goroutines requesting the same key
// concurrently each get their own plan — correctness never depends on
// exclusion, only memory does, and memory is bounded by the byte budget:
// idle plans are evicted least-recently-used, their workspaces released
// back to the owning shard's arena. Exclusive leasing also makes workspace
// double-release structurally impossible: only the cache ever calls
// (*Plan).Release, and only on plans it has taken back.

// CacheKey identifies one compiled plan shape. Two keys are equal exactly
// when a plan compiled for one executes bitwise-identically for the other:
// same adjacency content (fingerprint over pattern and values, guarded by
// Rows and NNZ), same input feature width, and same layer signature (layer
// kind, options, parameter identities, train mode, row offset).
type CacheKey struct {
	Adj   uint64       // sparse.CSR.Fingerprint of the adjacency operand
	Rows  int          // adjacency rows (fingerprint collision guard)
	NNZ   int          // adjacency non-zeros (fingerprint collision guard)
	In    int          // input feature width
	DType tensor.DType // element width the plan was compiled for
	Sig   string       // layer signature: kind, options, param identities
}

// KeyFor builds the cache key for one adjacency × input width × dtype ×
// signature combination. It hashes the adjacency (O(nnz)); callers that
// rebind frequently should memoize per adjacency pointer.
func KeyFor(a *sparse.CSR, in int, dt tensor.DType, sig string) CacheKey {
	return CacheKey{Adj: a.Fingerprint(), Rows: a.Rows, NNZ: a.NNZ(), In: in, DType: dt, Sig: sig}
}

const cacheShards = 8

// DefaultBudgetBytes is the default byte budget of the shared cache:
// generous enough that full training runs never evict, small enough that a
// serving process sweeping thousands of distinct ego subgraphs stays
// bounded.
const DefaultBudgetBytes = 256 << 20

// PlanCache is a sharded, size-bounded, concurrency-safe pool of compiled
// plans. The zero value is not usable; use NewPlanCache or the process-wide
// Shared instance.
type PlanCache struct {
	budget atomic.Int64 // total byte budget across shards; <= 0 is unlimited
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	lru     list.List // *cacheEntry; front = most recently used
	arena   *tensor.Arena
	bytes   int64 // workspace bytes of idle (evictable) plans
}

// cacheEntry is the per-key pool: idle plans ready to lease plus the count
// of plans currently checked out. An entry stays registered while any plan
// is out (so releases always find their pool) and is dropped once it is
// both idle-empty and lease-free.
type cacheEntry struct {
	key  CacheKey
	elem *list.Element
	idle []*Plan
	out  int
}

// idleBytes is what an idle plan counts against the budget: its workspace,
// read while nobody executes it (a float32 plan's grows by the conversion
// buffers it acquires on first use).
func idleBytes(p *Plan) int64 { return p.stats.WorkspaceBytes() }

// NewPlanCache returns an empty cache with the given total byte budget
// (<= 0 means unlimited).
func NewPlanCache(budgetBytes int64) *PlanCache {
	c := &PlanCache{}
	c.budget.Store(budgetBytes)
	for i := range c.shards {
		c.shards[i].entries = make(map[CacheKey]*cacheEntry)
		c.shards[i].arena = tensor.NewArena()
	}
	return c
}

// Shared is the process-wide plan cache every layer, row engine and serving
// endpoint resolves plans through.
var Shared = NewPlanCache(DefaultBudgetBytes)

// SetBudget replaces the total byte budget (<= 0 means unlimited) and
// immediately enforces it.
func (c *PlanCache) SetBudget(bytes int64) {
	c.budget.Store(bytes)
	limit := c.shardLimit()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.enforce(limit)
		s.mu.Unlock()
	}
}

// shardLimit is the per-shard share of the budget. Keys hash uniformly
// across shards, so enforcing budget/shards per shard enforces the total
// within a shard-imbalance factor.
func (c *PlanCache) shardLimit() int64 {
	b := c.budget.Load()
	if b <= 0 {
		return math.MaxInt64
	}
	return b / cacheShards
}

// shard selects the shard for a key via FNV-1a over what sizes its plan's
// buffers — adjacency, input width, dtype — and not over the signature: that
// carries parameter addresses, which change whenever a model or an engine is
// rebuilt, and the rebuilt one should compile on the shard whose arena holds
// the buffers its predecessor released rather than grow another arena.
func (c *PlanCache) shard(k CacheKey) *cacheShard {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(k.Adj)
	mix(uint64(k.Rows))
	mix(uint64(k.NNZ))
	mix(uint64(k.In))
	mix(uint64(k.DType))
	return &c.shards[h%cacheShards]
}

// Lease is one checked-out plan. The holder has exclusive use of the plan
// until Release, which returns it to the cache's idle pool (or frees it if
// the budget demands). A Lease is a value; store it where it stays
// addressable and call Release exactly once (extra calls are no-ops).
type Lease struct {
	c    *PlanCache
	s    *cacheShard
	e    *cacheEntry
	plan *Plan
	done bool
}

// Plan returns the leased plan (nil for the zero Lease).
func (l *Lease) Plan() *Plan { return l.plan }

// Get leases a plan for key: an idle cached plan when one exists (a hit),
// otherwise build is invoked with the shard's workspace arena to compile a
// fresh one (a miss). The hit path performs no allocations. Build runs
// under the shard lock — compiles for keys on the same shard serialize,
// which is what keeps the shard arena single-threaded.
func (c *PlanCache) Get(key CacheKey, build func(ws *tensor.Arena) *Plan) Lease {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e != nil && len(e.idle) > 0 {
		p := e.idle[len(e.idle)-1]
		e.idle[len(e.idle)-1] = nil
		e.idle = e.idle[:len(e.idle)-1]
		e.out++
		s.bytes -= idleBytes(p)
		metrics.PlanCacheBytes.Add(-float64(idleBytes(p)))
		s.lru.MoveToFront(e.elem)
		metrics.PlanCacheHits.Inc()
		return Lease{c: c, s: s, e: e, plan: p}
	}
	metrics.PlanCacheMisses.Inc()
	p := build(s.arena)
	if e == nil {
		e = &cacheEntry{key: key}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
	} else {
		s.lru.MoveToFront(e.elem)
	}
	e.out++
	return Lease{c: c, s: s, e: e, plan: p}
}

// Release returns the leased plan to the cache's idle pool and enforces
// the byte budget (possibly evicting this very plan when the budget is
// tight). Safe to call on the zero Lease and idempotent.
func (l *Lease) Release() {
	if l.plan == nil || l.done {
		return
	}
	l.done = true
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	e := l.e
	e.out--
	e.idle = append(e.idle, l.plan)
	s.bytes += idleBytes(l.plan)
	metrics.PlanCacheBytes.Add(float64(idleBytes(l.plan)))
	s.lru.MoveToFront(e.elem)
	s.enforce(l.c.shardLimit())
	l.plan = nil
}

// enforce evicts idle plans least-recently-used-first until the shard's
// idle bytes fit under limit. Checked-out plans are the lease holders'
// business, not the cache's; an entry with live leases keeps its map slot
// (so releases find their pool) but contributes no evictable bytes.
// Callers hold s.mu.
func (s *cacheShard) enforce(limit int64) {
	for el := s.lru.Back(); el != nil && s.bytes > limit; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		for len(e.idle) > 0 && s.bytes > limit {
			p := e.idle[len(e.idle)-1]
			e.idle[len(e.idle)-1] = nil
			e.idle = e.idle[:len(e.idle)-1]
			s.bytes -= idleBytes(p)
			metrics.PlanCacheBytes.Add(-float64(idleBytes(p)))
			p.Release()
			metrics.PlanCacheEvictions.Inc()
		}
		if len(e.idle) == 0 && e.out == 0 {
			delete(s.entries, e.key)
			s.lru.Remove(el)
			e.elem = nil
		}
		el = prev
	}
}

// Purge evicts every idle plan regardless of budget, releasing their
// workspaces back to the shard arenas. Plans currently leased are
// untouched; their entries are dropped once released under a tight enough
// budget or a later Purge.
func (c *PlanCache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.enforce(0)
		s.mu.Unlock()
	}
}

// Bytes returns the workspace bytes of idle plans currently resident (the
// evictable set — the quantity bounded by the budget and exported as
// agnn_plancache_bytes).
func (c *PlanCache) Bytes() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}

// Len returns the number of idle plans resident across all shards.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			n += len(e.idle)
		}
		s.mu.Unlock()
	}
	return n
}

// Keys returns the key of every entry the cache holds, idle or leased
// (diagnostic, like Leased: what has this process compiled plans for).
func (c *PlanCache) Keys() []CacheKey {
	var keys []CacheKey
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	return keys
}

// Leased returns the number of plans currently checked out across all
// shards (diagnostic; used by tests to assert full drain).
func (c *PlanCache) Leased() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			n += e.out
		}
		s.mu.Unlock()
	}
	return n
}

// arenaLive returns the number of workspace buffers checked out of the
// shard arenas. After every lease is released and the cache purged, this
// must be zero: any other value means a workspace was double-released or
// leaked.
func (c *PlanCache) arenaLive() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.arena.Live()
		s.mu.Unlock()
	}
	return n
}
