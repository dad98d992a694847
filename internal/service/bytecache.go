package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache endpoint labels: every encoded-answer cache entry (and its
// hit/miss/evict counters) is attributed to one logical query surface,
// so /metrics can show which endpoint is churning the cache.
const (
	epImportance   = "importance"
	epCompleteness = "completeness"
	epSuggest      = "suggest"
	epPath         = "path"
	epFootprint    = "footprint"
	epSeccomp      = "seccomp"
	epCompat       = "compat"
	epTrends       = "trends"
	epPlan         = "plan"
)

// cacheEndpoints is the fixed label set, in render order.
var cacheEndpoints = []string{
	epCompat, epCompleteness, epFootprint, epImportance,
	epPath, epPlan, epSeccomp, epSuggest, epTrends,
}

// endpointCounters is one endpoint's cumulative cache accounting.
// Counters are atomics so the hot path never serializes on a shared
// lock just to bump a statistic.
type endpointCounters struct {
	name                  string
	hits, misses, evicted atomic.Uint64
}

// byteCacheShards is fixed: 32 shards keeps per-shard contention
// negligible at any realistic core count while the per-shard maps stay
// dense enough to be cheap.
const byteCacheShards = 32

// byteCacheEntryOverhead approximates the per-entry bookkeeping cost
// (map slot, list element, Encoded header, key copy) charged against
// the byte budget on top of the body itself.
const byteCacheEntryOverhead = 160

// byteCache is the sharded, byte-size-bounded encoded-answer cache:
// hash(key) picks a shard, each shard is an independent LRU under its
// own mutex, and the bound is resident bytes (keys + bodies +
// per-entry overhead), not entry count, so a handful of large footprint
// or path answers cannot blow the heap. Values are immutable Encoded
// blobs; readers share the byte slices and must not mutate them.
type byteCache struct {
	shards   [byteCacheShards]byteCacheShard
	eps      map[string]*endpointCounters // immutable after newByteCache
	maxBytes int64
	oversize atomic.Uint64 // answers too large for one shard, served uncached
}

type byteCacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type byteCacheEntry struct {
	key  string
	ep   *endpointCounters
	enc  Encoded
	size int64
}

func newByteCache(maxBytes int64) *byteCache {
	if maxBytes < byteCacheShards*1024 {
		maxBytes = byteCacheShards * 1024
	}
	c := &byteCache{
		eps:      make(map[string]*endpointCounters, len(cacheEndpoints)),
		maxBytes: maxBytes,
	}
	for _, name := range cacheEndpoints {
		c.eps[name] = &endpointCounters{name: name}
	}
	per := maxBytes / byteCacheShards
	for i := range c.shards {
		c.shards[i].maxBytes = per
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

// ep returns the counter block for a label; the map is immutable, so
// lookups are lock-free.
func (c *byteCache) ep(name string) *endpointCounters { return c.eps[name] }

// shardFor hashes the key (FNV-1a) onto a shard.
func (c *byteCache) shardFor(key string) *byteCacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%byteCacheShards]
}

// Get returns the cached encoding for key, counting the lookup against
// the endpoint's hit/miss counters.
func (c *byteCache) Get(ep *endpointCounters, key string) (Encoded, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.ll.MoveToFront(el)
		enc := el.Value.(*byteCacheEntry).enc
		sh.mu.Unlock()
		ep.hits.Add(1)
		return enc, true
	}
	sh.mu.Unlock()
	ep.misses.Add(1)
	return Encoded{}, false
}

// Add inserts or refreshes key, evicting least-recently-used entries
// until the shard is back under its byte budget. Answers larger than a
// whole shard are not cached at all (counted, served uncached) — one
// giant answer must not wipe a shard.
func (c *byteCache) Add(ep *endpointCounters, key string, enc Encoded) {
	size := int64(len(key)) + int64(len(enc.Body)) + int64(len(enc.ETag)) + byteCacheEntryOverhead
	sh := c.shardFor(key)
	if size > sh.maxBytes {
		c.oversize.Add(1)
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		ent := el.Value.(*byteCacheEntry)
		sh.bytes += size - ent.size
		ent.enc, ent.size = enc, size
		sh.ll.MoveToFront(el)
	} else {
		sh.items[key] = sh.ll.PushFront(&byteCacheEntry{key: key, ep: ep, enc: enc, size: size})
		sh.bytes += size
	}
	for sh.bytes > sh.maxBytes {
		last := sh.ll.Back()
		if last == nil {
			break
		}
		ent := last.Value.(*byteCacheEntry)
		sh.ll.Remove(last)
		delete(sh.items, ent.key)
		sh.bytes -= ent.size
		ent.ep.evicted.Add(1)
	}
}

// Reset drops every entry in every shard, keeping cumulative counters.
// Needed when a snapshot is swapped in at an explicit generation (push,
// rollback): generation-embedded keys cannot be trusted across that.
func (c *byteCache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.ll.Init()
		sh.items = make(map[string]*list.Element)
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// EndpointCacheStats is one endpoint's cumulative byte-cache counters.
type EndpointCacheStats struct {
	Endpoint  string
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// byteCacheStats is the cache-wide snapshot Stats() renders.
type byteCacheStats struct {
	Hits, Misses, Evictions uint64
	Bytes, CapacityBytes    int64
	Entries                 int
	Oversize                uint64
	Endpoints               []EndpointCacheStats
}

// Stats sums the per-shard occupancy (under each shard lock) and the
// per-endpoint counters.
func (c *byteCache) Stats() byteCacheStats {
	st := byteCacheStats{CapacityBytes: c.maxBytes, Oversize: c.oversize.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		st.Entries += sh.ll.Len()
		sh.mu.Unlock()
	}
	for _, name := range cacheEndpoints {
		ep := c.eps[name]
		es := EndpointCacheStats{
			Endpoint:  name,
			Hits:      ep.hits.Load(),
			Misses:    ep.misses.Load(),
			Evictions: ep.evicted.Load(),
		}
		st.Hits += es.Hits
		st.Misses += es.Misses
		st.Evictions += es.Evictions
		st.Endpoints = append(st.Endpoints, es)
	}
	return st
}
