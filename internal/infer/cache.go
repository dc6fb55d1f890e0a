package infer

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"deepod/internal/obs"
)

// cacheKey identifies one estimate in the cache: the origin and destination
// quantized onto the road network's spatial grid plus the departure time
// quantized onto the model's time slots. Two requests that land in the same
// cells and slot are close enough (within one grid cell and one Δt) that
// DeepOD's OD encoder sees near-identical inputs, so the cached estimate is
// a faithful answer for both. epoch is the traffic epoch the estimate was
// computed under (always 0 without a traffic source): when live conditions
// shift enough to bump the epoch, every earlier entry silently misses, so
// hot cells never serve pre-shift ETAs.
type cacheKey struct {
	originCell int
	destCell   int
	slot       int
	epoch      uint64
}

// hash mixes the key fields with an FNV-1a-style fold; used only to pick a
// shard, so quality requirements are modest.
func (k cacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [4]int{k.originCell, k.destCell, k.slot, int(k.epoch)} {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	return h
}

// cacheEntry is one cached estimate. gen records which model snapshot
// produced it: entries from a superseded snapshot are treated as misses and
// dropped, so a hot reload implicitly invalidates the whole cache without
// stalling traffic to sweep it.
type cacheEntry struct {
	key    cacheKey
	sec    float64
	gen    uint64
	expire time.Time
}

// cacheShard is one lock domain of the cache: a map for lookup plus an LRU
// list (front = most recently used) for eviction order.
type cacheShard struct {
	mu  sync.Mutex
	m   map[cacheKey]*list.Element
	lru list.List
}

// cacheShards is the engine cache's lock-domain count.
const cacheShards = 16

// estimateCache is a sharded LRU+TTL cache of travel-time estimates.
// Sharding bounds lock contention under concurrent workers; each shard
// holds at most perShard entries.
type estimateCache struct {
	shards   []cacheShard
	perShard int
	ttl      time.Duration
	size     atomic.Int64

	entriesGauge *obs.Gauge
	hitTotal     *obs.Counter
	missTotal    *obs.Counter
	evictLRU     *obs.Counter
	evictTTL     *obs.Counter
	evictStale   *obs.Counter
}

// newEstimateCache sizes the cache for capacity total entries across
// shards (shards is rounded up to a power of two).
func newEstimateCache(capacity, shards int, ttl time.Duration, reg *obs.Registry) *estimateCache {
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	if capacity < shards {
		capacity = shards
	}
	c := &estimateCache{
		shards:   make([]cacheShard, shards),
		perShard: (capacity + shards - 1) / shards,
		ttl:      ttl,

		entriesGauge: reg.Gauge("tte_infer_cache_entries"),
		hitTotal:     reg.Counter("tte_infer_cache_events_total", "event", "hit"),
		missTotal:    reg.Counter("tte_infer_cache_events_total", "event", "miss"),
		evictLRU:     reg.Counter("tte_infer_cache_events_total", "event", "evict_lru"),
		evictTTL:     reg.Counter("tte_infer_cache_events_total", "event", "evict_ttl"),
		evictStale:   reg.Counter("tte_infer_cache_events_total", "event", "evict_stale"),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*list.Element, c.perShard)
	}
	return c
}

func (c *estimateCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash()&uint64(len(c.shards)-1)]
}

// get returns the cached estimate for k if it exists, was produced by model
// generation gen, and has not passed its TTL. Entries failing the gen or
// TTL check are removed on the spot (counted as evict_stale / evict_ttl)
// and reported as misses.
func (c *estimateCache) get(k cacheKey, gen uint64, now time.Time) (float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.missTotal.Inc()
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.remove(s, el)
		s.mu.Unlock()
		c.evictStale.Inc()
		c.missTotal.Inc()
		return 0, false
	}
	if now.After(e.expire) {
		c.remove(s, el)
		s.mu.Unlock()
		c.evictTTL.Inc()
		c.missTotal.Inc()
		return 0, false
	}
	s.lru.MoveToFront(el)
	sec := e.sec
	s.mu.Unlock()
	c.hitTotal.Inc()
	return sec, true
}

// put stores an estimate produced by model generation gen, evicting the
// least recently used entry of the shard when it is full.
func (c *estimateCache) put(k cacheKey, sec float64, gen uint64, now time.Time) {
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		e := el.Value.(*cacheEntry)
		e.sec, e.gen, e.expire = sec, gen, now.Add(c.ttl)
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	el := s.lru.PushFront(&cacheEntry{key: k, sec: sec, gen: gen, expire: now.Add(c.ttl)})
	s.m[k] = el
	c.size.Add(1)
	var evicted bool
	if s.lru.Len() > c.perShard {
		c.remove(s, s.lru.Back())
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictLRU.Inc()
	}
	c.entriesGauge.Set(float64(c.size.Load()))
}

// remove unlinks el from its shard. The shard lock must be held.
func (c *estimateCache) remove(s *cacheShard, el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(s.m, e.key)
	s.lru.Remove(el)
	c.size.Add(-1)
	c.entriesGauge.Set(float64(c.size.Load()))
}

// len returns the total number of live entries (including any not yet
// expired-on-read); for tests and the entries gauge.
func (c *estimateCache) len() int { return int(c.size.Load()) }
