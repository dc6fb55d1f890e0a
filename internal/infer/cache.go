package infer

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"deepod/internal/obs"
	"deepod/internal/traj"
)

// An estimate is cached under the request exactly as the model sees it.
// DeepOD answers a function of the exact endpoints (matched onto edges and
// position ratios), the exact departure time (its slot and the remainder
// within it) and the external bundle (weather and speed matrix), so a hit
// needs every one of those inputs to agree bit for bit, and returns the
// bits an uncached engine would compute. The speed matrix is compared by
// identity on the entry rather than held in the key (see gridOf): a key
// free of pointers costs the miss path no GC write barriers as it is
// copied into jobs, entries and the map.

// cacheKey is the pointer-free part of a request's cache identity. epoch
// is the traffic epoch the estimate was computed under (always 0 without a
// traffic source): when live conditions shift enough to bump the epoch,
// every earlier entry silently misses.
type cacheKey struct {
	// ox, oy, dx, dy and depart are the math.Float64bits of the request's
	// origin, destination and departure.
	ox, oy, dx, dy, depart uint64
	// weather is the bundle's weather id with bit 32 set, 0 without a
	// bundle: a nil bundle and weather 0 are different inputs to the model.
	weather uint64
	epoch   uint64
}

// keyOf builds od's cache key under the traffic epoch.
func keyOf(od traj.ODInput, epoch uint64) cacheKey {
	k := cacheKey{
		ox:     math.Float64bits(od.Origin.X),
		oy:     math.Float64bits(od.Origin.Y),
		dx:     math.Float64bits(od.Dest.X),
		dy:     math.Float64bits(od.Dest.Y),
		depart: math.Float64bits(od.DepartSec),
		epoch:  epoch,
	}
	if od.External != nil {
		k.weather = 1<<32 | uint64(uint32(od.External.Weather))
	}
	return k
}

// gridOf is a bundle's speed matrix by the identity of its backing array
// (&SpeedGrid[0]; nil without one), the identity core's traffic-code memo
// keys on: traj.ExternalFeatures makes the matrix read-only once handed
// out, and an entry holding the pointer keeps the array alive, so its
// address cannot be reused while the entry lives.
func gridOf(ext *traj.ExternalFeatures) *float64 {
	if ext == nil || len(ext.SpeedGrid) == 0 {
		return nil
	}
	return &ext.SpeedGrid[0]
}

// hash picks the key's shard: a multiply per whole 8-byte word, then the
// murmur3 finalizer, so the low bits the shard mask keeps depend on every
// bit (a round coordinate's mantissa ends in zeros).
func (k cacheKey) hash() uint64 {
	h := k.epoch
	for _, w := range [...]uint64{k.ox, k.oy, k.dx, k.dy, k.depart, k.weather} {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// cacheEntry is one cached estimate. gen records which model snapshot
// produced it: entries from a superseded snapshot are treated as misses and
// dropped, so a hot reload implicitly invalidates the whole cache without
// stalling traffic to sweep it. grid is the speed matrix it was computed
// with (gridOf).
type cacheEntry struct {
	key    cacheKey
	grid   *float64
	sec    float64
	gen    uint64
	expire time.Time
}

// cacheShard is one lock domain of the cache: a map from a key's hash to
// its entry's element, plus an LRU list (front = most recently used) for
// eviction order. An 8-byte map key keeps the table a quarter the size of
// one keyed by the whole cacheKey; a hit still needs the entry's key to
// equal the request's, so two keys whose hashes collide share one slot,
// the later fill replacing the earlier.
type cacheShard struct {
	mu  sync.Mutex
	m   map[uint64]*list.Element
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
		c.shards[i].m = make(map[uint64]*list.Element, c.perShard)
	}
	return c
}

// shard is the lock domain of a key whose hash is h.
func (c *estimateCache) shard(h uint64) *cacheShard {
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// get returns the cached estimate for k if it exists, was computed with
// speed matrix grid by model generation gen, and has not passed its TTL.
// Entries failing the gen or TTL check are removed on the spot (counted as
// evict_stale / evict_ttl) and reported as misses; one computed with
// another matrix is a miss its fill replaces.
func (c *estimateCache) get(k cacheKey, grid *float64, gen uint64, now time.Time) (float64, bool) {
	h := k.hash()
	s := c.shard(h)
	s.mu.Lock()
	el, ok := s.m[h]
	var e *cacheEntry
	if ok {
		e = el.Value.(*cacheEntry)
	}
	if !ok || e.key != k { // absent, or another key with the same hash
		s.mu.Unlock()
		c.missTotal.Inc()
		return 0, false
	}
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
	if e.grid != grid {
		s.mu.Unlock()
		c.missTotal.Inc()
		return 0, false
	}
	s.lru.MoveToFront(el)
	sec := e.sec
	s.mu.Unlock()
	c.hitTotal.Inc()
	return sec, true
}

// put stores an estimate computed with speed matrix grid by model
// generation gen. When the shard is full, its least recently used entry is
// rewritten in place as this one and moved to the front: such a fill
// allocates nothing, and the size and the entries gauge stay as they are.
func (c *estimateCache) put(k cacheKey, grid *float64, sec float64, gen uint64, now time.Time) {
	h := k.hash()
	s := c.shard(h)
	s.mu.Lock()
	e := cacheEntry{key: k, grid: grid, sec: sec, gen: gen, expire: now.Add(c.ttl)}
	if el, ok := s.m[h]; ok {
		*el.Value.(*cacheEntry) = e
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.lru.Len() >= c.perShard {
		el := s.lru.Back()
		victim := el.Value.(*cacheEntry)
		delete(s.m, victim.key.hash())
		*victim = e
		s.m[h] = el
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.evictLRU.Inc()
		return
	}
	fresh := new(cacheEntry)
	*fresh = e
	s.m[h] = s.lru.PushFront(fresh)
	s.mu.Unlock()
	c.entriesGauge.Set(float64(c.size.Add(1)))
}

// remove unlinks el from its shard. The shard lock must be held.
func (c *estimateCache) remove(s *cacheShard, el *list.Element) {
	delete(s.m, el.Value.(*cacheEntry).key.hash())
	s.lru.Remove(el)
	c.entriesGauge.Set(float64(c.size.Add(-1)))
}

// len returns the total number of live entries (including any not yet
// expired-on-read); for tests and the entries gauge.
func (c *estimateCache) len() int { return int(c.size.Load()) }
