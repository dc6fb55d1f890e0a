package infer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deepod/internal/obs"
)

var cacheEpoch = time.Unix(1700000000, 0)

// k is the key of a request from (o, 0) to (d, 0) departing at the start
// of 5-minute slot number slot.
func k(o, d, slot int) cacheKey { return keyOf(od(float64(o), 0, float64(d), 0, float64(300*slot)), 0) }

// newTestCache builds a single-shard cache so eviction order is
// observable, with its own registry for counter assertions.
func newTestCache(capacity int, ttl time.Duration) (*estimateCache, *obs.Registry) {
	reg := obs.NewRegistry()
	return newEstimateCache(capacity, 1, ttl, reg), reg
}

func TestCacheHitAndMiss(t *testing.T) {
	c, _ := newTestCache(4, time.Minute)
	now := cacheEpoch
	if _, ok := c.get(k(1, 2, 3), nil, 1, now); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(k(1, 2, 3), nil, 42, 1, now)
	sec, ok := c.get(k(1, 2, 3), nil, 1, now.Add(time.Second))
	if !ok || sec != 42 {
		t.Fatalf("get = %v, %v; want 42, true", sec, ok)
	}
	if c.hitTotal.Value() != 1 || c.missTotal.Value() != 1 {
		t.Fatalf("counters hit=%d miss=%d, want 1/1", c.hitTotal.Value(), c.missTotal.Value())
	}
	// The same key computed with another speed matrix is a miss, and its
	// fill replaces the entry.
	grid := []float64{3}
	if _, ok := c.get(k(1, 2, 3), &grid[0], 1, now); ok {
		t.Fatal("an entry computed with another speed matrix was served")
	}
	c.put(k(1, 2, 3), &grid[0], 43, 1, now)
	if sec, ok := c.get(k(1, 2, 3), &grid[0], 1, now); !ok || sec != 43 || c.len() != 1 {
		t.Fatalf("get = %v, %v with %d entries; want 43, true with 1", sec, ok, c.len())
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c, _ := newTestCache(2, time.Minute)
	now := cacheEpoch
	c.put(k(1, 0, 0), nil, 1, 1, now)
	c.put(k(2, 0, 0), nil, 2, 1, now)
	// Touch k1 so k2 becomes the least recently used.
	if _, ok := c.get(k(1, 0, 0), nil, 1, now); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.put(k(3, 0, 0), nil, 3, 1, now)
	if _, ok := c.get(k(2, 0, 0), nil, 1, now); ok {
		t.Fatal("k2 survived eviction; LRU order wrong")
	}
	if _, ok := c.get(k(1, 0, 0), nil, 1, now); !ok {
		t.Fatal("k1 (recently used) was evicted")
	}
	if _, ok := c.get(k(3, 0, 0), nil, 1, now); !ok {
		t.Fatal("k3 (just inserted) missing")
	}
	if c.evictLRU.Value() != 1 {
		t.Fatalf("evict_lru = %d, want 1", c.evictLRU.Value())
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestCacheTTLExpiry covers the satellite's "TTL expiry across a slot
// boundary": an entry keyed to one time slot must stop being served once
// its TTL passes, even though later requests in the *same* slot would
// still produce the same key.
func TestCacheTTLExpiry(t *testing.T) {
	ttl := 2 * time.Minute
	c, _ := newTestCache(4, ttl)
	now := cacheEpoch
	slotKey := k(1, 2, 7) // one fixed (origin, dest, slot) identity
	c.put(slotKey, nil, 99, 1, now)
	if _, ok := c.get(slotKey, nil, 1, now.Add(ttl-time.Second)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	// Past the TTL — same slot key, but the estimate is now stale.
	if _, ok := c.get(slotKey, nil, 1, now.Add(ttl+time.Second)); ok {
		t.Fatal("entry served after its TTL")
	}
	if c.evictTTL.Value() != 1 {
		t.Fatalf("evict_ttl = %d, want 1", c.evictTTL.Value())
	}
	if c.len() != 0 {
		t.Fatalf("expired entry still resident: len = %d", c.len())
	}
	// Re-inserting after expiry works and refreshes the deadline.
	c.put(slotKey, nil, 100, 1, now.Add(ttl+2*time.Second))
	if sec, ok := c.get(slotKey, nil, 1, now.Add(ttl+3*time.Second)); !ok || sec != 100 {
		t.Fatalf("re-inserted entry: %v, %v; want 100, true", sec, ok)
	}
}

func TestCacheStaleGenerationInvalidated(t *testing.T) {
	c, _ := newTestCache(4, time.Minute)
	now := cacheEpoch
	c.put(k(1, 2, 3), nil, 111, 1, now)
	// Model reloaded: generation moved to 2. The old estimate must not
	// be served, and the entry is dropped on the spot.
	if _, ok := c.get(k(1, 2, 3), nil, 2, now); ok {
		t.Fatal("stale-generation entry was served after reload")
	}
	if c.evictStale.Value() != 1 {
		t.Fatalf("evict_stale = %d, want 1", c.evictStale.Value())
	}
	if c.len() != 0 {
		t.Fatalf("stale entry still resident: len = %d", c.len())
	}
}

func TestCachePutUpdatesExisting(t *testing.T) {
	c, _ := newTestCache(2, time.Minute)
	now := cacheEpoch
	c.put(k(1, 0, 0), nil, 1, 1, now)
	c.put(k(1, 0, 0), nil, 5, 2, now)
	if c.len() != 1 {
		t.Fatalf("duplicate key grew the cache: len = %d", c.len())
	}
	if sec, ok := c.get(k(1, 0, 0), nil, 2, now); !ok || sec != 5 {
		t.Fatalf("updated entry = %v, %v; want 5, true", sec, ok)
	}
}

// TestCacheHashCollision: the shard map is keyed by a key's 64-bit hash,
// so two keys can meet in one slot. A key whose slot holds another key's
// entry misses, and its fill replaces that entry; neither key is ever
// answered with the other's estimate. A real collision is planted by
// filing a's element under b's hash.
func TestCacheHashCollision(t *testing.T) {
	c, _ := newTestCache(4, time.Minute)
	now := cacheEpoch
	a, b := k(1, 2, 3), k(4, 5, 6)
	c.put(a, nil, 42, 1, now)
	s := c.shard(a.hash())
	s.m[b.hash()] = s.m[a.hash()]
	delete(s.m, a.hash())
	if sec, ok := c.get(b, nil, 1, now); ok {
		t.Fatalf("b got a's estimate %v", sec)
	}
	c.put(b, nil, 7, 1, now)
	if sec, ok := c.get(b, nil, 1, now); !ok || sec != 7 {
		t.Fatalf("b after its fill = %v, %v; want 7, true", sec, ok)
	}
	if _, ok := c.get(a, nil, 1, now); ok {
		t.Fatal("a still hits after b replaced it")
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.len())
	}
}

func TestCacheSharding(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEstimateCache(1024, 5, time.Minute, reg) // rounds up to 8 shards
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8 (next power of two)", len(c.shards))
	}
	now := cacheEpoch
	for i := 0; i < 64; i++ {
		c.put(k(i, i*7, i*13), nil, float64(i), 1, now)
	}
	for i := 0; i < 64; i++ {
		if sec, ok := c.get(k(i, i*7, i*13), nil, 1, now); !ok || sec != float64(i) {
			t.Fatalf("key %d: got %v, %v", i, sec, ok)
		}
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEstimateCache(128, 8, time.Minute, reg)
	now := cacheEpoch
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := k(i%32, w, i%11)
				c.put(key, nil, float64(i), uint64(1+i%2), now.Add(time.Duration(i)*time.Millisecond))
				c.get(key, nil, uint64(1+(i+1)%2), now.Add(time.Duration(i)*time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	if c.len() < 0 || c.len() > 128+8 {
		t.Fatalf("cache size drifted out of bounds: %d", c.len())
	}
}

func TestCacheKeyHashSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[k(i, 2*i, 3*i).hash()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("hash collapsed: %d distinct hashes of 100 keys", len(seen))
	}
	if k(1, 2, 3).hash() == k(2, 1, 3).hash() {
		t.Fatal("origin/dest swap collides")
	}
	// Round coordinates end their mantissas in zeros; the shard mask keeps
	// the low bits, so they must still reach every shard.
	shards := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		key := keyOf(od(250*float64(i), 500, 1000, 250*float64(i%4), 1800), 0)
		shards[key.hash()&(cacheShards-1)] = true
	}
	if len(shards) != cacheShards {
		t.Fatalf("64 round-coordinate keys reach %d of %d shards", len(shards), cacheShards)
	}
	_ = fmt.Sprintf("%v", k(1, 2, 3)) // keys must be printable for debugging
}
