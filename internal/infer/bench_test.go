package infer

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/obs"
	"deepod/internal/traj"
)

// benchEstimate burns a few microseconds of pure float math, standing in
// for a model forward pass so the benchmarks compare serving overheads
// (queueing, batching, caching) against a realistic per-request cost
// without building a road network.
func benchEstimate(_ context.Context, m *traj.MatchedOD) float64 {
	x := 1.0 + m.DepartSec
	for i := 0; i < 2000; i++ {
		x += 1.0 / x
	}
	return x
}

// benchWorkload is a fixed cycle of distinct ODs, the repeated-OD traffic
// shape the cache is designed for.
func benchWorkload(n int) []traj.ODInput {
	ods := make([]traj.ODInput, n)
	for i := range ods {
		ods[i] = od(float64(i%17), float64(i%23), float64(3+i%13), float64(5+i%7), float64(60*(i%12)))
	}
	return ods
}

func benchEngine(b *testing.B, cacheEntries int) *Engine {
	b.Helper()
	e, err := New(Config{
		Match:        okMatch,
		Snapshot:     &Snapshot{ID: "bench", Estimate: benchEstimate},
		Workers:      runtime.GOMAXPROCS(0),
		QueueDepth:   4096,
		MaxBatch:     16,
		QueueTimeout: time.Minute,
		CacheEntries: cacheEntries,
		CacheTTL:     time.Hour,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e
}

// directSink keeps BenchmarkDirect's estimates alive: unused, the compiler
// deletes benchEstimate's loop and the benchmark times an atomic add.
var directSink atomic.Uint64

// BenchmarkDirect is the floor under BenchmarkEngineNoCache: one synchronous
// match+estimate per request on the caller's goroutine, no engine. The gap
// between the two is what admission, spans and the guard cost.
func BenchmarkDirect(b *testing.B) {
	ods := benchWorkload(64)
	var next atomic.Int64
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var sum float64
		for pb.Next() {
			in := ods[int(next.Add(1))%len(ods)]
			matched, err := okMatch(ctx, in)
			if err != nil {
				b.Fatal(err)
			}
			sum += benchEstimate(ctx, &matched)
		}
		directSink.Store(math.Float64bits(sum))
	})
}

// BenchmarkEngineNoCache measures the engine's admission overhead with the
// cache disabled: every request pays the full estimate.
func BenchmarkEngineNoCache(b *testing.B) {
	e := benchEngine(b, 0)
	ods := benchWorkload(64)
	var next atomic.Int64
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Do(ctx, ods[int(next.Add(1))%len(ods)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineOversubscribed is BenchmarkEngineNoCache with eight
// callers per P, so callers outnumber Workers and misses queue: the drain is
// what serves them, a batch to a slot hand-over.
func BenchmarkEngineOversubscribed(b *testing.B) {
	e := benchEngine(b, 0)
	ods := benchWorkload(64)
	var next atomic.Int64
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Do(ctx, ods[int(next.Add(1))%len(ods)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineCached is the full engine on the repeated-OD workload:
// after one cold pass the 64 distinct keys are resident, so nearly every
// request is a cache hit.
func BenchmarkEngineCached(b *testing.B) {
	e := benchEngine(b, 4096)
	ods := benchWorkload(64)
	var next atomic.Int64
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Do(ctx, ods[int(next.Add(1))%len(ods)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheGet isolates the sharded cache's hot read path.
func BenchmarkCacheGet(b *testing.B) {
	c := newEstimateCache(4096, 16, time.Hour, obs.NewRegistry())
	now := time.Unix(1700000000, 0)
	keys := make([]cacheKey, 1024)
	for i := range keys {
		keys[i] = k(i, i*3, i%288)
		c.put(keys[i], nil, float64(i), 1, now)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.get(keys[int(next.Add(1))%len(keys)], nil, 1, now)
		}
	})
}
