package infer

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/traj"
)

// stubTraffic is a controllable TrafficSource: External returns a bundle
// whose SpeedGrid[0] holds `speed`, and Epoch is settable.
type stubTraffic struct {
	epoch atomic.Uint64
	speed atomic.Uint64 // float64 bits
	calls atomic.Uint64
}

func (s *stubTraffic) Epoch() uint64 { return s.epoch.Load() }

func (s *stubTraffic) External(departSec float64) (*traj.ExternalFeatures, bool) {
	s.calls.Add(1)
	return &traj.ExternalFeatures{
		SpeedGrid: []float64{math.Float64frombits(s.speed.Load())},
		GridRows:  1, GridCols: 1,
	}, true
}

// TestTrafficExternalOverride: with a traffic source bound, the worker must
// hand the model the live features, not whatever the request carried.
func TestTrafficExternalOverride(t *testing.T) {
	src := &stubTraffic{}
	src.speed.Store(math.Float64bits(7))
	// The snapshot answers with the live speed it sees, proving the
	// override reached the model.
	snap := &Snapshot{ID: "live", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		if m.External == nil || len(m.External.SpeedGrid) == 0 {
			return -1
		}
		return m.External.SpeedGrid[0]
	}}
	cfg := testConfig(t, snap)
	cfg.CacheEntries = 0
	cfg.Traffic = src
	e := newTestEngine(t, cfg)

	in := od(1, 1, 5, 5, 600)
	in.External = &traj.ExternalFeatures{SpeedGrid: []float64{999}, GridRows: 1, GridCols: 1}
	r, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds != 7 {
		t.Fatalf("estimate = %v, want the live feature value 7", r.Seconds)
	}
	if src.calls.Load() == 0 {
		t.Fatal("traffic source never consulted")
	}

	// The live view changes; the next uncached estimate must see it.
	src.speed.Store(math.Float64bits(3))
	r, err = e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds != 3 {
		t.Fatalf("estimate = %v after live shift, want 3", r.Seconds)
	}
}

// TestTrafficEpochInvalidatesCache: cached estimates must stop being served
// the moment the traffic epoch bumps — without any model reload.
func TestTrafficEpochInvalidatesCache(t *testing.T) {
	src := &stubTraffic{}
	src.speed.Store(math.Float64bits(10))
	snap := &Snapshot{ID: "live", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		return m.External.SpeedGrid[0]
	}}
	cfg := testConfig(t, snap)
	cfg.Traffic = src
	e := newTestEngine(t, cfg)

	in := od(1, 1, 5, 5, 600)
	r1, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Seconds != r1.Seconds {
		t.Fatalf("second identical request not served from cache: %+v", r2)
	}

	// Conditions shift: epoch bump + new live speeds. Same OD, same slot —
	// but the cached pre-shift entry must not be served.
	src.epoch.Add(1)
	src.speed.Store(math.Float64bits(4))
	r3, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("pre-shift estimate served from cache after an epoch bump")
	}
	if r3.Seconds != 4 {
		t.Fatalf("post-shift estimate = %v, want 4", r3.Seconds)
	}
	if e.Stats().Reloads != 0 {
		t.Fatal("epoch invalidation must not involve a reload")
	}

	// Within the new epoch the cache works again.
	r4, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cached || r4.Seconds != 4 {
		t.Fatalf("post-shift request not cached: %+v", r4)
	}
}

// TestTrafficEpochShiftDuringForward: an answer is filed in the cache under
// the epoch the worker read beside the features, not under whatever the
// epoch is once the forward returns. Here the regime shifts inside Estimate;
// the old-features answer must not be served to the next request, which
// arrives under the new epoch.
func TestTrafficEpochShiftDuringForward(t *testing.T) {
	src := &stubTraffic{}
	src.speed.Store(math.Float64bits(10))
	var shifted atomic.Bool
	snap := &Snapshot{ID: "live", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		if shifted.CompareAndSwap(false, true) {
			src.epoch.Add(1)
			src.speed.Store(math.Float64bits(4))
		}
		return m.External.SpeedGrid[0]
	}}
	cfg := testConfig(t, snap)
	cfg.Traffic = src
	e := newTestEngine(t, cfg)

	in := od(1, 1, 5, 5, 600)
	r1, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Seconds != 10 {
		t.Fatalf("first estimate = %+v, want 10 computed from the pre-shift features", r1)
	}
	r2, err := e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached || r2.Seconds != 4 {
		t.Fatalf("post-shift request = %+v, want a fresh 4: the pre-shift answer was filed under the new epoch", r2)
	}
	// The pre-shift answer sits under epoch 0 and the fresh one under epoch 1.
	if r3, err := e.Do(context.Background(), in); err != nil || !r3.Cached || r3.Seconds != 4 {
		t.Fatalf("third request = %+v, %v, want the cached 4", r3, err)
	}
}

func TestTrafficVersionReporting(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	if v := e.Version(); v["traffic"] != "disabled" {
		t.Fatalf("traffic = %v without a source", v["traffic"])
	}
	src := &stubTraffic{}
	src.epoch.Store(5)
	cfg := testConfig(t, constSnapshot("m2", 42))
	cfg.Traffic = src
	e2 := newTestEngine(t, cfg)
	v := e2.Version()
	if v["traffic"] != "live" || v["traffic_epoch"] != uint64(5) {
		t.Fatalf("traffic version = %v / %v", v["traffic"], v["traffic_epoch"])
	}
}

// TestTrafficDisabledOverhead gates the cost the traffic channel adds to
// the serve path when it is not configured: the epoch lookup with a nil
// source must stay a nanosecond-scale nil check.
func TestTrafficDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	var sink atomic.Uint64

	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		r := testing.Benchmark(func(b *testing.B) {
			var n uint64
			for i := 0; i < b.N; i++ {
				n += e.trafficEpoch()
			}
			sink.Store(n)
		})
		if d := time.Duration(r.NsPerOp()); d < best {
			best = d
		}
	}
	const bound = 50 * time.Nanosecond
	if best > bound {
		t.Fatalf("disabled traffic overhead = %v per estimate, want <= %v", best, bound)
	}
	t.Logf("disabled traffic overhead: %v per estimate", best)
}
