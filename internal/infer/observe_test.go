package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/geo"
	"deepod/internal/traj"
)

// stubObserver keeps every event it is handed and, like quality.Monitor,
// hands out an ID for every answered one.
type stubObserver struct {
	mu     sync.Mutex
	seq    int
	events []ServeEvent
}

func (o *stubObserver) ObserveServe(_ context.Context, ev ServeEvent) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, ev)
	if ev.Err != nil {
		return ""
	}
	o.seq++
	return fmt.Sprintf("p-%d", o.seq)
}

func (o *stubObserver) all() []ServeEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]ServeEvent(nil), o.events...)
}

func TestPredictionStamping(t *testing.T) {
	rec := &stubObserver{}
	cfg := testConfig(t, constSnapshot("m1", 42))
	cfg.Observers = []Observer{rec}
	e := newTestEngine(t, cfg)

	r1, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	if r1.PredictionID != "p-1" {
		t.Fatalf("worker-path result = %+v, want prediction p-1", r1)
	}
	// A cache hit is still a served prediction: it gets its own fresh ID.
	r2, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.PredictionID != "p-2" {
		t.Fatalf("cache-hit result = %+v, want cached with prediction p-2", r2)
	}

	evs := rec.all()
	if len(evs) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Seconds != 42 || ev.SnapshotID != "m1" || ev.Generation == 0 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if evs[0].Generation != evs[1].Generation {
		t.Fatalf("generations diverged without a swap: %+v", evs)
	}
}

// After a hot reload the stamp carries the new snapshot and generation, so
// late feedback for pre-swap predictions still attributes to the old model.
func TestPredictionStampingAcrossSwap(t *testing.T) {
	rec := &stubObserver{}
	cfg := testConfig(t, constSnapshot("m1", 42))
	cfg.CacheEntries = 0 // force an execution both times
	cfg.Observers = []Observer{rec}
	e := newTestEngine(t, cfg)

	if _, err := e.Do(context.Background(), od(1, 1, 5, 5, 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapCtx(context.Background(), constSnapshot("m2", 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), od(1, 1, 5, 5, 600)); err != nil {
		t.Fatal(err)
	}

	evs := rec.all()
	if len(evs) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(evs))
	}
	before, after := evs[0], evs[1]
	if before.SnapshotID != "m1" || after.SnapshotID != "m2" {
		t.Fatalf("snapshots = %q, %q", before.SnapshotID, after.SnapshotID)
	}
	if after.Generation != before.Generation+1 {
		t.Fatalf("generations = %d, %d; want +1 across the swap", before.Generation, after.Generation)
	}
}

func TestNoRecorderMeansNoID(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	r, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	if r.PredictionID != "" {
		t.Fatalf("prediction ID %q without an observer", r.PredictionID)
	}
}

// silentObserver keeps every event and never hands out an ID, like
// recorder.Recorder.
type silentObserver struct{ stubObserver }

func (o *silentObserver) ObserveServe(ctx context.Context, ev ServeEvent) string {
	o.stubObserver.ObserveServe(ctx, ev)
	return ""
}

// TestObserversInOrder: every observer sees the same event once per Do,
// in configuration order, and the first non-empty ID is the one echoed.
func TestObserversInOrder(t *testing.T) {
	silent, first, second := &silentObserver{}, &stubObserver{}, &stubObserver{}
	second.seq = 100
	cfg := testConfig(t, constSnapshot("m1", 42))
	cfg.Observers = []Observer{silent, first, second}
	e := newTestEngine(t, cfg)

	r, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil || r.PredictionID != "p-1" {
		t.Fatalf("Do = %+v, %v; want the first non-empty ID p-1", r, err)
	}
	for i, evs := range [][]ServeEvent{silent.all(), first.all(), second.all()} {
		if len(evs) != 1 || evs[0] != silent.all()[0] {
			t.Fatalf("observer %d saw %+v, want the one event every observer sees", i, evs)
		}
	}
}

// TestFlightCapturesServePaths: one wide event per Do call, on the worker
// path, the cache-hit path, and error paths alike, carrying the facts
// replay needs (estimate, snapshot, generation, cached flag, latency).
func TestFlightCapturesServePaths(t *testing.T) {
	fl := &stubObserver{}
	cfg := testConfig(t, constSnapshot("m1", 42))
	cfg.Observers = []Observer{fl}
	e := newTestEngine(t, cfg)

	if _, err := e.Do(context.Background(), od(1, 1, 5, 5, 600)); err != nil {
		t.Fatal(err)
	}
	// The same request: cache hit, still one event.
	if _, err := e.Do(context.Background(), od(1, 1, 5, 5, 600)); err != nil {
		t.Fatal(err)
	}
	// Invalid input: the error must be captured too.
	if _, err := e.Do(context.Background(), od(1, 1, 5, 5, -10)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("err = %v, want ErrInvalidInput", err)
	}

	evs := fl.all()
	if len(evs) != 3 {
		t.Fatalf("captured %d events, want 3", len(evs))
	}
	worker, hit, bad := evs[0], evs[1], evs[2]
	if worker.Seconds != 42 || worker.Cached || worker.SnapshotID != "m1" ||
		worker.Generation == 0 || worker.Err != nil {
		t.Fatalf("worker event = %+v", worker)
	}
	if worker.Latency <= 0 {
		t.Fatalf("worker event latency = %v, want > 0", worker.Latency)
	}
	if !hit.Cached || hit.Seconds != 42 || hit.SnapshotID != "m1" {
		t.Fatalf("cache-hit event = %+v", hit)
	}
	if !errors.Is(bad.Err, ErrInvalidInput) || bad.Seconds != 0 {
		t.Fatalf("invalid-input event = %+v", bad)
	}
	if bad.OD.DepartSec != -10 {
		t.Fatalf("invalid-input event OD = %+v, want the raw request", bad.OD)
	}
}

// countCells is gridQuantizer counting its calls.
type countCells struct{ calls *atomic.Int64 }

func (c countCells) CellIndex(p geo.Point) int {
	c.calls.Add(1)
	return gridQuantizer{}.CellIndex(p)
}

// TestEventQuantization: the engine stamps each observed event with its
// request's grid cells and slot, once for every observer, and a cache hit
// without observers quantizes nothing. A rejected input carries -1 for all
// three and never reaches the quantizers: Slotter.Slot panics on a negative
// departure. Without quantizers every event carries -1.
func TestEventQuantization(t *testing.T) {
	var calls atomic.Int64
	first, second := &stubObserver{}, &stubObserver{}
	cfg := testConfig(t, constSnapshot("m1", 42))
	cfg.Cells = countCells{&calls}
	cfg.Observers = []Observer{first, second}
	e := newTestEngine(t, cfg)

	ctx := context.Background()
	for _, in := range []traj.ODInput{od(1, 1, 5, 5, 600), od(1, 1, 5, 5, 600), od(math.NaN(), 1, 5, 5, 600), od(1, 1, 5, 5, -1)} {
		_, _ = e.Do(ctx, in)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d CellIndex calls for two valid requests and two observers, want 4", got)
	}
	evs := first.all()
	if len(evs) != 4 {
		t.Fatalf("observer saw %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if o := second.all()[i]; ev.OriginCell != o.OriginCell || ev.DestCell != o.DestCell || ev.Slot != o.Slot {
			t.Fatalf("event %d: observers saw %+v and %+v", i, ev, o)
		}
	}
	// 5-minute slots, so DepartSec 600 → slot 2; unit cells on integer
	// coordinates, so (1, 1) → 1001 and (5, 5) → 5005.
	for _, ev := range evs[:2] {
		if ev.Err != nil || ev.OriginCell != 1001 || ev.DestCell != 5005 || ev.Slot != 2 {
			t.Fatalf("served event = %+v, want cells 1001/5005 slot 2", ev)
		}
	}
	if !evs[1].Cached {
		t.Fatalf("repeat = %+v, want a cache hit", evs[1])
	}
	for _, ev := range evs[2:] {
		if !errors.Is(ev.Err, ErrInvalidInput) || ev.OriginCell != -1 || ev.DestCell != -1 || ev.Slot != -1 {
			t.Fatalf("rejected event = %+v, want -1 cells and slot", ev)
		}
	}

	cfg.Observers = nil
	calls.Store(0)
	quiet := newTestEngine(t, cfg)
	for i := 0; i < 2; i++ {
		if _, err := quiet.Do(ctx, od(1, 1, 5, 5, 600)); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("%d CellIndex calls without observers, want 0", got)
	}

	bare := &stubObserver{}
	cfg = testConfig(t, constSnapshot("m1", 42))
	cfg.Cells, cfg.Slotter, cfg.Observers = nil, nil, []Observer{bare}
	if _, err := newTestEngine(t, cfg).Do(ctx, od(1, 1, 5, 5, 600)); err != nil {
		t.Fatal(err)
	}
	if ev := bare.all()[0]; ev.OriginCell != -1 || ev.DestCell != -1 || ev.Slot != -1 {
		t.Fatalf("event without quantizers = %+v, want -1 cells and slot", ev)
	}
}

// TestFlightCapturesShed: a queue-full shed leaves a wide event carrying
// ErrOverloaded — errors and shed requests are the events replay analysis
// needs at 100% capture, so the engine must emit them all.
func TestFlightCapturesShed(t *testing.T) {
	fl := &stubObserver{}
	block := make(chan struct{})
	blockOnce := sync.OnceFunc(func() { close(block) })
	t.Cleanup(blockOnce)
	slow := &Snapshot{ID: "slow", Estimate: func(context.Context, *traj.MatchedOD) float64 {
		<-block
		return 1
	}}
	cfg := testConfig(t, slow)
	cfg.Observers = []Observer{fl}
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.MaxBatch = 1
	cfg.CacheEntries = 0
	e := newTestEngine(t, cfg)

	// One request occupies the single worker; pile on until some shed.
	var wg sync.WaitGroup
	shed := atomic.Int64{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Do(context.Background(), od(1, 1, 5, 5, float64(600+i))); errors.Is(err, ErrOverloaded) {
				shed.Add(1)
			}
		}(i)
	}
	for shed.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	blockOnce()
	wg.Wait()

	evs := fl.all()
	if len(evs) != 8 {
		t.Fatalf("captured %d events for 8 calls, want one each", len(evs))
	}
	var shedEvents int
	for _, ev := range evs {
		if errors.Is(ev.Err, ErrOverloaded) {
			shedEvents++
		}
	}
	if int64(shedEvents) != shed.Load() {
		t.Fatalf("captured %d shed events, want %d", shedEvents, shed.Load())
	}
}

// TestAnswerDisabledOverhead gates what answer costs when no observer is
// wired, for an answered estimate and for a shed one: no clock read, no
// event copy, no prediction ID, and the error (if any) straight back.
func TestAnswerDisabledOverhead(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	for _, c := range []struct {
		name string
		ev   ServeEvent
	}{
		{"answered", ServeEvent{OD: od(1, 1, 5, 5, 600), Seconds: 42, SnapshotID: "m1", Generation: 1}},
		{"shed", ServeEvent{OD: od(1, 1, 5, 5, 600), Err: ErrOverloaded, Generation: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ev := c.ev
			r, err := e.answer(context.Background(), time.Time{}, &ev)
			if err != c.ev.Err || r.Seconds != c.ev.Seconds || r.PredictionID != "" {
				t.Fatalf("answer with no observer = %+v, %v; want %v s, error %v and no ID", r, err, c.ev.Seconds, c.ev.Err)
			}
			var sink atomic.Uint64
			gateDisabledPath(t, c.name, 50*time.Nanosecond, func(n int) {
				var unstamped uint64
				for i := 0; i < n; i++ {
					if r, _ := e.answer(context.Background(), time.Time{}, &ev); r.PredictionID == "" {
						unstamped++
					}
				}
				sink.Store(unstamped)
			})
		})
	}
}

// TestDisabledPathOverhead gates what the other per-request hooks cost: the
// traffic epoch with no source, and the request counter (one uncontended
// atomic add, the shed rule's denominator).
func TestDisabledPathOverhead(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	var sink atomic.Uint64
	for _, c := range []struct {
		name  string
		bound time.Duration
		run   func(n int)
	}{
		{"traffic", 50 * time.Nanosecond, func(n int) {
			var epochs uint64
			for i := 0; i < n; i++ {
				epochs += e.trafficEpoch()
			}
			sink.Store(epochs)
		}},
		{"requests", 100 * time.Nanosecond, func(n int) {
			for i := 0; i < n; i++ {
				e.requests.Inc()
			}
			sink.Store(e.requests.Value())
		}},
	} {
		t.Run(c.name, func(t *testing.T) { gateDisabledPath(t, c.name, c.bound, c.run) })
	}
}

// gateIters is how many calls one timed attempt of a gate makes: a fixed
// count timed by hand takes milliseconds, where a testing.Benchmark at the
// default benchtime takes a second.
const gateIters = 1 << 21

// gateDisabledPath fails t unless run(1) allocates nothing and the best of
// five timed runs of run(gateIters) stays within bound per call. The bounds
// leave slack for noisy CI machines; what they catch is a lock, map
// lookup, interface call or allocation sneaking onto a disabled path.
func gateDisabledPath(t *testing.T, name string, bound time.Duration, run func(n int)) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	if allocs := testing.AllocsPerRun(1000, func() { run(1) }); allocs != 0 {
		t.Fatalf("%s: %v allocs per request, want 0", name, allocs)
	}
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		run(gateIters)
		if d := time.Since(start) / gateIters; d < best {
			best = d
		}
	}
	if best > bound {
		t.Fatalf("disabled %s overhead = %v per request, want <= %v", name, best, bound)
	}
	t.Logf("disabled %s overhead: %v per request", name, best)
}

// TestEngineAllocs counts what one Do allocates with no observers wired. A
// cache hit allocates nothing. A miss (stub match and model, cache off)
// allocates its job alone: the heap home of the pendingJob whose matched OD
// Estimate is handed a pointer to. The spans of an untraced request
// allocate nothing on either path.
func TestEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count, skipped under the race detector")
	}
	for _, c := range []struct {
		name  string
		cache int
		want  float64
	}{
		{"hit", 256, 0},
		{"miss", 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(t, constSnapshot("m1", 42))
			cfg.CacheEntries = c.cache
			e := newTestEngine(t, cfg)
			ctx, in := context.Background(), od(1, 1, 5, 5, 600)
			do := func() {
				if _, err := e.Do(ctx, in); err != nil {
					t.Fatal(err)
				}
			}
			do() // fills the cache for the hit case
			if got := testing.AllocsPerRun(1000, do); got != c.want {
				t.Fatalf("%s: %v allocs per Do, want %v", c.name, got, c.want)
			}
		})
	}
}
