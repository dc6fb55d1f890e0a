package infer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	r2, err := e.Do(context.Background(), od(1.2, 1.2, 5.2, 5.2, 700))
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
	// Same cells + slot: cache hit, still one event.
	if _, err := e.Do(context.Background(), od(1.2, 1.2, 5.2, 5.2, 700)); err != nil {
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

// TestPredictionStampDisabledOverhead gates what an answered estimate pays
// for stamping when no observer is wired: the hand-off reads no clock,
// copies the event to no one and hands back no prediction ID.
func TestPredictionStampDisabledOverhead(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	ev := ServeEvent{OD: od(1, 1, 5, 5, 600), Seconds: 42, SnapshotID: "m1", Generation: 1}
	if r, err := e.answer(context.Background(), time.Time{}, &ev); err != nil || r.Seconds != 42 || r.PredictionID != "" {
		t.Fatalf("answer with no observer = %+v, %v; want 42 s and no ID", r, err)
	}
	var sink atomic.Uint64
	gateDisabledPath(t, "stamp", 50*time.Nanosecond, func(n int) {
		var unstamped uint64
		for i := 0; i < n; i++ {
			if r, _ := e.answer(context.Background(), time.Time{}, &ev); r.PredictionID == "" {
				unstamped++
			}
		}
		sink.Store(unstamped)
	})
}

// TestFlightDisabledOverhead gates what a shed or failed request pays for
// capture when no observer (so no flight recorder) is wired: the error
// goes straight back with no clock read and no event copy.
func TestFlightDisabledOverhead(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	ev := ServeEvent{OD: od(1, 1, 5, 5, 600), Err: ErrOverloaded, Generation: 1}
	if _, err := e.answer(context.Background(), time.Time{}, &ev); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("answer on a shed event = %v, want ErrOverloaded", err)
	}
	var sink atomic.Uint64
	gateDisabledPath(t, "flight", 50*time.Nanosecond, func(n int) {
		var shed uint64
		for i := 0; i < n; i++ {
			if _, err := e.answer(context.Background(), time.Time{}, &ev); err != nil {
				shed++
			}
		}
		sink.Store(shed)
	})
}

// TestDisabledPathOverhead gates what the other optional serve-path hooks
// cost when they are off: the traffic epoch with no source, and the
// per-request SLO accounting (one uncontended atomic add, the shed-rate
// SLO's denominator — the burn-rate pipeline itself runs on the
// evaluator's goroutine, never on a request).
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

// gateDisabledPath fails t unless run(1) allocates nothing and the best of
// five benchmark runs of run(b.N) stays within bound per call. The bounds
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
		r := testing.Benchmark(func(b *testing.B) { run(b.N) })
		if d := time.Duration(r.NsPerOp()); d < best {
			best = d
		}
	}
	if best > bound {
		t.Fatalf("disabled %s overhead = %v per request, want <= %v", name, best, bound)
	}
	t.Logf("disabled %s overhead: %v per request", name, best)
}
