package infer

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/core"
	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// gridQuantizer is a stub Quantizer: unit cells on integer coordinates.
type gridQuantizer struct{}

func (gridQuantizer) CellIndex(p geo.Point) int {
	return int(math.Floor(p.X)) + 1000*int(math.Floor(p.Y))
}

// constSnapshot answers every request with sec.
func constSnapshot(id string, sec float64) *Snapshot {
	return &Snapshot{
		ID:       id,
		Estimate: func(context.Context, *traj.MatchedOD) float64 { return sec },
	}
}

// okMatch matches everything, carrying the departure through.
func okMatch(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
	return traj.MatchedOD{DepartSec: od.DepartSec}, nil
}

func testConfig(t *testing.T, snap *Snapshot) Config {
	t.Helper()
	slotter, err := timeslot.New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Match:        okMatch,
		Snapshot:     snap,
		Workers:      2,
		QueueDepth:   64,
		MaxBatch:     8,
		QueueTimeout: 2 * time.Second,
		CacheEntries: 256,
		CacheTTL:     time.Minute,
		Cells:        gridQuantizer{},
		Slotter:      slotter,
		Registry:     obs.NewRegistry(),
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func od(x1, y1, x2, y2, depart float64) traj.ODInput {
	return traj.ODInput{
		Origin:    geo.Point{X: x1, Y: y1},
		Dest:      geo.Point{X: x2, Y: y2},
		DepartSec: depart,
	}
}

func TestDoAnswersAndCaches(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("m1", 42)))
	r1, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seconds != 42 || r1.Cached || r1.SnapshotID != "m1" {
		t.Fatalf("first result = %+v", r1)
	}
	r2, err := e.Do(context.Background(), od(1, 1, 5, 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	// The same request → must be a cache hit.
	if !r2.Cached || r2.Seconds != 42 {
		t.Fatalf("second result = %+v, want cached 42", r2)
	}
	// Same cells and slot, other exact request → miss.
	r3, err := e.Do(context.Background(), od(1.2, 1.2, 5.2, 5.2, 700))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatalf("a cell-mate served from cache: %+v", r3)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMiss != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// exactMatch carries every input bit of the request into the matched OD,
// as map matching carries the exact points into position ratios.
func exactMatch(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
	return traj.MatchedOD{
		RStart:    od.Origin.X + od.Origin.Y/7,
		REnd:      od.Dest.X + od.Dest.Y/7,
		DepartSec: od.DepartSec,
		External:  od.External,
	}, nil
}

// exactSnapshot answers a function of every input the model sees: the
// endpoints, the exact departure and the external bundle.
func exactSnapshot() *Snapshot {
	return &Snapshot{ID: "exact", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		sec := 60 + 1.5*m.RStart + 0.5*m.REnd + m.DepartSec/1000
		if ext := m.External; ext != nil {
			sec += 3 * float64(ext.Weather+1)
			if len(ext.SpeedGrid) > 0 {
				sec += ext.SpeedGrid[0]
			}
		}
		return sec
	}}
}

// cells250 quantizes onto 250 m cells.
type cells250 struct{}

func (cells250) CellIndex(p geo.Point) int {
	return int(math.Floor(p.X/250)) + 1000*int(math.Floor(p.Y/250))
}

// TestCacheHitIsUncachedBits: a repeated request is served from the cache
// with the very bits an engine without a cache computes, and each neighbour
// the model tells apart misses and gets its own uncached bits — the origin
// moved 1 m inside its 250 m cell, the departure 1 s inside its slot, and
// the same points and departure under another weather id or another speed
// matrix.
func TestCacheHitIsUncachedBits(t *testing.T) {
	engine := func(entries int) *Engine {
		cfg := testConfig(t, exactSnapshot())
		cfg.Match, cfg.CacheEntries, cfg.Cells = exactMatch, entries, cells250{}
		return newTestEngine(t, cfg)
	}
	cached, uncached := engine(256), engine(0)
	grid, other := []float64{7.25}, []float64{9.5}
	at := func(ox, depart float64, weather int, grid []float64) traj.ODInput {
		in := od(ox, 310, 1720, 940, depart)
		in.External = &traj.ExternalFeatures{Weather: weather, SpeedGrid: grid, GridRows: 1, GridCols: 1}
		return in
	}
	do := func(e *Engine, in traj.ODInput) Result {
		t.Helper()
		r, err := e.Do(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := at(560, 3600, 1, grid)
	want := do(uncached, base)
	if r := do(cached, base); r.Cached || math.Float64bits(r.Seconds) != math.Float64bits(want.Seconds) {
		t.Fatalf("first request = %+v, want the uncached %v", r, want.Seconds)
	}
	if r := do(cached, base); !r.Cached || math.Float64bits(r.Seconds) != math.Float64bits(want.Seconds) {
		t.Fatalf("repeat = %+v, want a hit with the uncached bits %x", r, math.Float64bits(want.Seconds))
	}
	for name, in := range map[string]traj.ODInput{
		"origin +1 m":        at(561, 3600, 1, grid),
		"depart +1 s":        at(560, 3601, 1, grid),
		"other weather":      at(560, 3600, 2, grid),
		"other speed matrix": at(560, 3600, 1, other),
	} {
		own := do(uncached, in)
		if own.Seconds == want.Seconds {
			t.Fatalf("%s: the stub model does not tell it from the base request", name)
		}
		if r := do(cached, in); r.Cached || math.Float64bits(r.Seconds) != math.Float64bits(own.Seconds) {
			t.Fatalf("%s: %+v, want a miss with its own uncached %v (the base answered %v)", name, r, own.Seconds, want.Seconds)
		}
	}
}

func TestInvalidInputRejected(t *testing.T) {
	cfg := testConfig(t, constSnapshot("m1", 1))
	cfg.Snapshot.Slotter = cfg.Slotter // the model's: 1e300 has no slot under it
	e := newTestEngine(t, cfg)
	cases := []traj.ODInput{
		od(math.NaN(), 1, 5, 5, 600),
		od(1, 1, math.Inf(1), 5, 600),
		od(1, 1, 5, 5, math.NaN()),
		od(1, 1, 5, 5, -10),
		od(1, 1, 5, 5, 1e300),
	}
	for i, bad := range cases {
		if _, err := e.Do(context.Background(), bad); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("case %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
}

// TestBadExternalIsInvalidInput: an external bundle the model cannot
// encode — a weather id out of range, a speed grid of the wrong length — is
// the caller's bad input, refused before the model sees it, not a panic the
// execution guard turns into ErrInternal.
func TestBadExternalIsInvalidInput(t *testing.T) {
	gcfg := roadnet.SmallCity("bad-external", 7)
	gcfg.Rows, gcfg.Cols = 4, 4
	g, err := roadnet.GenerateCity(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.SmallConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, ModelSnapshot("real", m))
	cfg.Match = func(_ context.Context, in traj.ODInput) (traj.MatchedOD, error) {
		return traj.MatchedOD{OriginEdge: 0, DestEdge: 1, RStart: 0.5, REnd: 0.5, DepartSec: in.DepartSec, External: in.External}, nil
	}
	e := newTestEngine(t, cfg)
	for name, ext := range map[string]*traj.ExternalFeatures{
		"weather": {Weather: 99},
		"grid":    {SpeedGrid: make([]float64, 5), GridRows: 2, GridCols: 2},
	} {
		in := od(1, 1, 5, 5, 600)
		in.External = ext
		if _, err := e.Do(context.Background(), in); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
	if n := e.panics.Value(); n != 0 {
		t.Fatalf("tte_infer_panics_total = %d, want 0", n)
	}
	in := od(1, 1, 5, 5, 600)
	in.External = &traj.ExternalFeatures{Weather: 1, SpeedGrid: make([]float64, 4), GridRows: 2, GridCols: 2}
	if _, err := e.Do(context.Background(), in); err != nil {
		t.Fatalf("a well-formed bundle: %v", err)
	}
}

func TestMatchFailureIsMatchError(t *testing.T) {
	cfg := testConfig(t, constSnapshot("m1", 1))
	sentinel := errors.New("no segment")
	cfg.Match = func(context.Context, traj.ODInput) (traj.MatchedOD, error) { return traj.MatchedOD{}, sentinel }
	e := newTestEngine(t, cfg)
	_, err := e.Do(context.Background(), od(1, 1, 5, 5, 0))
	var matchErr *MatchError
	if !errors.As(err, &matchErr) || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want *MatchError wrapping sentinel", err)
	}
}

// blockingEngine builds a 1-worker engine whose estimates signal started
// and then park on gate, so tests can hold the worker busy and fill the
// queue deterministically.
func blockingEngine(t *testing.T, queueDepth int, timeout time.Duration) (e *Engine, gate, started chan struct{}) {
	gate = make(chan struct{})
	started = make(chan struct{}, 16)
	snap := &Snapshot{
		ID: "blocking",
		Estimate: func(context.Context, *traj.MatchedOD) float64 {
			started <- struct{}{}
			<-gate
			return 7
		},
	}
	cfg := Config{
		Match:        okMatch,
		Snapshot:     snap,
		Workers:      1,
		QueueDepth:   queueDepth,
		MaxBatch:     1,
		QueueTimeout: timeout,
		Registry:     obs.NewRegistry(),
	}
	var err error
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		e.Close()
	})
	return e, gate, started
}

func TestQueueFullSheds(t *testing.T) {
	e, gate, started := blockingEngine(t, 1, 5*time.Second)
	// Occupy the single worker.
	first := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), od(1, 1, 2, 2, 0))
		first <- err
	}()
	<-started // the worker is now parked inside Estimate
	// Fill the queue slot.
	second := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), od(2, 2, 3, 3, 0))
		second <- err
	}()
	waitFor(t, func() bool { return len(e.queue) == 1 })
	// Queue is full: this one must shed immediately.
	start := time.Now()
	_, err := e.Do(context.Background(), od(3, 3, 4, 4, 0))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v, want immediate", d)
	}
	if got := e.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	gate <- struct{}{} // release first
	gate <- struct{}{} // release second
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second request failed: %v", err)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	e, gate, started := blockingEngine(t, 4, 30*time.Millisecond)
	// Park the worker.
	parked := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), od(1, 1, 2, 2, 0))
		parked <- err
	}()
	<-started
	// This request sits in the queue past QueueTimeout.
	start := time.Now()
	_, err := e.Do(context.Background(), od(2, 2, 3, 3, 0))
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("timed-out request blocked %v", d)
	}
	gate <- struct{}{}
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

func TestContextCancelAbandons(t *testing.T) {
	e, gate, started := blockingEngine(t, 4, 5*time.Second)
	parked := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), od(1, 1, 2, 2, 0))
		parked <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, od(2, 2, 3, 3, 0))
		done <- err
	}()
	waitFor(t, func() bool { return len(e.queue) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	gate <- struct{}{}
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	cfg := testConfig(t, constSnapshot("m1", 1))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Do(context.Background(), od(1, 1, 2, 2, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestSwapServesNewModelAndInvalidatesCache(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("old", 100)))
	in := od(1, 1, 5, 5, 600)

	r, err := e.Do(context.Background(), in)
	if err != nil || r.Seconds != 100 {
		t.Fatalf("pre-swap result = %+v, err %v", r, err)
	}
	// Warm the cache, verify the hit.
	r, err = e.Do(context.Background(), in)
	if err != nil || !r.Cached || r.Seconds != 100 {
		t.Fatalf("expected warm cache hit of 100, got %+v, err %v", r, err)
	}

	prev, err := e.SwapCtx(context.Background(), constSnapshot("new", 200))
	if err != nil {
		t.Fatal(err)
	}
	if prev.ID != "old" {
		t.Fatalf("Swap returned previous %q, want old", prev.ID)
	}

	// The cached 100 must never be served again: generation changed.
	r, err = e.Do(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached || r.Seconds != 200 || r.SnapshotID != "new" {
		t.Fatalf("post-swap result = %+v, want fresh 200 from new", r)
	}
	// And the re-cached value is the new model's.
	r, err = e.Do(context.Background(), in)
	if err != nil || !r.Cached || r.Seconds != 200 {
		t.Fatalf("post-swap cache = %+v, err %v, want cached 200", r, err)
	}
	if st := e.Stats(); st.Reloads != 1 {
		t.Fatalf("reload counter = %d, want 1", st.Reloads)
	}
}

// TestReloadUnderLoadZeroFailures drives concurrent traffic through the
// engine while snapshots are swapped mid-flight, asserting the ISSUE's
// acceptance bar: every request succeeds and answers with one of the two
// models' values — a swap never drops or corrupts an in-flight request.
// The clients run for as long as the swapper does, so every swap lands
// under live load.
func TestReloadUnderLoadZeroFailures(t *testing.T) {
	cfg := testConfig(t, constSnapshot("A", 100))
	cfg.Workers = 4
	cfg.QueueDepth = 4096
	cfg.QueueTimeout = 10 * time.Second
	e := newTestEngine(t, cfg)

	const clients = 8
	const swaps = 20
	var wrong, failed, total atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Spread ODs so caching doesn't absorb all traffic.
				in := od(float64(c), float64(i%50), float64(c+3), float64((i+7)%50), float64(600+i))
				r, err := e.Do(context.Background(), in)
				total.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				if r.Seconds != 100 && r.Seconds != 200 {
					wrong.Add(1)
				}
			}
		}(c)
	}

	// Alternate A↔B under load, ending on B.
	for i := 1; i <= swaps; i++ {
		time.Sleep(time.Millisecond)
		id, val := "A", 100.0
		if i%2 == 0 { // even iterations install B; the last (i=swaps) is even
			id, val = "B", 200.0
		}
		if _, err := e.SwapCtx(context.Background(), constSnapshot(id, val)); err != nil {
			t.Fatalf("Swap %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during reloads, want 0", n, total.Load())
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d requests returned a value from neither model", n)
	}
	if total.Load() == 0 {
		t.Fatal("clients made no requests")
	}
	// The last installed snapshot must be what serves now — with a fresh
	// OD so the answer cannot come from any cache generation.
	r, err := e.Do(context.Background(), od(900, 900, 901, 901, 600))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds != 200 || r.SnapshotID != "B" {
		t.Fatalf("post-load result = %+v, want 200 from B", r)
	}
}

// TestVersionReflectsSwap checks the /version plumbing: snapshot identity
// and reload count update across Swap.
func TestVersionReflectsSwap(t *testing.T) {
	e := newTestEngine(t, testConfig(t, constSnapshot("v1", 1)))
	v := e.Version()
	if v["model"] != "v1" {
		t.Fatalf("version model = %v, want v1", v["model"])
	}
	if _, err := e.SwapCtx(context.Background(), constSnapshot("v2", 2)); err != nil {
		t.Fatal(err)
	}
	v = e.Version()
	if v["model"] != "v2" {
		t.Fatalf("post-swap version model = %v, want v2", v["model"])
	}
	if v["reloads"] != uint64(1) {
		t.Fatalf("post-swap reloads = %v, want 1", v["reloads"])
	}
}

// waitFor polls cond for up to 2s; the engine's handoffs are all local
// channel sends, so this converges in microseconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached within 2s")
}
