package infer

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/obs"
	"deepod/internal/traj"
)

// The hand-over's invariants, each as a test (run under -race): the slot
// bound holds over callers and workers together, nothing queued is ever
// overtaken, len(queue) is exactly the admitted and unstarted jobs, Close
// and Swap treat a caller-run execution like a worker's, and the execution
// guard fails the poisoned request alone.

// TestSlotsBoundExecutions: with Workers 2 and 64 callers, never more than
// two executions — callers serving themselves and workers serving batches,
// together — are inside the model at once, every request is answered, and
// the two engine histograms account for every miss exactly once.
func TestSlotsBoundExecutions(t *testing.T) {
	var inFlight, peak atomic.Int64
	enter := func() {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(50 * time.Microsecond) // long enough for executions to overlap
		inFlight.Add(-1)
	}
	snap := &Snapshot{ID: "bounded", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		enter()
		return m.DepartSec
	}}
	cfg := testConfig(t, snap)
	cfg.Workers = 2
	cfg.CacheEntries = 0
	cfg.QueueDepth = 64
	e := newTestEngine(t, cfg)

	const callers, each = 64, 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				depart := float64(c*each + i)
				r, err := e.Do(context.Background(), od(1, 1, 5, 5, depart))
				if err != nil || r.Seconds != depart {
					t.Errorf("caller %d request %d: %+v, %v", c, i, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d executions ran at once with Workers 2", p)
	}
	const misses = callers * each
	if got := e.queueWait.Count(); got != misses {
		t.Fatalf("tte_infer_queue_wait_seconds holds %d observations for %d served misses", got, misses)
	}
	if got := e.batchSize.Sum(); got != misses {
		t.Fatalf("tte_infer_batch_size sums to %v requests for %d served misses", got, misses)
	}
}

// TestQueueSpanObservedOnce: every request that reaches admission records
// its infer.queue span exactly once, whichever side ends it, on each of the
// five ways out of the queue. A is served by its caller, B is drained by the
// worker, C is abandoned by its cancelled caller, D times out in the queue
// and E finds the queue full. The worker still picks up C's and D's jobs
// and ends their spans a second time; only the first End may record.
func TestQueueSpanObservedOnce(t *testing.T) {
	const timeout = 300 * time.Millisecond
	e, gate, started := blockingEngine(t, 3, timeout)
	do := func(ctx context.Context, depart float64) chan error {
		out := make(chan error, 1)
		go func() {
			_, err := e.Do(ctx, od(1, 1, 2, 2, depart))
			out <- err
		}()
		return out
	}
	a := do(context.Background(), 1)
	<-started // A holds the engine's one slot, inside the model
	if err := <-do(context.Background(), 4); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("D: %v, want ErrQueueTimeout", err)
	}
	b := do(context.Background(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	c := do(ctx, 3)
	waitFor(t, func() bool { return len(e.queue) == 3 }) // D's abandoned job, B and C
	cancel()
	if err := <-c; !errors.Is(err, context.Canceled) {
		t.Fatalf("C: %v, want context.Canceled", err)
	}
	if err := <-do(context.Background(), 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("E: %v, want ErrOverloaded", err)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	for name, ch := range map[string]chan error{"A": a, "B": b} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	e.Close() // the worker has picked up every queued job
	if got := e.reg.Histogram(obs.SpanFamily, obs.DefBuckets, "span", "infer.queue").Count(); got != 5 {
		t.Fatalf(`tte_span_seconds_count{span="infer.queue"} = %d for 5 requests`, got)
	}
}

// TestQueuedJobIsNotOvertaken: a caller that finds a slot free but a job
// still queued must not serve itself ahead of it. The job is planted without
// the wake token, so no worker stirs and the caller's own try gets the slot;
// it has to give the slot up and queue behind.
func TestQueuedJobIsNotOvertaken(t *testing.T) {
	var mu sync.Mutex
	var order []float64
	snap := &Snapshot{ID: "fifo", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		mu.Lock()
		order = append(order, m.DepartSec)
		mu.Unlock()
		return m.DepartSec
	}}
	cfg := testConfig(t, snap)
	cfg.Workers = 1
	cfg.MaxBatch = 1
	cfg.CacheEntries = 0
	e := newTestEngine(t, cfg)

	planted := &job{pendingJob: pendingJob{od: od(1, 1, 5, 5, 100), ctx: context.Background()},
		enqueued: e.now(), done: make(chan ServeEvent, 1)}
	_, planted.qspan = e.reg.StartSpan(context.Background(), "infer.queue")
	e.queue <- planted

	r, err := e.Do(context.Background(), od(1, 1, 5, 5, 200))
	if err != nil || r.Seconds != 200 {
		t.Fatalf("late request: %+v, %v", r, err)
	}
	if out := <-planted.done; out.Err != nil || out.Seconds != 100 {
		t.Fatalf("queued job: %+v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 100 || order[1] != 200 {
		t.Fatalf("served in order %v, want the queued 100 before the late 200", order)
	}
}

// TestInlineHoldsTheSlot: the request parked in the model is on its
// caller's goroutine, under the engine's one slot and with nothing queued;
// behind it QueueDepth 1 admits exactly one job, which is len(queue), and
// sheds the next.
func TestInlineHoldsTheSlot(t *testing.T) {
	e, gate, started := blockingEngine(t, 1, 5*time.Second)
	results := make(chan error, 2)
	do := func(depart float64) {
		_, err := e.Do(context.Background(), od(1, 1, 2, 2, depart))
		results <- err
	}
	go do(0)
	<-started
	if len(e.slots) != 1 || len(e.queue) != 0 {
		t.Fatalf("with one request in the model: %d slots held, %d queued; want 1 and 0", len(e.slots), len(e.queue))
	}
	go do(1)
	waitFor(t, func() bool { return len(e.queue) == 1 })
	for i := 0; i < 2; i++ {
		if _, err := e.Do(context.Background(), od(1, 1, 2, 2, 2)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request behind a full queue: err = %v, want ErrOverloaded", err)
		}
	}
	if len(e.queue) != 1 {
		t.Fatalf("%d jobs queued, want the one admitted", len(e.queue))
	}
	gate <- struct{}{}
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
}

// TestCloseWaitsForInline: Close returns only after a caller-run execution
// has been answered, and Do fails with ErrClosed from then on.
func TestCloseWaitsForInline(t *testing.T) {
	e, gate, started := blockingEngine(t, 4, 5*time.Second)
	inline := make(chan error, 1)
	go func() {
		r, err := e.Do(context.Background(), od(1, 1, 2, 2, 0))
		if err == nil && r.Seconds != 7 {
			err = errors.New("wrong answer")
		}
		inline <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	waitFor(t, func() bool { // Close has shut admission
		ready, _ := e.Readiness()
		return !ready
	})
	if _, err := e.Do(context.Background(), od(3, 3, 4, 4, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do during Close: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a request still in the model")
	default:
	}
	gate <- struct{}{}
	if err := <-inline; err != nil {
		t.Fatalf("request in flight across Close: %v", err)
	}
	<-closed
}

// TestSwapDuringInline: a Swap landing while a caller-run execution is in
// the model does not touch it. The answer, its flight event and its cache
// entry belong to the generation it loaded, with no queue wait and the
// traffic regime read beside its features; the next request for the same
// key is computed by the new model.
func TestSwapDuringInline(t *testing.T) {
	src := &stubTraffic{}
	src.epoch.Store(7)
	fl := &stubObserver{}
	gate, started := make(chan struct{}), make(chan struct{})
	old := &Snapshot{ID: "old", Estimate: func(context.Context, *traj.MatchedOD) float64 {
		close(started)
		<-gate
		return 100
	}}
	cfg := testConfig(t, old)
	cfg.Traffic = src
	cfg.Observers = []Observer{fl}
	e := newTestEngine(t, cfg)
	oldGen := e.cur.Load().gen

	in := od(1, 1, 5, 5, 600)
	first := make(chan Result, 1)
	go func() {
		r, err := e.Do(context.Background(), in)
		if err != nil {
			t.Error(err)
		}
		first <- r
	}()
	<-started
	if _, err := e.SwapCtx(context.Background(), constSnapshot("new", 200)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if r := <-first; r.Seconds != 100 || r.SnapshotID != "old" || r.Cached {
		t.Fatalf("request in the model across the swap = %+v, want 100 from old", r)
	}
	r, err := e.Do(context.Background(), in)
	if err != nil || r.Cached || r.Seconds != 200 || r.SnapshotID != "new" {
		t.Fatalf("request after the swap = %+v, %v, want a fresh 200 from new", r, err)
	}
	evs := fl.all()
	if len(evs) != 2 {
		t.Fatalf("%d flight events, want 2", len(evs))
	}
	for i, wantGen := range []uint64{oldGen, oldGen + 1} {
		ev := evs[i]
		if ev.Generation != wantGen || ev.QueueWait != 0 || ev.TrafficEpoch != 7 || !ev.TrafficLive || ev.Err != nil {
			t.Fatalf("flight event %d = %+v, want generation %d, no queue wait, live epoch 7", i, ev, wantGen)
		}
	}
}

// poison marks the request the stubs of TestPanicIsContained panic on.
const poison = 13

// TestPanicIsContained: a panic out of the model while a drained batch of
// 16 is being served fails the one request that caused it with ErrInternal;
// the other 15 get exactly their answers, the one panic is counted, the
// worker serves the next request and Close returns. The batch is built
// behind a request parked in the model.
func TestPanicIsContained(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{}, 1)
	snap := &Snapshot{ID: "poisoned", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		switch m.DepartSec {
		case poison:
			panic("model: poisoned OD")
		case 0:
			started <- struct{}{}
			<-gate
		}
		return math.Sqrt(m.DepartSec)
	}}
	cfg := testConfig(t, snap)
	cfg.Workers = 1
	cfg.MaxBatch = 16
	cfg.CacheEntries = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var exact atomic.Int64
	serve := func(depart float64) {
		defer wg.Done()
		r, err := e.Do(context.Background(), od(1, 1, 5, 5, depart))
		switch {
		case depart == poison && !errors.Is(err, ErrInternal):
			t.Errorf("poisoned request: %+v, %v, want ErrInternal", r, err)
		case depart != poison && (err != nil || math.Float64bits(r.Seconds) != math.Float64bits(math.Sqrt(depart))):
			t.Errorf("request %v beside the poisoned one: %+v, %v", depart, r, err)
		case depart != poison:
			exact.Add(1)
		}
	}
	wg.Add(1)
	go serve(0)
	<-started
	for i := 1; i <= 16; i++ {
		wg.Add(1)
		go serve(float64(i))
	}
	waitFor(t, func() bool { return len(e.queue) == 16 })
	close(gate)
	wg.Wait()
	if got := exact.Load(); got != 16 {
		t.Fatalf("%d exact answers, want the parked request's and 15 of the batch's 16", got)
	}
	if got := e.batchSize.Sum(); got != 17 {
		t.Fatalf("tte_infer_batch_size sums to %v, want the parked request and one drain of 16", got)
	}
	if got := e.panics.Value(); got != 1 {
		t.Fatalf("tte_infer_panics_total = %d, want 1: the poisoned member's", got)
	}
	wg.Add(1)
	serve(25)
	e.Close()
}

// TestPanicOutsideTheModelIsContained: map matching and the traffic source
// are under the same guard, on a caller-run execution too.
func TestPanicOutsideTheModelIsContained(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"Match": func(c *Config) {
			c.Match = func(_ context.Context, in traj.ODInput) (traj.MatchedOD, error) {
				if in.DepartSec == poison {
					panic("matcher: poisoned OD")
				}
				return okMatch(context.Background(), in)
			}
		},
		"Traffic.External": func(c *Config) { c.Traffic = panickyTraffic{} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, constSnapshot("m1", 42))
			cfg.CacheEntries = 0
			mut(&cfg)
			e := newTestEngine(t, cfg)
			if _, err := e.Do(context.Background(), od(1, 1, 5, 5, poison)); !errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			if r, err := e.Do(context.Background(), od(1, 1, 5, 5, 600)); err != nil || r.Seconds != 42 {
				t.Fatalf("request after the panic: %+v, %v", r, err)
			}
			if len(e.slots) != 0 || e.panics.Value() != 1 {
				t.Fatalf("%d slots still held, %d panics counted; want 0 and 1", len(e.slots), e.panics.Value())
			}
		})
	}
}

// panickyTraffic panics on the poisoned departure.
type panickyTraffic struct{}

func (panickyTraffic) Epoch() uint64 { return 0 }

func (panickyTraffic) External(departSec float64) (*traj.ExternalFeatures, bool) {
	if departSec == poison {
		panic("traffic: poisoned departure")
	}
	return nil, false
}
