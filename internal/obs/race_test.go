package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistry hammers metric creation and mutation from many
// goroutines while the exposition handler scrapes concurrently. Run with
// -race (scripts/check.sh does) to prove the registry is lock-correct:
// creation races, child-map reads during writes, and scrape-during-update
// are all exercised.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	routes := []string{"/a", "/b", "/c"}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				route := routes[(w+i)%len(routes)]
				// Re-resolve every iteration on purpose: this is the
				// worst-case path that mixes map reads with creation.
				r.Counter("stress_total", "route", route).Add(1)
				g := r.Gauge("stress_gauge")
				g.Inc()
				r.Histogram("stress_seconds", DefBuckets, "route", route).Observe(float64(i) / float64(iters))
				g.Dec()
				if i%64 == 0 {
					_, s := r.StartSpan(nil, NewStage("stress"))
					s.End()
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("scrape status %d", rec.Code)
					return
				}
				for _, s := range r.Snapshot() {
					_ = s.Label("route")
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	var total uint64
	for _, route := range routes {
		total += r.Counter("stress_total", "route", route).Value()
	}
	if want := uint64(workers * iters); total != want {
		t.Fatalf("lost counter increments: %d != %d", total, want)
	}
	var hist uint64
	for _, route := range routes {
		hist += r.Histogram("stress_seconds", DefBuckets, "route", route).Count()
	}
	if want := uint64(workers * iters); hist != want {
		t.Fatalf("lost histogram observations: %d != %d", hist, want)
	}
	if v := r.Gauge("stress_gauge").Value(); v != 0 {
		t.Fatalf("gauge should settle at 0, got %v", v)
	}
}

// TestConcurrentTracing hammers the trace layer the way the serving path
// does: many request goroutines each building a span tree (with a second
// goroutine adding spans to the same trace, as engine workers do), offering
// finished traces to a shared store, while readers scrape /debug/traces
// concurrently. Run with -race.
func TestConcurrentTracing(t *testing.T) {
	r := NewRegistry()
	ts := NewTraceStore(r, TraceStoreConfig{Capacity: 64, SlowestN: 4, Window: time.Second, SampleRate: 0.5})
	const (
		workers = 8
		iters   = 300
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, tr := StartTrace(context.Background(), TraceID(fmt.Sprintf("w%d-%d", w, i)), "/estimate")
				rctx, root := r.StartSpan(ctx, NewStage("/estimate"))
				root.SetInt("iter", i)

				// A "worker" goroutine contributes spans to the same trace,
				// like the infer engine's batch path.
				done := make(chan struct{})
				go func() {
					defer close(done)
					bctx, bspan := r.StartSpan(rctx, NewStage("infer.batch"))
					bspan.SetInt("batch_size", 1)
					_, mspan := r.StartSpan(bctx, NewStage("infer.model"))
					mspan.End()
					bspan.End()
				}()
				<-done
				if i%7 == 0 {
					root.Fail(fmt.Errorf("iter %d", i))
				}
				ts.Offer(tr, root.End())
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			h := ts.Handler()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?limit=16", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("trace scrape status %d", rec.Code)
					return
				}
				ts.Traces(TraceFilter{ErrorOnly: true})
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	if got := r.Counter("tte_trace_completed_total").Value(); got != workers*iters {
		t.Fatalf("completed = %d, want %d", got, workers*iters)
	}
	if got := r.Counter("tte_trace_retained_total", "reason", "error").Value(); got == 0 {
		t.Fatal("no error traces retained")
	}
}

// TestSpanHandleCacheConcurrent races stage declaration and the stage slots
// the way a cold server does: 64 goroutines starting spans of one shared
// stage, and of stages nobody has declared yet, on one registry. Both racers
// of a new name must get the same Stage, every span must land in the
// family's own child — the one Registry.Histogram resolves — exactly once,
// and a second registry must get its own slots. Run with -race.
func TestSpanHandleCacheConcurrent(t *testing.T) {
	r, other := NewRegistry(), NewRegistry()
	const (
		workers = 64
		iters   = 200
		fresh   = 4 // stages each worker pair declares
	)
	shared := NewStage("shared")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, s := r.StartSpan(context.Background(), shared)
				s.End()
				if i < fresh {
					// A name per (worker pair, iteration): two goroutines
					// race to declare it and to fill its slot.
					_, s = r.StartSpan(context.Background(), NewStage(fmt.Sprintf("new-%d-%d", w/2, i)))
					s.End()
				}
			}
			_, s := other.StartSpan(context.Background(), NewStage("shared"))
			s.End()
		}(w)
	}
	wg.Wait()

	if got := r.Histogram(SpanFamily, DefBuckets, "span", "shared").Count(); got != workers*iters {
		t.Fatalf("shared span observations = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers/2; w++ {
		for i := 0; i < fresh; i++ {
			name := fmt.Sprintf("new-%d-%d", w, i)
			if got := r.Histogram(SpanFamily, DefBuckets, "span", name).Count(); got != 2 {
				t.Fatalf("span %s observations = %d, want 2", name, got)
			}
		}
	}
	if got := other.Histogram(SpanFamily, DefBuckets, "span", "shared").Count(); got != workers {
		t.Fatalf("second registry's shared span observations = %d, want %d", got, workers)
	}
	if NewStage("shared") != shared {
		t.Fatal("a name declared twice got two stages")
	}
	if r.stageHist(shared) == other.stageHist(shared) {
		t.Fatal("two registries share a span histogram handle")
	}
	if r.stageHist(shared) != r.Histogram(SpanFamily, DefBuckets, "span", "shared") {
		t.Fatal("a stage's slot is not the family's child")
	}
}
