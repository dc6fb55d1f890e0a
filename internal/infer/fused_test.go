package infer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

import "deepod/internal/traj"

// TestFusedBatchServesDrainedBatches pins the worker's fused routing: when
// the snapshot provides EstimateBatch and a drain picks up more than one
// request, the whole batch must be answered by one fused call — and every
// answer must be what the per-request path would have produced. The first
// request is held inside the model until the queue fills, so a multi-request
// drain is guaranteed rather than timing-dependent.
func TestFusedBatchServesDrainedBatches(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	estimate := func(od *traj.MatchedOD) float64 { return od.DepartSec * 2 }
	var fusedCalls, fusedItems, singleCalls atomic.Int64
	snap := &Snapshot{
		ID: "fused",
		Estimate: func(_ context.Context, od *traj.MatchedOD) float64 {
			singleCalls.Add(1)
			<-gate
			return estimate(od)
		},
		EstimateBatch: func(_ context.Context, ods []traj.MatchedOD) []float64 {
			if len(ods) < 2 {
				t.Errorf("fused call with batch size %d; singles must use Estimate", len(ods))
			}
			fusedCalls.Add(1)
			fusedItems.Add(int64(len(ods)))
			out := make([]float64, len(ods))
			for i := range ods {
				out[i] = estimate(&ods[i])
			}
			return out
		},
	}
	cfg := testConfig(t, snap)
	cfg.Workers = 1
	cfg.MaxBatch = 16
	cfg.QueueDepth = 128
	e := newTestEngine(t, cfg)

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct requests, so nothing is answered from cache and
			// every request reaches the model.
			depart := float64(600 + 3600*i)
			r, err := e.Do(context.Background(), od(float64(10*i), 1, 5, 5, depart))
			if err != nil {
				errs <- err
				return
			}
			if r.Seconds != depart*2 {
				errs <- fmt.Errorf("request %d: got %v, want %v", i, r.Seconds, depart*2)
			}
		}(i)
	}
	// Let the queue fill behind the gated first request, then release it.
	time.Sleep(100 * time.Millisecond)
	gateOnce.Do(func() { close(gate) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fusedCalls.Load() == 0 {
		t.Fatalf("no fused batches formed (singles=%d)", singleCalls.Load())
	}
	if got := fusedItems.Load() + singleCalls.Load(); got != n {
		t.Fatalf("answered %d requests across fused+single paths, want %d", got, n)
	}
}

// TestFusedNilFallsBack: a snapshot without EstimateBatch (stubs, old
// recordings) must serve every request per-sample regardless of batch size.
func TestFusedNilFallsBack(t *testing.T) {
	cfg := testConfig(t, constSnapshot("plain", 7))
	cfg.Workers = 1
	e := newTestEngine(t, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Do(context.Background(), od(float64(10*i), 1, 5, 5, float64(600+3600*i)))
			if err != nil {
				t.Error(err)
				return
			}
			if r.Seconds != 7 {
				t.Errorf("request %d: got %v, want 7", i, r.Seconds)
			}
		}(i)
	}
	wg.Wait()
}
