package infer

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"deepod/internal/traj"
)

// TestFusedBatchServesDrainedBatches pins the worker's drain: requests that
// queue behind a busy slot are drained more than one to a hand-over, and
// every member of a drained batch is answered with exactly the bits its own
// Estimate call gives. The first request is held inside the model until the
// queue fills, so a multi-request drain is guaranteed rather than
// timing-dependent.
func TestFusedBatchServesDrainedBatches(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	estimate := func(od *traj.MatchedOD) float64 { return math.Sqrt(od.DepartSec) / 3 }
	snap := &Snapshot{ID: "drained", Estimate: func(_ context.Context, od *traj.MatchedOD) float64 {
		<-gate
		return estimate(od)
	}}
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
			if want := estimate(&traj.MatchedOD{DepartSec: depart}); math.Float64bits(r.Seconds) != math.Float64bits(want) {
				errs <- fmt.Errorf("request %d: got %v, want %v", i, r.Seconds, want)
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
	if sum := e.batchSize.Sum(); sum != n {
		t.Fatalf("tte_infer_batch_size sums to %v requests, want %d", sum, n)
	}
	if execs := e.batchSize.Count(); execs >= n {
		t.Fatalf("%d executions for %d requests: no drain took more than one", execs, n)
	}
}
