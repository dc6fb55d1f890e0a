package infer_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/recorder"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// unitCells quantizes onto unit cells on integer coordinates.
type unitCells struct{}

func (unitCells) CellIndex(p geo.Point) int {
	return int(math.Floor(p.X)) + 1000*int(math.Floor(p.Y))
}

func matchAll(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
	return traj.MatchedOD{DepartSec: od.DepartSec}, nil
}

// observed wires the two real observers, the quality monitor first, the
// way tteserve does, all on reg.
func observed(t testing.TB, reg *obs.Registry) []infer.Observer {
	t.Helper()
	mon := quality.New(quality.Config{Registry: reg})
	rec, err := recorder.New(recorder.Config{SampleRate: 0.01, SlowestN: 16, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return []infer.Observer{mon, rec}
}

// TestCanceledCallerIsNotStamped: a queued request whose caller gives up
// after a worker picked it up answers the caller with context.Canceled, so
// the quality monitor must not count it as a prediction nor leave a pending
// entry to expire as an orphan; the flight recorder still sees one event
// per Do. One worker, no cache: the first request parks in the model on
// its caller's goroutine, the second queues behind it.
func TestCanceledCallerIsNotStamped(t *testing.T) {
	reg := obs.NewRegistry()
	gate, started := make(chan struct{}), make(chan struct{}, 2)
	e, err := infer.New(infer.Config{
		Match: matchAll,
		Snapshot: &infer.Snapshot{ID: "blocking", Estimate: func(context.Context, *traj.MatchedOD) float64 {
			started <- struct{}{}
			<-gate
			return 7
		}},
		Workers:   1,
		MaxBatch:  1,
		Observers: observed(t, reg),
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(gate) // runs first: a failed check must not leave a forward parked

	parked := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), traj.ODInput{DepartSec: 60})
		parked <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, traj.ODInput{DepartSec: 120})
		canceled <- err
	}()
	depth := reg.Gauge("tte_infer_queue_depth")
	for depth.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	gate <- struct{}{} // the parked request answers; the worker picks up the queued one
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	<-started
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request: err = %v, want context.Canceled", err)
	}
	gate <- struct{}{}
	e.Close() // the worker finishes the abandoned forward

	if got := reg.Counter("tte_quality_predictions_total").Value(); got != 1 {
		t.Fatalf("tte_quality_predictions_total = %d for 1 delivered answer", got)
	}
	if got := reg.Gauge("tte_quality_pending").Value(); got != 1 {
		t.Fatalf("tte_quality_pending = %v, want the delivered answer's entry only", got)
	}
	if got := reg.Counter("tte_recorder_events_seen_total").Value(); got != 2 {
		t.Fatalf("recorder saw %d events for 2 calls", got)
	}
}

// BenchmarkEngineCachedObserved is BenchmarkEngineCached with both real
// observers wired: the allocations a cache-hit Do adds for stamping and
// wide-event capture, and the engine quantizing the event for both.
func BenchmarkEngineCachedObserved(b *testing.B) {
	slotter, err := timeslot.New(5 * time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := infer.New(infer.Config{
		Match:        matchAll,
		Snapshot:     &infer.Snapshot{ID: "bench", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 42 }},
		CacheEntries: 1024,
		CacheTTL:     time.Hour,
		Cells:        unitCells{},
		Slotter:      slotter,
		Observers:    observed(b, reg),
		Registry:     reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	in := traj.ODInput{Origin: geo.Point{X: 1, Y: 1}, Dest: geo.Point{X: 5, Y: 5}, DepartSec: 600}
	ctx := context.Background()
	if _, err := e.Do(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Do(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}
