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

// TestCanceledCallerIsNotStamped: a request whose caller gives up while
// its forward runs answers the caller with context.Canceled, so the quality
// monitor must not count it as a prediction nor leave a pending entry to
// expire as an orphan; the flight recorder still sees one event per Do. One
// worker, no cache. Caller-run, the canceled request is the first and runs
// on its own goroutine; queued, a first request parks in the model on its
// caller's goroutine and the canceled one is picked up by the worker behind
// it.
func TestCanceledCallerIsNotStamped(t *testing.T) {
	for _, c := range []struct {
		name   string
		queued bool
	}{{"caller-run", false}, {"queued", true}} {
		t.Run(c.name, func(t *testing.T) {
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

			delivered := 0
			parked := make(chan error, 1)
			if c.queued {
				delivered = 1
				go func() {
					_, err := e.Do(context.Background(), traj.ODInput{DepartSec: 60})
					parked <- err
				}()
				<-started
			}
			ctx, cancel := context.WithCancel(context.Background())
			canceled := make(chan error, 1)
			go func() {
				_, err := e.Do(ctx, traj.ODInput{DepartSec: 120})
				canceled <- err
			}()
			if c.queued {
				depth := reg.Gauge("tte_infer_queue_depth")
				for depth.Value() != 1 {
					time.Sleep(time.Millisecond)
				}
				gate <- struct{}{} // the parked request answers; the worker picks up the queued one
				if err := <-parked; err != nil {
					t.Fatalf("parked request: %v", err)
				}
			}
			<-started
			cancel()
			if c.queued {
				if err := <-canceled; !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled request: err = %v, want context.Canceled", err)
				}
				gate <- struct{}{}
			} else {
				gate <- struct{}{} // the forward returns on the caller's goroutine after the cancel
				if err := <-canceled; !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled request: err = %v, want context.Canceled", err)
				}
			}
			e.Close() // the worker finishes the abandoned forward

			if got := reg.Counter("tte_quality_predictions_total").Value(); got != uint64(delivered) {
				t.Fatalf("tte_quality_predictions_total = %d for %d delivered answers", got, delivered)
			}
			if got := reg.Gauge("tte_quality_pending").Value(); got != float64(delivered) {
				t.Fatalf("tte_quality_pending = %v, want the delivered answers' %d entries only", got, delivered)
			}
			if got := reg.Counter("tte_recorder_events_seen_total").Value(); got != uint64(delivered+1) {
				t.Fatalf("recorder saw %d events for %d calls", got, delivered+1)
			}
		})
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
