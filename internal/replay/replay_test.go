package replay

import (
	"context"
	"sync"
	"testing"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/recorder"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// cells quantizes onto 100 m cells: the recording engine stamps them on
// its events.
type cells struct{}

func (cells) CellIndex(p geo.Point) int { return int(p.X/100) + 1000*int(p.Y/100) }

// snap returns a deterministic pure-function snapshot: the estimate is a
// fixed combination of the matched departure time, so identical inputs
// reproduce bit-for-bit and different "checkpoints" disagree.
func snap(id string, scale float64) *infer.Snapshot {
	return &infer.Snapshot{
		ID: id,
		Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
			return scale * (1 + m.DepartSec/7)
		},
	}
}

func match(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
	return traj.MatchedOD{DepartSec: od.DepartSec}, nil
}

// record plays a request stream through a real engine with a rate-1
// recorder and returns the captured events — the fixture every replay test
// starts from.
func record(t *testing.T, s *infer.Snapshot, reqs []traj.ODInput) []recorder.Event {
	t.Helper()
	slotter, err := timeslot.New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := recorder.New(recorder.Config{SampleRate: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	eng, err := infer.New(infer.Config{
		Match: match, Snapshot: s,
		Workers: 1, MaxBatch: 1,
		CacheEntries: 128, Cells: cells{}, Slotter: slotter,
		Observers: []infer.Observer{rec},
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, od := range reqs {
		_, _ = eng.Do(context.Background(), od)
	}
	evs := rec.Events(recorder.Filter{})
	// Events come newest-first; Run re-sorts, but return capture order for
	// clarity.
	for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
		evs[i], evs[j] = evs[j], evs[i]
	}
	return evs
}

func reqStream() []traj.ODInput {
	reqs := make([]traj.ODInput, 0, 24)
	for i := 0; i < 10; i++ {
		reqs = append(reqs, traj.ODInput{
			Origin:    geo.Point{X: float64(i * 150), Y: 100},
			Dest:      geo.Point{X: 900, Y: float64(i * 120)},
			DepartSec: float64(600 + 40*i),
		})
	}
	// Exact repeats: cache hits in the recording.
	reqs = append(reqs, reqs[0], reqs[1], reqs[2])
	// And errors: negative departures the engine rejects.
	reqs = append(reqs, traj.ODInput{DepartSec: -1}, traj.ODInput{DepartSec: -2})
	return reqs
}

// TestReplaySameCheckpointBitForBit is the determinism gate in miniature:
// a complete recording replayed against the identical checkpoint must
// match every estimate bit-for-bit and reproduce every error, with zero
// unexplained diffs.
func TestReplaySameCheckpointBitForBit(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream())
	if len(events) != 15 {
		t.Fatalf("recorded %d events, want 15", len(events))
	}
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 0 {
		t.Fatalf("unexplained diffs = %d, want 0: %+v", rep.UnexplainedDiffs, rep)
	}
	if rep.Matched != 13 || rep.ErrorsReproduced != 2 || rep.ErrorsChanged != 0 {
		t.Fatalf("report = %+v, want 13 matched + 2 errors reproduced", rep)
	}
	if rep.Replayed != 15 || rep.Overall.MAESec != 0 || rep.Overall.Changed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.EventsPerSec <= 0 {
		t.Fatalf("throughput = %v", rep.EventsPerSec)
	}
}

// TestReplayValidatesBeforeExternal: a recorded rejection is refused by
// the engine's Validate before its external bundle is resolved, so it costs
// no External call, and its error still reproduces.
func TestReplayValidatesBeforeExternal(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream())
	calls := 0
	rep, err := Run(context.Background(), Config{
		Snapshot: s, Match: match,
		External: func(float64) *traj.ExternalFeatures { calls++; return nil },
	}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorsReproduced != 2 || rep.Matched != 13 || rep.UnexplainedDiffs != 0 {
		t.Fatalf("report = %+v, want 13 matched + 2 errors reproduced", rep)
	}
	if calls != rep.Matched {
		t.Fatalf("External called %d times for %d served and %d rejected events, want %d",
			calls, rep.Matched, rep.ErrorsReproduced, rep.Matched)
	}
}

// TestReplayDifferentCheckpointExplains: against another checkpoint every
// diff is explained as a snapshot regression and quantified — the MAE and
// changed-count a release gate reads.
func TestReplayDifferentCheckpointExplains(t *testing.T) {
	events := record(t, snap("m1", 40), reqStream())
	rep, err := Run(context.Background(), Config{
		Snapshot: snap("m2", 44), Match: match,
		ToleranceSec: 5,
	}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 0 || rep.Matched != 0 {
		t.Fatalf("report = %+v, want all diffs explained by the snapshot", rep)
	}
	if rep.Explanations["snapshot"] != 13 {
		t.Fatalf("explanations = %v", rep.Explanations)
	}
	if rep.Overall.MAESec <= 0 || rep.Overall.Changed == 0 {
		t.Fatalf("regression stats empty: %+v", rep.Overall)
	}
	if len(rep.PerGeneration) == 0 || len(rep.PerOriginCell) < 2 {
		t.Fatalf("per-bucket tables missing: gen=%v cells=%v", rep.PerGeneration, rep.PerOriginCell)
	}
	// Errors still reproduce: invalid input is invalid under any model.
	if rep.ErrorsReproduced != 2 {
		t.Fatalf("errors reproduced = %d", rep.ErrorsReproduced)
	}
}

// TestReplayLiveTrafficExplained: events recorded under live traffic are
// explained diffs — the offline engine cannot rebuild the probe stream.
func TestReplayLiveTrafficExplained(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream()[:3])
	// Forge the live flag on one event and bump its estimate, as if the
	// serving path had merged probe speeds into the features.
	events[1].TrafficLive = true
	events[1].EstimateSec += 10
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 0 || rep.Explanations["traffic_live"] != 1 || rep.Matched != 2 {
		t.Fatalf("report = %+v (%v)", rep, rep.Explanations)
	}
}

// TestReplayUnexplainedDetected: tamper with a recorded estimate and the
// gate must trip — zero false negatives is the point of the check.
func TestReplayUnexplainedDetected(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream()[:4])
	events[2].EstimateSec += 0.125
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 1 {
		t.Fatalf("unexplained = %d, want the tampered event caught: %+v", rep.UnexplainedDiffs, rep)
	}
}

// TestReplaySampledHitTamperedIsUnexplained: a sampled segment keeps a
// recorded cache hit but drops the event that filled its entry. The cache
// is keyed on the exact request, so the hit carries the bits a fresh
// forward of its request computes: a tampered one is unexplained, never
// excused by the cache disposition the replay cannot rebuild.
func TestReplaySampledHitTamperedIsUnexplained(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream())
	fill, hit := events[0], events[10]
	if fill.Cached || !hit.Cached || hit.Origin != fill.Origin || hit.DepartSec != fill.DepartSec {
		t.Fatalf("fixture: events 0 and 10 = %+v, %+v, want a miss and its repeat's hit", fill, hit)
	}
	events[10].EstimateSec += 0.125
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 1 || rep.ExplainedDiffs != 0 || rep.Matched != 11 {
		t.Fatalf("report = %+v (%v), want the tampered hit unexplained and the other 11 matched", rep, rep.Explanations)
	}
}

// TestReplaySkipsShed: shed and cancelled outcomes are load artifacts;
// replay must skip them, not fail on them.
func TestReplaySkipsShed(t *testing.T) {
	s := snap("m1", 40)
	events := record(t, s, reqStream()[:2])
	events = append(events, recorder.Event{Seq: 900, Err: "overloaded", Shed: true},
		recorder.Event{Seq: 901, Err: "canceled"})
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.Skipped["overloaded"] != 1 || rep.Skipped["canceled"] != 1 {
		t.Fatalf("report = %+v (skipped %v)", rep, rep.Skipped)
	}
	if rep.UnexplainedDiffs != 0 {
		t.Fatalf("unexplained = %d", rep.UnexplainedDiffs)
	}
}

// TestReplayFusedRecordingBitForBit records through an engine that serves
// drained batches (MaxBatch 16, concurrent clients, a gated first request so
// multi-request drains provably form), then replays the events through Run's
// one-worker engine, where every event is served alone. Zero unexplained
// diffs means the batch a request happened to be drained in never leaks
// into its answer.
func TestReplayFusedRecordingBitForBit(t *testing.T) {
	slotter, err := timeslot.New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s := &infer.Snapshot{ID: "drained", Estimate: func(_ context.Context, m *traj.MatchedOD) float64 {
		<-gate // recording: hold the first request until the queue fills; replay: closed, no-op
		return 3 * (1 + m.DepartSec/7)
	}}

	rec, err := recorder.New(recorder.Config{SampleRate: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	reg := obs.NewRegistry()
	eng, err := infer.New(infer.Config{
		Match: match, Snapshot: s,
		Workers: 1, MaxBatch: 16, QueueDepth: 64,
		CacheEntries: 128, Cells: cells{}, Slotter: slotter,
		Observers: []infer.Observer{rec},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct requests so nothing is served from cache.
			_, _ = eng.Do(context.Background(), traj.ODInput{
				Origin:    geo.Point{X: float64(i * 150), Y: 100},
				Dest:      geo.Point{X: 900, Y: float64(i * 120)},
				DepartSec: float64(600 + 3600*i),
			})
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the queue fill behind the gated first request
	close(gate)
	wg.Wait()
	eng.Close()
	if execs := reg.Histogram("tte_infer_batch_size", nil).Count(); execs >= n {
		t.Fatalf("%d executions for %d requests: no drain took more than one", execs, n)
	}

	events := rec.Events(recorder.Filter{})
	if len(events) != n {
		t.Fatalf("recorded %d events, want %d", len(events), n)
	}
	rep, err := Run(context.Background(), Config{Snapshot: s, Match: match}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexplainedDiffs != 0 || rep.Matched != n {
		t.Fatalf("report = %+v, want %d matched and 0 unexplained", rep, n)
	}
}
