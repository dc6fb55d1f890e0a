package recorder

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// newTest builds a recorder over a fresh registry so metric assertions
// never see another test's counts.
func newTest(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func servedEvent(sec float64) infer.ServeEvent {
	return infer.ServeEvent{
		OD: traj.ODInput{
			Origin:    geo.Point{X: 100, Y: 100},
			Dest:      geo.Point{X: 900, Y: 900},
			DepartSec: 600,
		},
		Seconds:    sec,
		SnapshotID: "m1",
		Generation: 1,
		Latency:    2 * time.Millisecond,
	}
}

func errEvent(err error) infer.ServeEvent {
	ev := servedEvent(0)
	ev.Seconds = 0
	ev.Err = err
	return ev
}

// TestPolicyErrorsAlwaysCaptured: every error and shed outcome must land in
// the ring even at sample rate 0 — those are the events an investigation
// replays, and losing any of them defeats the recorder.
func TestPolicyErrorsAlwaysCaptured(t *testing.T) {
	r := newTest(t, Config{SampleRate: 0, SlowestN: -1})
	cases := []struct {
		err   error
		class string
		shed  bool
	}{
		{infer.ErrOverloaded, "overloaded", true},
		{infer.ErrQueueTimeout, "queue_timeout", true},
		{infer.ErrInvalidInput, "invalid_input", false},
		{infer.ErrClosed, "closed", false},
		{fmt.Errorf("%w: worker panic", infer.ErrInternal), "internal", false},
		{context.Canceled, "canceled", false},
		{&infer.MatchError{Err: errors.New("no edge")}, "match", false},
		{errors.New("surprise"), "error", false},
	}
	for _, c := range cases {
		r.ObserveServe(context.Background(), errEvent(c.err))
	}
	// A clean request at sample rate 0 with slow retention off: dropped.
	r.ObserveServe(context.Background(), servedEvent(42))

	evs := r.Events(Filter{})
	if len(evs) != len(cases) {
		t.Fatalf("captured %d events, want the %d errors", len(evs), len(cases))
	}
	// Events come newest-first; walk the cases in reverse.
	for i, c := range cases {
		e := evs[len(evs)-1-i]
		if e.Err != c.class || e.Shed != c.shed || e.Reason != "error" {
			t.Fatalf("%v captured as %+v, want class %q shed %v", c.err, e, c.class, c.shed)
		}
	}
	if s := r.Stats(); s.CapturedError != uint64(len(cases)) || s.CapturedSample != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestPolicySampleRateZeroAndOne: the probabilistic tier taken literally at
// its extremes — rate 0 keeps no clean events, rate 1 keeps every one.
func TestPolicySampleRateZeroAndOne(t *testing.T) {
	r0 := newTest(t, Config{SampleRate: 0, SlowestN: -1})
	r1 := newTest(t, Config{SampleRate: 1, SlowestN: -1})
	const n = 200
	for i := 0; i < n; i++ {
		r0.ObserveServe(context.Background(), servedEvent(float64(i)))
		r1.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	if got := len(r0.Events(Filter{})); got != 0 {
		t.Fatalf("sample rate 0 captured %d events, want 0", got)
	}
	if got := len(r1.Events(Filter{})); got != n {
		t.Fatalf("sample rate 1 captured %d events, want all %d", got, n)
	}
	if s := r1.Stats(); s.CapturedSample != n || s.Seen != n {
		t.Fatalf("rate-1 stats = %+v", s)
	}
}

// TestPolicySampleDeterministic: sampling hashes the sequence number, so
// two recorders fed the same stream capture the same subset.
func TestPolicySampleDeterministic(t *testing.T) {
	a := newTest(t, Config{SampleRate: 0.25, SlowestN: -1})
	b := newTest(t, Config{SampleRate: 0.25, SlowestN: -1})
	const n = 400
	for i := 0; i < n; i++ {
		a.ObserveServe(context.Background(), servedEvent(float64(i)))
		b.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	ae, be := a.Events(Filter{}), b.Events(Filter{})
	if len(ae) == 0 || len(ae) == n {
		t.Fatalf("rate 0.25 captured %d of %d — policy not sampling", len(ae), n)
	}
	if len(ae) != len(be) {
		t.Fatalf("identical streams captured %d vs %d events", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Seq != be[i].Seq {
			t.Fatalf("capture #%d: seq %d vs %d — sampling not deterministic", i, ae[i].Seq, be[i].Seq)
		}
	}
}

// TestPolicySlowestAlwaysCaptured: the tail-latency tier keeps the window's
// slowest requests even when the sample tier would drop them.
func TestPolicySlowestAlwaysCaptured(t *testing.T) {
	r := newTest(t, Config{SampleRate: 0, SlowestN: 2, Window: time.Hour})
	lat := []time.Duration{ // ms
		10 * time.Millisecond, // fills slot 1
		20 * time.Millisecond, // fills slot 2
		1 * time.Millisecond,  // below both: dropped
		30 * time.Millisecond, // evicts 10ms
	}
	for i, d := range lat {
		ev := servedEvent(float64(i))
		ev.Latency = d
		r.ObserveServe(context.Background(), ev)
	}
	evs := r.Events(Filter{})
	if len(evs) != 3 {
		t.Fatalf("captured %d events, want 3 (two window fills + one eviction)", len(evs))
	}
	for _, e := range evs {
		if e.Reason != "slow" {
			t.Fatalf("event %+v captured as %q, want slow", e, e.Reason)
		}
	}
	if len(r.Events(Filter{MinDur: 25 * time.Millisecond})) != 1 {
		t.Fatal("minDur filter did not isolate the slowest event")
	}
}

// TestZeroCapacityRing: a negative capacity keeps nothing in memory but
// the policy counters (and disk mirroring, when configured) still run —
// the recorder must not panic or divide by zero.
func TestZeroCapacityRing(t *testing.T) {
	r := newTest(t, Config{Capacity: -1, SampleRate: 1})
	for i := 0; i < 50; i++ {
		r.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	r.ObserveServe(context.Background(), errEvent(infer.ErrOverloaded))
	if evs := r.Events(Filter{}); len(evs) != 0 {
		t.Fatalf("zero-capacity ring holds %d events", len(evs))
	}
	s := r.Stats()
	if s.Seen != 51 || s.Captured() != 51 || s.RingEvents != 0 {
		t.Fatalf("stats = %+v, want 51 seen and captured, 0 in ring", s)
	}
}

// TestRingBoundedOverwrite: the ring never grows past capacity; old events
// are overwritten (and counted) rather than accumulated.
func TestRingBoundedOverwrite(t *testing.T) {
	r := newTest(t, Config{Capacity: 8, Shards: 2, SampleRate: 1, SlowestN: -1})
	const n = 100
	for i := 0; i < n; i++ {
		r.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	evs := r.Events(Filter{})
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want capacity 8", len(evs))
	}
	// Newest-first: the head must be the last capture.
	if evs[0].Seq != n {
		t.Fatalf("head seq = %d, want %d", evs[0].Seq, n)
	}
	s := r.Stats()
	if s.Overwritten != n-8 || s.RingEvents != 8 {
		t.Fatalf("stats = %+v, want %d overwritten", s, n-8)
	}
}

// TestErrorsCapturedUnderConcurrentLoad hammers the recorder from many
// goroutines mixing errors into sampled traffic and asserts not one error
// was lost. Run with -race this also proves the lock striping is sound.
func TestErrorsCapturedUnderConcurrentLoad(t *testing.T) {
	r := newTest(t, Config{Capacity: 4096, SampleRate: 0.1, SlowestN: 4, Window: 50 * time.Millisecond})
	const (
		workers = 8
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if i%5 == 0 {
					r.ObserveServe(context.Background(), errEvent(infer.ErrOverloaded))
				} else {
					r.ObserveServe(context.Background(), servedEvent(float64(i)))
				}
			}
		}(w)
	}
	wg.Wait()
	wantErrs := workers * perW / 5
	var gotErrs int
	for _, e := range r.Events(Filter{ErrorsOnly: true}) {
		if e.Err == "overloaded" {
			gotErrs++
		}
	}
	if gotErrs != wantErrs {
		t.Fatalf("ring holds %d error events, want all %d", gotErrs, wantErrs)
	}
	s := r.Stats()
	if s.Seen != workers*perW || s.CapturedError != uint64(wantErrs) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEventQuantization: captured events carry the cache's grid cells and
// time slot; non-finite or negative inputs quantize to -1, never panic.
func TestEventQuantization(t *testing.T) {
	r := newTest(t, Config{SampleRate: 1, Cells: cellsStub{}, Slotter: slotterForTest()})
	ev := servedEvent(7)
	r.ObserveServe(context.Background(), ev)
	bad := errEvent(infer.ErrInvalidInput)
	bad.OD.Origin.X = nan()
	bad.OD.DepartSec = -5
	r.ObserveServe(context.Background(), bad)

	evs := r.Events(Filter{})
	good, broken := evs[1], evs[0]
	if good.OriginCell != 1 || good.DestCell != 1 || good.Slot != 2 {
		t.Fatalf("quantized event = %+v, want cells 1/1 slot 2", good)
	}
	if broken.OriginCell != -1 || broken.Slot != -1 {
		t.Fatalf("unquantizable event = %+v, want -1 cells and slot", broken)
	}
	if broken.DestCell != 1 {
		t.Fatalf("finite dest must still quantize: %+v", broken)
	}
}

// TestEventsFilters: generation, epoch (including epoch 0), and limit.
func TestEventsFilters(t *testing.T) {
	r := newTest(t, Config{SampleRate: 1})
	for i := 0; i < 6; i++ {
		ev := servedEvent(float64(i))
		ev.Generation = uint64(1 + i%2)
		if i%3 == 0 {
			ev.TrafficEpoch = 9
		}
		r.ObserveServe(context.Background(), ev)
	}
	if got := len(r.Events(Filter{Generation: 2})); got != 3 {
		t.Fatalf("generation filter kept %d, want 3", got)
	}
	if got := len(r.Events(Filter{Epoch: 9, HasEpoch: true})); got != 2 {
		t.Fatalf("epoch=9 filter kept %d, want 2", got)
	}
	if got := len(r.Events(Filter{Epoch: 0, HasEpoch: true})); got != 4 {
		t.Fatalf("epoch=0 filter kept %d, want 4", got)
	}
	if got := len(r.Events(Filter{Limit: 2})); got != 2 {
		t.Fatal("limit filter ignored")
	}
}

// cellsStub quantizes every finite point to cell 1.
type cellsStub struct{}

func (cellsStub) CellIndex(geo.Point) int { return 1 }

func nan() float64 {
	var zero float64
	return zero / zero
}

// slotterForTest slots at 5-minute granularity, so DepartSec 600 → slot 2.
func slotterForTest() *timeslot.Slotter { return timeslot.MustNew(5 * time.Minute) }
