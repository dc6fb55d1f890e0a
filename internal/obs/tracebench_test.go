package obs

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The stages of one cold /estimate, named as the serve, infer, mapmatch
// and core packages declare them.
var (
	coldDecode = NewStage("decode")
	coldCache  = NewStage("infer.cache")
	coldQueue  = NewStage("infer.queue")
	coldBatch  = NewStage("infer.batch")
	coldMatch  = NewStage("infer.match")
	coldPoint  = NewStage("mapmatch.point")
	coldModel  = NewStage("infer.model")
	coldEncode = NewStage("encode")
	coldEst    = NewStage("estimate")
)

// coldStages is how many spans coldRequest starts.
const coldStages = 10

// coldRequest runs the span sequence of one cold /estimate under ctx as the
// handlers and the engine run it on a miss served on its caller: the same
// starts, setters, hand-overs (Next) and ends, with no work between them.
func coldRequest(ctx context.Context, reg *Registry) {
	_, s := reg.StartSpan(ctx, coldDecode)
	s.End()
	_, s = reg.StartSpan(ctx, coldCache)
	s.SetBool("hit", false)
	_, s = s.Next(ctx, coldQueue)
	s.SetInt("queue_depth", 0)
	s.SetFloat("wait_ms", 0)
	bctx, b := s.Next(ctx, coldBatch)
	b.SetInt("batch_size", 1)
	b.SetStr("snapshot", "m1")
	mctx, m := reg.StartSpan(bctx, coldMatch)
	for range 2 {
		_, p := reg.StartSpan(mctx, coldPoint)
		p.End()
	}
	ectx, m := m.Next(bctx, coldModel)
	_, f := reg.StartSpan(ectx, coldEncode)
	_, f = f.Next(ectx, coldEst)
	f.End()
	m.End()
	b.End()
}

// BenchmarkSpanUntraced is the hot-path cost every request pays: a span on
// a context with no trace attached (sampling effectively disabled).
func BenchmarkSpanUntraced(b *testing.B) {
	reg := NewRegistry()
	ctx := context.Background()
	st := NewStage("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := reg.StartSpan(ctx, st)
		s.SetInt("k", i)
		s.End()
	}
}

// BenchmarkSpanTraced is the same span inside a live trace: registration,
// parent linking, and attribute storage included.
func BenchmarkSpanTraced(b *testing.B) {
	reg := NewRegistry()
	ctx := context.Background()
	b.ReportAllocs()
	var tctx context.Context
	st := NewStage("bench")
	for i := 0; i < b.N; i++ {
		// A fresh trace every maxTraceSpans spans so registration never hits
		// the per-trace cap and we keep measuring the full path.
		if i%maxTraceSpans == 0 {
			tctx, _ = StartTrace(ctx, TraceID(fmt.Sprintf("b%d", i)), "/bench")
		}
		_, s := reg.StartSpan(tctx, st)
		s.SetInt("k", i)
		s.End()
	}
}

// BenchmarkSpanStages is one cold request's whole untraced span sequence
// (coldRequest, coldStages spans); it allocates nothing.
func BenchmarkSpanStages(b *testing.B) {
	reg := NewRegistry()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldRequest(ctx, reg)
	}
}

// BenchmarkTraceStoreOffer measures the tail-sampling decision for a trace
// that is not retained — the common case under load.
func BenchmarkTraceStoreOffer(b *testing.B) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	_, tr := StartTrace(context.Background(), "bench", "/estimate")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts.Offer(tr, time.Millisecond)
	}
}

// floorRequest is what coldRequest cannot do without: its 14 monotonic
// clock reads and, per stage, one done-flag CompareAndSwap and one
// histogram observation, with no span around them.
func floorRequest(h *Histogram, done *[coldStages]atomic.Bool) {
	var last time.Duration
	for i := range 14 {
		now := time.Since(clockBase)
		if i < coldStages {
			done[i].Store(false)
			if done[i].CompareAndSwap(false, true) {
				h.Observe((now - last).Seconds())
			}
		}
		last = now
	}
}

// gateIters is how many calls one timed attempt of a timing gate makes: a
// fixed count timed by hand takes milliseconds, where a testing.Benchmark
// at the default benchtime takes a second.
const gateIters = 1 << 21

// bestPerCall times run(gateIters) five times and returns the fastest
// attempt's cost per call: the best of five discards the attempts a
// preemption or a GC landed in.
func bestPerCall(run func(n int)) time.Duration {
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		run(gateIters)
		if d := time.Since(start) / gateIters; d < best {
			best = d
		}
	}
	return best
}

// TestUntracedSpanOverhead gates the per-span cost the trace layer adds to
// instrumented code when no trace is attached: the TraceFrom lookup plus
// the no-op attribute setters and Fail. These are nil checks — a handful of
// nanoseconds — so the bound below (low tens of ns, with slack for noisy CI
// machines) catches any accidental allocation or lock on the disabled path.
// What a whole span costs, clock reads included, is
// TestTelemetryDisabledOverhead's.
func TestUntracedSpanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	reg := NewRegistry()
	ctx := context.Background()
	_, s := reg.StartSpan(ctx, NewStage("gate"))
	defer s.End()

	best := bestPerCall(func(n int) {
		for i := 0; i < n; i++ {
			if tr := TraceFrom(ctx); tr != nil {
				t.Fatal("untraced context grew a trace")
			}
			s.SetInt("batch", i)
			s.SetBool("hit", false)
			s.SetStr("shed", "none")
			s.Fail(nil)
		}
	})
	const bound = 100 * time.Nanosecond
	if best > bound {
		t.Fatalf("disabled-tracing overhead = %v per span, want <= %v", best, bound)
	}
	t.Logf("disabled-tracing overhead: %v per span", best)
}

// TestTelemetryDisabledOverhead gates what instrumentation costs a cold
// request when no trace is attached and exemplars are off: coldRequest, the
// real StartSpan, setter, Next and End calls of its ten stages, under a
// request-scoped context, against floorRequest. The clock reads and atomics
// both do are most of either's cost and move with the machine (90–125 ns
// per stage for the floor on a shared 2-vCPU Xeon), so the bound is on the
// ratio: the median over 400 back-to-back pairs of 2⁹ requests each may be
// at most 1.43, where it measures 1.34–1.38. With an uncontended mutex
// added to End's disabled path it measures 1.49–1.54, with a 16-byte
// allocation 1.59–1.71 (twenty runs each, two builds). The ratio also
// moves with code layout: one build whose coldRequest started the two
// point spans with Next read 1.65–1.70 unmutated, where the same sequence
// read 1.40 in another binary, so re-measure before blaming End.
func TestTelemetryDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	SetExemplars(false)
	reg := NewRegistry()
	type reqKey struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), reqKey{}, "request"))
	defer cancel()
	if TraceFrom(ctx) != nil {
		t.Fatal("untraced context carries a trace")
	}
	h := NewHistogram(DefBuckets)
	var done [coldStages]atomic.Bool
	coldRequest(ctx, reg) // fill the stage slots
	const (
		n     = 1 << 9
		pairs = 400
		bound = 1.43
	)
	ratios := make([]float64, pairs)
	var stage time.Duration
	for i := range ratios {
		t0 := time.Now()
		for range n {
			coldRequest(ctx, reg)
		}
		t1 := time.Now()
		for range n {
			floorRequest(h, &done)
		}
		ratios[i] = float64(t1.Sub(t0)) / float64(time.Since(t1))
		stage += t1.Sub(t0)
	}
	slices.Sort(ratios)
	ratio := ratios[pairs/2]
	stage /= pairs * n * coldStages
	if ratio > bound {
		t.Fatalf("untraced stage = %.2f× its floor (%v a stage), want <= %.2f×", ratio, stage, bound)
	}
	t.Logf("untraced stage: %.2f× its floor, %v a stage (%d stages a request)", ratio, stage, coldStages)
}

// TestUntracedSpanAllocs counts what the whole untraced span — StartSpan,
// the attribute setters, End — and a cold request's stage sequence
// allocate: nothing. The span is a value, the
// context comes back as it went in, and no label string or boxed attribute
// value is built. A count repeats on any machine; the nanoseconds of
// BenchmarkSpanUntraced do not.
func TestUntracedSpanAllocs(t *testing.T) {
	reg := NewRegistry()
	type reqKey struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), reqKey{}, "request"))
	defer cancel()
	outer, root := reg.StartSpan(ctx, NewStage("gate.outer"))
	defer root.End()
	gate := NewStage("gate")
	for name, c := range map[string]context.Context{"background": context.Background(), "request": ctx, "nested": outer} {
		if a := testing.AllocsPerRun(1000, func() {
			_, s := reg.StartSpan(c, gate)
			s.SetInt("batch", 4096)
			s.SetFloat("wait_ms", 1.5)
			s.SetBool("hit", false)
			s.SetStr("snapshot", name)
			s.End()
		}); a != 0 {
			t.Errorf("untraced span under a %s context allocates %v times, want 0", name, a)
		}
	}
	if a := testing.AllocsPerRun(1000, func() { coldRequest(ctx, reg) }); a != 0 {
		t.Errorf("a cold request's untraced stages allocate %v times, want 0", a)
	}
}
