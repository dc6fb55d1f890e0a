package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkSpanUntraced is the hot-path cost every request pays: a span on
// a context with no trace attached (sampling effectively disabled).
func BenchmarkSpanUntraced(b *testing.B) {
	reg := NewRegistry()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := reg.StartSpan(ctx, "bench")
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
	for i := 0; i < b.N; i++ {
		// A fresh trace every maxTraceSpans spans so registration never hits
		// the per-trace cap and we keep measuring the full path.
		if i%maxTraceSpans == 0 {
			tctx, _ = StartTrace(ctx, TraceID(fmt.Sprintf("b%d", i)), "/bench")
		}
		_, s := reg.StartSpan(tctx, "bench")
		s.SetInt("k", i)
		s.End()
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
func TestUntracedSpanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	reg := NewRegistry()
	ctx := context.Background()
	_, s := reg.StartSpan(ctx, "gate")
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

// TestUntracedSpanAllocs counts what the whole untraced span — StartSpan,
// the attribute setters, End — allocates: nothing. The span is a value, the
// context comes back as it went in, and no label string or boxed attribute
// value is built. A count repeats on any machine; the nanoseconds of
// BenchmarkSpanUntraced do not.
func TestUntracedSpanAllocs(t *testing.T) {
	reg := NewRegistry()
	type reqKey struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), reqKey{}, "request"))
	defer cancel()
	outer, root := reg.StartSpan(ctx, "gate.outer")
	defer root.End()
	for name, c := range map[string]context.Context{"background": context.Background(), "request": ctx, "nested": outer} {
		if a := testing.AllocsPerRun(1000, func() {
			_, s := reg.StartSpan(c, "gate")
			s.SetInt("batch", 4096)
			s.SetFloat("wait_ms", 1.5)
			s.SetBool("hit", false)
			s.SetStr("snapshot", name)
			s.End()
		}); a != 0 {
			t.Errorf("untraced span under a %s context allocates %v times, want 0", name, a)
		}
	}
}
