// Package obs is the stdlib-only observability substrate for the deepod
// serving and training pipelines: atomic counters, gauges and fixed-bucket
// histograms collected in a process-global Registry, a span/trace API for
// request-scoped diagnosis, a Prometheus-text exposition handler for
// GET /metrics, HTTP middleware that accounts requests by route and status
// class, a tail-sampling trace store served at GET /debug/traces, a
// slog.Handler decorator that stamps log lines with the trace ID, and a
// runtime stats sampler (goroutines, heap, GC) feeding registry gauges.
// Its TailSampler and Ring are the one tail-sampling policy and the one
// bounded buffer the other observability packages build on.
//
// Everything is safe for concurrent use. Metric mutation is lock-free
// (atomics); metric creation takes a registry lock once per (name, labels)
// identity, so hot paths should hold on to the returned *Counter /
// *Gauge / *Histogram rather than re-resolving them per event: re-resolving
// takes only read locks, but sorts and joins the label list every time.
// StartSpan and the HTTP middleware keep their handles for that reason.
//
// Spans serve two layers at once: every End records into the aggregate
// tte_span_seconds{span} histogram exactly as before, and when the context
// carries a Trace (started by the HTTP middleware or StartTrace) the span
// also joins that request's tree with its parent link, typed attributes
// and error status. On untraced contexts the attribute setters are no-ops,
// so instrumented code pays near-zero cost outside a traced request.
//
// Metric naming follows the Prometheus conventions: `tte_` prefix,
// `_total` suffix on counters, `_seconds` on duration histograms. The
// canonical families used across the repo:
//
//	tte_http_requests_total{route,code}   requests by route and status class
//	tte_http_request_seconds{route}       request latency histogram
//	tte_http_in_flight                    requests currently being served
//	tte_span_seconds{span}                pipeline stage durations
//	                                      (decode, match, encode, estimate,
//	                                      mapmatch.viterbi, ...)
//	tte_trace_completed_total             traces finished (kept or not)
//	tte_trace_retained_total{reason}      traces kept by tail sampling
//	tte_train_phase_seconds{phase}        offline-training phase durations
//	tte_train_epoch                       current training epoch
//	tte_train_samples_total               cumulative training samples
//	tte_go_*                              process health (see runtime.go)
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// defaultRegistry is the process-global registry used by the package-level
// helpers and, by convention, every instrumented package in this repo.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// SpanFamily is the histogram family package-level spans record into.
const SpanFamily = "tte_span_seconds"

type spanCtxKey struct{}

// clockBase is what span starts are measured from: time.Since on a fixed
// base is one monotonic clock read, time.Now reads the wall clock as well.
var clockBase = time.Now()

// Span measures one timed stage of a pipeline. A Span is started with
// StartSpan and finished exactly once with End; End records the duration
// into the registry histogram tte_span_seconds{span="<name>"} and, if a
// span logger is installed, emits one structured log line.
//
// When the context given to StartSpan carries a Trace, the span is also
// recorded into that trace's tree: Set* attach typed attributes and Fail
// marks the span (and trace) errored. On untraced spans those calls are
// no-ops, so the same instrumentation runs on every request at negligible
// cost and only traced requests pay for attribute storage.
type Span struct {
	// Context is the context the span was started under. The span is itself
	// the context StartSpan returns (see Value), so starting one allocates
	// the span and nothing else.
	context.Context

	name  string
	start time.Duration // since clockBase
	hist  *Histogram
	done  atomic.Bool

	// Trace linkage. trace/index/parentIdx are written by Trace.register
	// inside StartSpan, before the span is visible to other goroutines;
	// the mutable fields below are guarded by mu.
	trace     *Trace
	index     int
	parentIdx int

	mu     sync.Mutex
	dur    time.Duration
	attrs  []Attr
	errMsg string
}

// Value makes the span the innermost span of every context derived from it.
func (s *Span) Value(key any) any {
	if key == (spanCtxKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// StartSpan begins a named span recording into reg's tte_span_seconds
// family. The returned context carries the span so nested StartSpan calls
// link to their parent, and — when ctx carries a Trace — the span joins
// the trace's tree.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		Context:   ctx,
		name:      name,
		start:     time.Since(clockBase),
		hist:      r.spanHist(name),
		parentIdx: -1,
	}
	if t := TraceFrom(ctx); t != nil {
		p, _ := ctx.Value(spanCtxKey{}).(*Span)
		t.register(s, p)
	}
	return s, s
}

// spanHist resolves a span name to its tte_span_seconds{span=name} histogram
// once per registry; after that a span costs one lock-free map load instead
// of a label sort/join and three registry locks.
func (r *Registry) spanHist(name string) *Histogram {
	if h, ok := r.spanHists.Load(name); ok {
		return h.(*Histogram)
	}
	h := r.Histogram(SpanFamily, DefBuckets, "span", name)
	r.spanHists.Store(name, h)
	return h
}

// StartSpan is Registry.StartSpan on the default registry.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultRegistry.StartSpan(ctx, name)
}

// End finishes the span, records its duration and returns it. Only the
// first End takes effect; later calls return the duration since start
// without recording again. Ending from a goroutine other than the starter
// is fine (the infer queue span is ended by the worker that picks the job
// up).
func (s *Span) End() time.Duration {
	d := time.Since(clockBase) - s.start
	if !s.done.CompareAndSwap(false, true) {
		return d
	}
	s.hist.Observe(d.Seconds())
	if s.trace != nil {
		// Traced spans carry the trace ID into the histogram as an
		// exemplar when recording is on; untraced spans (the common case)
		// never reach this branch, so the disabled path stays a nil check.
		if exemplarsOn.Load() {
			s.hist.recordExemplar(d.Seconds(), s.trace.id)
		}
		s.mu.Lock()
		s.dur = d
		s.mu.Unlock()
	}
	return d
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// SetAttr attaches a typed attribute to the span. No-op on untraced spans,
// so hot-path instrumentation can set attributes unconditionally.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.trace == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// setTyped is SetAttr for the typed setters: it asks whether the span is
// traced before v is boxed, so an untraced span allocates nothing here.
func setTyped[T any](s *Span, key string, v T) {
	if s != nil && s.trace != nil {
		s.SetAttr(key, v)
	}
}

// SetInt attaches an integer attribute (batch size, queue depth, status).
func (s *Span) SetInt(key string, v int) { setTyped(s, key, v) }

// SetFloat attaches a float attribute (queue wait ms, cache age).
func (s *Span) SetFloat(key string, v float64) { setTyped(s, key, v) }

// SetBool attaches a boolean attribute (cache hit).
func (s *Span) SetBool(key string, v bool) { setTyped(s, key, v) }

// SetStr attaches a string attribute (shed reason, checkpoint hash).
func (s *Span) SetStr(key, v string) { setTyped(s, key, v) }

// Fail records err on the span and flags the whole trace as errored so
// tail sampling always retains it. No-op for nil errors or untraced spans.
func (s *Span) Fail(err error) {
	if s == nil || err == nil || s.trace == nil {
		return
	}
	s.mu.Lock()
	if s.errMsg == "" {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
	s.trace.noteError()
}

// TimeCtx starts a timer on the default registry's tte_span_seconds family
// under ctx — preserving span parentage and trace membership — and returns
// the function that stops it, for one-line instrumentation:
//
//	defer obs.TimeCtx(ctx, "mapmatch.viterbi")()
func TimeCtx(ctx context.Context, name string) func() time.Duration {
	_, s := defaultRegistry.StartSpan(ctx, name)
	return s.End
}
