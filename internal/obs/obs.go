// Package obs is the stdlib-only observability substrate for the deepod
// serving and training pipelines: atomic counters, gauges and fixed-bucket
// histograms collected in a process-global Registry, a span/trace API for
// request-scoped diagnosis, a Prometheus-text exposition handler for
// GET /metrics, HTTP middleware that accounts requests by route and status
// class, a tail-sampling trace store served at GET /debug/traces, a
// slog.Handler decorator that stamps log lines with the trace ID, and
// runtime gauges (goroutines, heap, GC) read at scrape time.
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
// tte_span_seconds{span} histogram, and when the context carries a Trace
// (started by the HTTP middleware or StartTrace) the span also joins that
// request's tree with its parent link, typed attributes and error status.
// On untraced contexts a Span is a value that allocates nothing and leaves
// the context as it was, and the attribute setters are no-ops, so outside
// a traced request a stage costs two clock reads, a name lookup and one
// histogram observation.
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

// Span measures one timed stage of a pipeline. StartSpan returns it by
// value and End finishes it exactly once, recording the duration into the
// registry histogram tte_span_seconds{span="<name>"}.
//
// When the context given to StartSpan carries a Trace, the span also joins
// that trace's tree: Set* attach typed attributes and Fail marks the span
// (and trace) errored. On untraced spans those calls are no-ops and the
// span is only its start, its histogram and its done flag, so the same
// instrumentation runs on every request without allocating and only
// traced requests pay for the tree.
//
// A started Span is not copied: two copies would each record on End. Its
// atomic done flag makes go vet's copylocks check report a copy, so a span
// that outlives its starter's frame (the engine's queue span) lives in one
// place, ended through a pointer by whichever side finishes it.
type Span struct {
	start time.Duration // since clockBase
	hist  *Histogram
	done  atomic.Bool // set by the first End
	trace *tracedSpan // nil unless the span joined a trace
}

// tracedSpan is the part of a span that only a traced request allocates.
// It is the context StartSpan returns (see Value), so spans started under
// it find it as their parent.
type tracedSpan struct {
	context.Context

	name  string
	start time.Duration

	// Trace linkage, written by Trace.register inside StartSpan before the
	// span is visible to other goroutines; tr stays nil when the trace's
	// span cap dropped the span. The mutable fields below are guarded by mu.
	tr        *Trace
	index     int
	parentIdx int

	mu     sync.Mutex
	dur    time.Duration
	attrs  []Attr
	errMsg string
}

// Value makes the span the innermost span of every context derived from it.
func (t *tracedSpan) Value(key any) any {
	if key == (spanCtxKey{}) {
		return t
	}
	return t.Context.Value(key)
}

// StartSpan begins a named span recording into reg's tte_span_seconds
// family. On an untraced context it returns ctx itself and allocates
// nothing. When ctx carries a Trace, the span joins the trace's tree and
// the returned context carries it, so nested StartSpan calls link to it as
// their parent.
func (r *Registry) StartSpan(ctx context.Context, name string) (sctx context.Context, s Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, s.start, s.hist = ctx, time.Since(clockBase), r.spanHist(name)
	if t := TraceFrom(ctx); t != nil {
		ts := &tracedSpan{Context: ctx, name: name, start: s.start, parentIdx: -1}
		p, _ := ctx.Value(spanCtxKey{}).(*tracedSpan)
		t.register(ts, p)
		if ts.tr != nil {
			s.trace = ts
		}
		sctx = ts
	}
	return // bare: returning a Span variable is a copy vet reports
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
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
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
	if t := s.trace; t != nil {
		// Traced spans carry the trace ID into the histogram as an
		// exemplar when recording is on; untraced spans (the common case)
		// never reach this branch, so the disabled path stays a nil check.
		if exemplarsOn.Load() {
			s.hist.recordExemplar(d.Seconds(), t.tr.id)
		}
		t.mu.Lock()
		t.dur = d
		t.mu.Unlock()
	}
	return d
}

// SetAttr attaches a typed attribute to the span. No-op on untraced spans,
// so hot-path instrumentation can set attributes unconditionally.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.trace == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
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
	t := s.trace
	t.mu.Lock()
	if t.errMsg == "" {
		t.errMsg = err.Error()
	}
	t.mu.Unlock()
	t.tr.noteError()
}
