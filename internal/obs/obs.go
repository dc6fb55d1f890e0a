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
// A span starts from a Stage, a name declared once (NewStage) whose
// histogram every Registry keeps in a slot at the stage's index. On
// untraced contexts a Span is a value that allocates nothing and leaves the
// context as it was, and the attribute setters are no-ops, so outside a
// traced request a stage costs one slot load, two clock reads and one
// histogram observation; Span.Next starts a stage that abuts the previous
// one from the clock read that ends it.
//
// Metric naming follows the Prometheus conventions: `tte_` prefix,
// `_total` suffix on counters, `_seconds` on duration histograms. The
// canonical families used across the repo:
//
//	tte_http_requests_total{route,code}   requests by route and status class
//	tte_http_request_seconds{route}       request latency histogram
//	tte_http_in_flight                    requests currently being served
//	tte_span_seconds{span}                pipeline stage durations
//	                                      (decode, infer.*, encode, estimate,
//	                                      mapmatch.point, ...)
//	tte_trace_completed_total             traces finished (kept or not)
//	tte_trace_retained_total{reason}      traces kept by tail sampling
//	tte_train_phase_seconds{phase}        offline-training phase durations
//	tte_train_epoch                       current training epoch
//	tte_train_samples_total               cumulative training samples
//	tte_go_*                              process health (see runtime.go)
package obs

import (
	"context"
	"fmt"
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
	reg   *Registry   // the next stage's registry (Next)
	done  atomic.Bool // set by the first End
	trace *tracedSpan // nil unless the span joined a trace
}

// A Stage is a span name declared once, as a package-level var:
//
//	var stageDecode = obs.NewStage("decode")
//
// Each Registry keeps the stage's tte_span_seconds{span} histogram in the
// slot at the stage's index, filled by the stage's first span there, so a
// later start is one atomic load from an array: no map, no lock. The zero
// Stage is not declared, and no span may start from it.
type Stage struct {
	name string
	idx  uint8 // slot index, 1 .. maxStages-1
}

// maxStages bounds the distinct stages one process declares: every Registry
// holds a slot per stage. Stage names are code constants and mux routes.
const maxStages = 256

// stages is the process's stage table, by name.
var stages struct {
	mu     sync.Mutex
	byName map[string]Stage
}

// NewStage declares the span name name. The same name returns the same
// Stage, so a route's handle taken at mount time and a package var naming
// the same stage share a slot. It panics past maxStages-1 names.
func NewStage(name string) Stage {
	stages.mu.Lock()
	defer stages.mu.Unlock()
	if st, ok := stages.byName[name]; ok {
		return st
	}
	if stages.byName == nil {
		stages.byName = make(map[string]Stage)
	}
	idx := len(stages.byName) + 1 // 0 is the zero Stage's
	if idx >= maxStages {
		panic(fmt.Sprintf("obs: stage %q: more than %d stages declared", name, maxStages-1))
	}
	st := Stage{name: name, idx: uint8(idx)}
	stages.byName[name] = st
	return st
}

// stageHist resolves st to its tte_span_seconds{span} histogram in r: one
// atomic load once the stage's first span here filled the slot. Two first
// spans racing both resolve the family's one child.
func (r *Registry) stageHist(st Stage) *Histogram {
	if h := r.stages[st.idx].Load(); h != nil {
		return h
	}
	if st.idx == 0 {
		panic("obs: span started from the zero Stage; declare it with NewStage")
	}
	h := r.Histogram(SpanFamily, DefBuckets, "span", st.name)
	r.stages[st.idx].Store(h)
	return h
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

// StartSpan begins a span of stage st recording into reg's
// tte_span_seconds family. On an untraced context it returns ctx itself and
// allocates nothing. When ctx carries a Trace, the span joins the trace's
// tree and the returned context carries it, so nested StartSpan calls link
// to it as their parent.
func (r *Registry) StartSpan(ctx context.Context, st Stage) (context.Context, Span) {
	return r.start(ctx, st, time.Since(clockBase))
}

// start is StartSpan with the start read: now, since clockBase.
func (r *Registry) start(ctx context.Context, st Stage, now time.Duration) (sctx context.Context, s Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, s.start, s.hist, s.reg = ctx, now, r.stageHist(st), r
	if t := TraceFrom(ctx); t != nil {
		ts := &tracedSpan{Context: ctx, name: st.name, start: now, parentIdx: -1}
		p, _ := ctx.Value(spanCtxKey{}).(*tracedSpan)
		t.register(ts, p)
		if ts.tr != nil {
			s.trace = ts
		}
		sctx = ts
	}
	return // bare: returning a Span variable is a copy vet reports
}

// StartSpan is Registry.StartSpan on the default registry.
func StartSpan(ctx context.Context, st Stage) (context.Context, Span) {
	return defaultRegistry.StartSpan(ctx, st)
}

// Next ends s and starts stage st under ctx, in s's registry, from the one
// clock read: the time between the two stages is charged to s alone, so
// stages that run back to back tile the request. ctx is the next span's
// parent, as for StartSpan; s must have been started.
func (s *Span) Next(ctx context.Context, st Stage) (context.Context, Span) {
	now := time.Since(clockBase)
	s.end(now)
	return s.reg.start(ctx, st, now)
}

// Start is the clock reading the span started at: a time.Time with a
// monotonic reading, so a caller that needs the time a stage began (the
// engine's cache, for its TTL) reads no clock of its own.
func (s *Span) Start() time.Time { return clockBase.Add(s.start) }

// End finishes the span, records its duration and returns it. Only the
// first End takes effect; later calls return the duration since start
// without recording again. Ending from a goroutine other than the starter
// is fine (the infer queue span is ended by the worker that picks the job
// up).
func (s *Span) End() time.Duration { return s.end(time.Since(clockBase)) }

// end is End at now, since clockBase.
func (s *Span) end(now time.Duration) time.Duration {
	d := now - s.start
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
