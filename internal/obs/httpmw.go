package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// Logf is a printf-style logging hook (log.Printf-compatible).
type Logf func(format string, args ...any)

// TraceHeader is the request/response header carrying the trace ID. An
// incoming value passing ParseTraceID is adopted (so callers and upstream
// proxies can stitch traces together); otherwise a fresh ID is minted.
// The ID is always echoed on the response.
const TraceHeader = "X-Trace-Id"

// Middleware instruments HTTP handlers with per-route metrics and,
// optionally, request-scoped tracing and structured logging. The zero
// value plus a Registry records the metrics alone.
type Middleware struct {
	// Registry receives the request metrics (nil uses the default).
	Registry *Registry
	// Logger, when set, emits one structured log line per request: 5xx at
	// Error, 4xx at Warn, 2xx/3xx at Info. Lines carry trace_id when
	// Logger's handler is (or wraps) a TraceHandler.
	Logger *slog.Logger
	// Traces enables tracing: each request gets a trace (ID from
	// X-Trace-Id or generated, echoed in the response), a root span named
	// after the route, and the finished trace is offered to the store.
	Traces *TraceStore
}

// Wrap instruments h with per-route accounting against the registry:
//
//	tte_http_requests_total{route,code}  counter (code is the status class)
//	tte_http_request_seconds{route}      latency histogram
//	tte_http_in_flight                   gauge across all instrumented routes
//
// plus the tracing and logging configured on the Middleware. route should
// be the mux pattern the handler is registered under — using it (rather
// than the request path) keeps label cardinality bounded.
func (mw Middleware) Wrap(route string, h http.Handler) http.Handler {
	reg := mw.Registry
	if reg == nil {
		reg = Default()
	}
	reg.Help("tte_http_requests_total", "HTTP requests by route and status class.")
	reg.Help("tte_http_request_seconds", "HTTP request latency in seconds by route.")
	reg.Help("tte_http_in_flight", "HTTP requests currently being served.")
	latency := reg.Histogram("tte_http_request_seconds", DefBuckets, "route", route)
	inFlight := reg.Gauge("tte_http_in_flight")
	// One requests_total counter per status class, resolved when the class
	// first occurs on this route, so a class that never did is not exported.
	var byClass [len(statusClasses)]atomic.Pointer[Counter]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Inc()
		defer inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w}

		req := r
		var tr *Trace
		var root Span
		if mw.Traces != nil {
			id, ok := ParseTraceID(r.Header.Get(TraceHeader))
			if !ok {
				id = NewTraceID()
			}
			w.Header().Set(TraceHeader, string(id))
			ctx, t := StartTrace(r.Context(), id, route)
			ctx, root = reg.StartSpan(ctx, route)
			tr = t
			req = r.WithContext(ctx)
		}

		h.ServeHTTP(sw, req)

		d := time.Since(start)
		latency.Observe(d.Seconds())
		if tr != nil && exemplarsOn.Load() {
			// Traced requests stamp the route-latency bucket with their
			// trace ID; untraced requests never take this branch.
			latency.recordExemplar(d.Seconds(), tr.id)
		}
		code := sw.Status()
		ci := statusClass(code)
		requests := byClass[ci].Load()
		if requests == nil {
			requests = reg.Counter("tte_http_requests_total", "route", route, "code", statusClasses[ci])
			byClass[ci].Store(requests)
		}
		requests.Inc()
		if tr != nil {
			root.SetInt("status", code)
			root.SetInt("bytes", int(sw.bytes))
			if code >= 500 {
				root.Fail(fmt.Errorf("HTTP %d", code))
			}
			rd := root.End()
			mw.Traces.Offer(tr, rd)
		}
		if mw.Logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.Int("status", code),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)),
			}
			ctx := req.Context()
			switch {
			case code >= 500:
				mw.Logger.LogAttrs(ctx, slog.LevelError, "request", attrs...)
			case code >= 400:
				mw.Logger.LogAttrs(ctx, slog.LevelWarn, "request", attrs...)
			default:
				mw.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
			}
		}
	})
}

// statusWriter captures the status code and body size written downstream.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Status returns the response status, defaulting to 200 when the handler
// never called WriteHeader.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// statusClasses are the values of tte_http_requests_total's code label.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"}

// statusClass maps a status code to its index in statusClasses:
// 204 -> "2xx", 404 -> "4xx", anything outside 100..599 -> "other".
func statusClass(code int) int {
	if code < 100 || code > 599 {
		return len(statusClasses) - 1
	}
	return code/100 - 1
}
