package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func tracedMiddleware(t *testing.T) (*TraceStore, http.Handler) {
	t.Helper()
	reg := NewRegistry()
	ts := NewTraceStore(reg, TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	h := Middleware{Registry: reg, Traces: ts}.Wrap("/estimate",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, s := StartSpan(r.Context(), NewStage("work"))
			s.End()
			if r.URL.Query().Get("fail") == "1" {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			w.Write([]byte("ok"))
		}))
	return ts, h
}

func TestMiddlewareMintsAndEchoesTraceID(t *testing.T) {
	ts, h := tracedMiddleware(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate", nil))
	id := rec.Header().Get(TraceHeader)
	if id == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	if _, ok := ParseTraceID(id); !ok {
		t.Fatalf("minted ID %q invalid", id)
	}
	recs := ts.Traces(TraceFilter{})
	if len(recs) != 1 || recs[0].TraceID != id {
		t.Fatalf("retained traces = %+v, want one with ID %q", recs, id)
	}
	if recs[0].Spans[0].Name != "/estimate" || recs[0].Spans[0].Parent != -1 {
		t.Fatalf("root span = %+v", recs[0].Spans[0])
	}
	if len(recs[0].Spans) != 2 || recs[0].Spans[1].Name != "work" || recs[0].Spans[1].Parent != 0 {
		t.Fatalf("handler span not linked under root: %+v", recs[0].Spans)
	}
}

func TestMiddlewareAdoptsClientTraceID(t *testing.T) {
	_, h := tracedMiddleware(t)
	req := httptest.NewRequest(http.MethodGet, "/estimate", nil)
	req.Header.Set(TraceHeader, "client-supplied-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(TraceHeader); got != "client-supplied-42" {
		t.Fatalf("echoed ID = %q, want adoption", got)
	}
	// A malformed client ID is replaced, not echoed.
	req = httptest.NewRequest(http.MethodGet, "/estimate", nil)
	req.Header.Set(TraceHeader, "bad id\nwith newline")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get(TraceHeader)
	if got == "" || strings.Contains(got, "\n") || got == "bad id\nwith newline" {
		t.Fatalf("malformed client ID handled badly: %q", got)
	}
}

func TestMiddlewareRetainsErrorTraces(t *testing.T) {
	reg := NewRegistry()
	ts := NewTraceStore(reg, TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	h := Middleware{Registry: reg, Traces: ts}.Wrap("/estimate",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("fail") == "1" {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			w.Write([]byte("ok"))
		}))
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate", nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate?fail=1", nil))

	recs := ts.Traces(TraceFilter{})
	if len(recs) != 1 {
		t.Fatalf("retained %d traces, want only the error", len(recs))
	}
	r := recs[0]
	if !r.Error || r.Retained != "error" {
		t.Fatalf("record = %+v", r)
	}
	attrs := map[string]any{}
	for _, a := range r.Spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["status"] != float64(500) && attrs["status"] != 500 {
		t.Fatalf("root attrs = %v, want status 500", attrs)
	}
	if r.Spans[0].Error == "" {
		t.Fatalf("root span of 500 response has no error: %+v", r.Spans[0])
	}
}

func TestMiddlewareStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewTraceHandler(slog.NewTextHandler(&buf, nil)))
	reg := NewRegistry()
	ts := NewTraceStore(reg, TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	status := http.StatusOK
	h := Middleware{Registry: reg, Logger: logger, Traces: ts}.Wrap("/estimate",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
		}))
	do := func() string {
		buf.Reset()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate", nil))
		return buf.String()
	}
	// Every success logs exactly one line at Info.
	for i := 0; i < 3; i++ {
		line := do()
		if n := strings.Count(line, "\n"); n != 1 {
			t.Fatalf("request %d logged %d lines, want 1: %q", i, n, line)
		}
		for _, want := range []string{"level=INFO", "route=/estimate", "status=200", "trace_id="} {
			if !strings.Contains(line, want) {
				t.Fatalf("access log line missing %q: %s", want, line)
			}
		}
	}
	status = http.StatusBadRequest
	if line := do(); !strings.Contains(line, "level=WARN") {
		t.Fatalf("4xx log = %q, want WARN", line)
	}
	status = http.StatusInternalServerError
	if line := do(); !strings.Contains(line, "level=ERROR") {
		t.Fatalf("5xx log = %q, want ERROR", line)
	}
}

func TestTraceHandlerPassthrough(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewTraceHandler(slog.NewTextHandler(&buf, nil))).With("app", "test")
	ctx, _ := StartTrace(nil, "slog-tid", "/x")
	logger.InfoContext(ctx, "hello", "k", "v")
	line := buf.String()
	for _, want := range []string{"trace_id=slog-tid", "app=test", "k=v", "msg=hello"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line missing %q: %s", want, line)
		}
	}
	buf.Reset()
	logger.Info("no trace")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("untraced line grew a trace_id: %s", buf.String())
	}
}
