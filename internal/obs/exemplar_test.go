package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestExemplarRecording(t *testing.T) {
	SetExemplars(true)
	defer SetExemplars(false)

	r := NewRegistry()
	h := r.Histogram("ex_seconds", []float64{0.1, 1, 10}, "route", "/estimate")
	// What Middleware.Wrap does for a traced request's latency.
	observe := func(v float64, id TraceID) {
		h.Observe(v)
		h.recordExemplar(v, id)
	}
	observe(0.5, "aabbccdd00112233")
	observe(0.02, "deadbeefdeadbeef")
	h.Observe(5) // plain Observe never stores an exemplar

	ex := h.Exemplars()
	if len(ex) != 4 {
		t.Fatalf("exemplar slots = %d, want 4 (3 bounds + Inf)", len(ex))
	}
	if ex[0] == nil || ex[0].TraceID != "deadbeefdeadbeef" {
		t.Fatalf("bucket 0 exemplar = %+v, want trace deadbeefdeadbeef", ex[0])
	}
	if ex[1] == nil || ex[1].TraceID != "aabbccdd00112233" || ex[1].Value != 0.5 {
		t.Fatalf("bucket 1 exemplar = %+v, want trace aabbccdd00112233 value 0.5", ex[1])
	}
	if ex[2] != nil {
		t.Fatalf("bucket 2 exemplar = %+v, want nil (plain Observe)", ex[2])
	}
	if ex[1].Unix <= 0 {
		t.Fatalf("exemplar timestamp = %v, want > 0", ex[1].Unix)
	}

	// Last-write-wins within a bucket.
	observe(0.6, "ffffffffffffffff")
	if got := h.Exemplars()[1]; got.TraceID != "ffffffffffffffff" {
		t.Fatalf("bucket 1 exemplar after overwrite = %+v", got)
	}

	// Snapshot carries them through.
	var sample Sample
	for _, s := range r.Snapshot() {
		if s.Name == "ex_seconds" {
			sample = s
		}
	}
	if sample.Name == "" || len(sample.Exemplars) != 4 || sample.Exemplars[0] == nil {
		t.Fatalf("snapshot exemplars = %+v", sample.Exemplars)
	}
}

func TestExemplarDisabledStoresNothing(t *testing.T) {
	SetExemplars(false)
	r := NewRegistry()
	ctx, _ := StartTrace(context.Background(), "aabbccdd00112233", "/estimate")
	_, s := r.StartSpan(ctx, "off")
	s.End()
	h := r.Histogram(SpanFamily, DefBuckets, "span", "off")
	for i, e := range h.Exemplars() {
		if e != nil {
			t.Fatalf("bucket %d stored exemplar %+v while disabled", i, e)
		}
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 (Observe still records)", h.Count())
	}
}

func TestSpanEndRecordsExemplar(t *testing.T) {
	SetExemplars(true)
	defer SetExemplars(false)

	r := NewRegistry()
	ctx, _ := StartTrace(context.Background(), "0123456789abcdef", "/estimate")
	_, s := r.StartSpan(ctx, "estimate")
	s.End()

	ex := r.Histogram(SpanFamily, DefBuckets, "span", "estimate").Exemplars()
	var got *Exemplar
	for _, e := range ex {
		if e != nil {
			got = e
		}
	}
	if got == nil || got.TraceID != "0123456789abcdef" {
		t.Fatalf("span exemplar = %+v, want trace 0123456789abcdef", got)
	}

	// Untraced spans never store one.
	r2 := NewRegistry()
	_, s2 := r2.StartSpan(context.Background(), "estimate")
	s2.End()
	for _, e := range r2.Histogram(SpanFamily, DefBuckets, "span", "estimate").Exemplars() {
		if e != nil {
			t.Fatalf("untraced span stored exemplar %+v", e)
		}
	}
}

func TestMetricsHandlerExemplarExposition(t *testing.T) {
	SetExemplars(true)
	defer SetExemplars(false)

	r := NewRegistry()
	h := r.Histogram("ex_expo_seconds", []float64{1}, "route", "/x")
	h.Observe(0.5)
	h.recordExemplar(0.5, "0123456789abcdef")

	get := func(url, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		return rec
	}

	// Plain scrape: classic content type, no exemplar syntax, no EOF.
	plain := get("/metrics", "")
	if ct := plain.Header().Get("Content-Type"); !strings.Contains(ct, "0.0.4") {
		t.Fatalf("plain content type = %q", ct)
	}
	if body := plain.Body.String(); strings.Contains(body, "# {") || strings.Contains(body, "# EOF") {
		t.Fatalf("plain exposition leaked OpenMetrics syntax:\n%s", body)
	}

	// ?exemplars=1: OpenMetrics content type, exemplar suffix on the
	// bucket line, EOF terminator.
	om := get("/metrics?exemplars=1", "")
	if ct := om.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("openmetrics content type = %q", ct)
	}
	body := om.Body.String()
	if !strings.Contains(body, `ex_expo_seconds_bucket{route="/x",le="1"} 1 # {trace_id="0123456789abcdef"} 0.5 `) {
		t.Fatalf("missing exemplar suffix in:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("missing # EOF terminator in:\n%s", body)
	}

	// Accept-header negotiation reaches the same flavour.
	neg := get("/metrics", "application/openmetrics-text; version=1.0.0")
	if !strings.Contains(neg.Body.String(), `# {trace_id=`) {
		t.Fatal("Accept negotiation did not enable exemplars")
	}
}

// TestTelemetryDisabledOverhead gates the per-observation cost exemplar
// support adds to the serve hot path when it is off: the only added
// work at a span end or middleware latency observe is a trace nil check
// plus one atomic flag load. The bound catches a lock, map lookup or
// allocation sneaking into that branch.
func TestTelemetryDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate, skipped under the race detector")
	}
	SetExemplars(false)
	r := NewRegistry()
	_, s := r.StartSpan(context.Background(), "gate")
	defer s.End()
	h := r.Histogram("gate_seconds", DefBuckets)

	best := bestPerCall(func(n int) {
		for i := 0; i < n; i++ {
			// The exact guard Span.End and the HTTP middleware run on the
			// disabled path.
			if s.trace != nil && exemplarsOn.Load() {
				h.recordExemplar(1, "unreachable")
			}
		}
	})
	const bound = 100 * time.Nanosecond
	if best > bound {
		t.Fatalf("disabled-telemetry overhead = %v per observation, want <= %v", best, bound)
	}
	t.Logf("disabled-telemetry overhead: %v per observation", best)
}
