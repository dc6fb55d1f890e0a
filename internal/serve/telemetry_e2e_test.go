package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deepod/internal/obs"
	"deepod/internal/telemetry"
)

func TestEnvelopeStampsJSON(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"answer":42}`))
	})
	rec := httptest.NewRecorder()
	envelope(inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, `{"generated_at":"`) {
		t.Fatalf("generated_at is not the first field: %s", body)
	}
	var out struct {
		GeneratedAt time.Time `json:"generated_at"`
		Answer      int       `json:"answer"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Answer != 42 || out.GeneratedAt.IsZero() {
		t.Fatalf("envelope mangled the payload: %+v", out)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestEnvelopePassesRawBodiesThrough(t *testing.T) {
	raw := []byte("raw segment bytes \x00\x01 not json")
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="seg-000001.jsonl"`)
		_, _ = w.Write(raw)
	})
	rec := httptest.NewRecorder()
	envelope(inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Body.String() != string(raw) {
		t.Fatalf("raw body altered: %q", rec.Body.String())
	}
	if got := rec.Header().Get("Content-Disposition"); !strings.Contains(got, "seg-000001.jsonl") {
		t.Fatalf("headers not replayed: %q", got)
	}
}

func TestEnvelopeNormalizesErrors(t *testing.T) {
	// http.Error-style plain text becomes the uniform JSON error shape.
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such segment", http.StatusNotFound)
	})
	rec := httptest.NewRecorder()
	envelope(inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		GeneratedAt time.Time `json:"generated_at"`
		Error       string    `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, rec.Body)
	}
	if out.Error != "no such segment" || out.GeneratedAt.IsZero() {
		t.Fatalf("normalized error = %+v", out)
	}

	// A handler that already writes JSON errors keeps its shape, stamped.
	jsonErr := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusBadRequest, "bad agg")
	})
	rec = httptest.NewRecorder()
	envelope(jsonErr).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "bad agg" || out.GeneratedAt.IsZero() {
		t.Fatalf("stamped JSON error = %+v", out)
	}
}

func TestDebugRoutesCarryGeneratedAt(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		City:     "env-city",
		Infer:    stubInfer,
		Registry: reg,
		TrafficStatus: func() map[string]any {
			return map[string]any{"probes_accepted": 7}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traffic", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		GeneratedAt    time.Time `json:"generated_at"`
		ProbesAccepted int       `json:"probes_accepted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.GeneratedAt.IsZero() || out.ProbesAccepted != 7 {
		t.Fatalf("enveloped traffic payload = %+v", out)
	}
}

// TestTelemetryEndToEnd drives the full telemetry loop through the HTTP
// layer: traced /estimate requests record exemplars on the route latency
// histogram, the history sampler harvests them into queryable series, and
// the exemplar's trace ID resolves to the retained trace in /debug/traces.
func TestTelemetryEndToEnd(t *testing.T) {
	obs.SetExemplars(true)
	defer obs.SetExemplars(false)

	reg := obs.NewRegistry()
	ts := obs.NewTraceStore(reg, obs.TraceStoreConfig{SlowestN: -1, SampleRate: 1})

	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	hist, err := telemetry.NewHistory(telemetry.Config{
		Interval: 10 * time.Second,
		Source:   reg,
		Registry: obs.NewRegistry(),
		Now:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		City:     "telemetry-city",
		Infer:    stubInfer,
		Registry: reg,
		Traces:   ts,
		History:  hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	estimate := func(traceID string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/estimate",
			strings.NewReader(`{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":600}`))
		if traceID != "" {
			req.Header.Set("X-Trace-Id", traceID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate = %d: %s", rec.Code, rec.Body)
		}
	}

	const traceID = "feedfacecafebeef"
	estimate(traceID)
	hist.Tick()
	advance(10 * time.Second)
	estimate("")
	hist.Tick()

	// History query over the route latency p99 carries the exemplar.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/debug/metrics/history?series=tte_http_request_seconds:p99", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("history query = %d: %s", rec.Code, rec.Body)
	}
	if !strings.HasPrefix(rec.Body.String(), `{"generated_at":"`) {
		t.Fatalf("history response not enveloped: %s", rec.Body)
	}
	var hres telemetry.QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &hres); err != nil {
		t.Fatal(err)
	}
	if len(hres.Series) != 1 {
		t.Fatalf("p99 series = %+v", hres.Series)
	}
	var got string
	for _, ex := range hres.Series[0].Exemplars {
		if ex.TraceID == traceID {
			got = ex.TraceID
		}
	}
	if got == "" {
		t.Fatalf("exemplar with trace %s not in history response: %+v",
			traceID, hres.Series[0].Exemplars)
	}

	// ... and that trace ID resolves in /debug/traces.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?trace="+got, nil))
	var tres struct {
		Count  int `json:"count"`
		Traces []struct {
			TraceID string `json:"trace_id"`
			Route   string `json:"route"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tres); err != nil {
		t.Fatal(err)
	}
	if tres.Count != 1 || tres.Traces[0].TraceID != traceID || tres.Traces[0].Route != "/estimate" {
		t.Fatalf("trace lookup = %+v", tres)
	}
}
