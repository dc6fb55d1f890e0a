package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/traj"
)

// stubInfer stands in for the engine: matching fails for origins with
// negative X, and every other OD is answered with 42 seconds.
func stubInfer(_ context.Context, od traj.ODInput) (infer.Result, error) {
	if od.Origin.X < 0 {
		return infer.Result{}, &infer.MatchError{Err: fmt.Errorf("no segment near origin")}
	}
	return infer.Result{Seconds: 42}, nil
}

// newTestServer wires a Server against stubInfer.
func newTestServer(t *testing.T) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(Config{
		City:         "test-city",
		Infer:        stubInfer,
		Health:       map[string]any{"edges": 7},
		MaxBodyBytes: 1024,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func postEstimate(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

func TestEstimateSuccessAndCounters(t *testing.T) {
	s, reg := newTestServer(t)
	rec := postEstimate(t, s.Handler(), `{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":600}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TravelSeconds != 42 || resp.TravelHuman != "42s" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := reg.Counter("tte_http_requests_total", "route", "/estimate", "code", "2xx").Value(); got != 1 {
		t.Fatalf("2xx counter = %d", got)
	}
	if got := reg.Histogram("tte_http_request_seconds", obs.DefBuckets, "route", "/estimate").Count(); got != 1 {
		t.Fatalf("latency observations = %d", got)
	}
	// The handler's own stage span, recorded once; the engine's stages
	// are its own (see TestTracePropagationEndToEnd).
	if got := reg.Histogram(obs.SpanFamily, obs.DefBuckets, "span", "decode").Count(); got != 1 {
		t.Fatalf("span decode count = %d", got)
	}
}

func TestEstimateErrorsAreJSON(t *testing.T) {
	s, reg := newTestServer(t)
	h := s.Handler()

	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		code int
	}{
		{"bad json", func() *httptest.ResponseRecorder {
			return postEstimate(t, h, `{"origin":`)
		}, http.StatusBadRequest},
		{"negative depart", func() *httptest.ResponseRecorder {
			return postEstimate(t, h, `{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":-5}`)
		}, http.StatusBadRequest},
		{"match failure", func() *httptest.ResponseRecorder {
			return postEstimate(t, h, `{"origin":{"X":-1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":0}`)
		}, http.StatusUnprocessableEntity},
		{"body too large", func() *httptest.ResponseRecorder {
			return postEstimate(t, h, `{"pad":"`+strings.Repeat("x", 2048)+`"}`)
		}, http.StatusRequestEntityTooLarge},
		{"wrong method", func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/estimate", nil))
			return rec
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		rec := tc.do()
		if rec.Code != tc.code {
			t.Fatalf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", tc.name, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body %q not {\"error\": ...}: %v", tc.name, rec.Body, err)
		}
	}
	if got := reg.Counter("tte_http_requests_total", "route", "/estimate", "code", "4xx").Value(); got != 5 {
		t.Fatalf("4xx counter = %d, want 5", got)
	}
	if got := reg.Counter("tte_http_requests_total", "route", "/estimate", "code", "2xx").Value(); got != 0 {
		t.Fatalf("2xx counter = %d, want 0", got)
	}
}

func TestHealthz(t *testing.T) {
	s, reg := newTestServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["city"] != "test-city" || body["edges"] != float64(7) {
		t.Fatalf("health body = %v", body)
	}
	if got := reg.Counter("tte_http_requests_total", "route", "/healthz", "code", "2xx").Value(); got != 1 {
		t.Fatalf("healthz counter = %d", got)
	}
}

// TestMetricsEndpoint scrapes /metrics after a success and a failure and
// checks that the exposition reflects both and parses line-by-line.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	postEstimate(t, h, `{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":0}`)
	postEstimate(t, h, `{"origin":{"X":-1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":0}`)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`tte_http_requests_total{code="2xx",route="/estimate"} 1`,
		`tte_http_requests_total{code="4xx",route="/estimate"} 1`,
		`tte_http_request_seconds_count{route="/estimate"} 2`,
		`tte_span_seconds_count{span="decode"} 2`,
		`tte_http_in_flight 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") || strings.HasPrefix(line, " ") {
			t.Fatalf("malformed exposition line %d: %q", i, line)
		}
	}
}

func TestNewRequiresCallbacks(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
}

func TestHTTPServerTimeoutsAndShutdown(t *testing.T) {
	s, _ := newTestServer(t)
	srv := NewHTTPServer("127.0.0.1:0", s.Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 {
		t.Fatalf("missing timeouts: %+v", srv)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ListenAndServe(ctx, srv, time.Second, nil) }()
	time.Sleep(50 * time.Millisecond) // let it bind
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
