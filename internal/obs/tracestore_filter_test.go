package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// filterStoreGet drives the store's handler and decodes the JSON envelope.
func filterStoreGet(t *testing.T, h http.Handler, url string) (code int, count int, traces []*TraceRecord, raw string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return rec.Code, 0, nil, rec.Body.String()
	}
	var body struct {
		Count  int            `json:"count"`
		Traces []*TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", url, rec.Body, err)
	}
	return rec.Code, body.Count, body.Traces, rec.Body.String()
}

// An empty store must answer a well-formed zero envelope, with or without
// filters — the first thing an operator curls after boot.
func TestTraceStoreHandlerEmptyStore(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	h := ts.Handler()
	for _, url := range []string{
		"/debug/traces",
		"/debug/traces?route=/estimate&errors=1&minDur=5ms&limit=3",
	} {
		code, count, traces, raw := filterStoreGet(t, h, url)
		if code != http.StatusOK || count != 0 || len(traces) != 0 {
			t.Fatalf("%s on empty store: code=%d count=%d traces=%d body=%s",
				url, code, count, len(traces), raw)
		}
	}
	// The programmatic path too: no nil-slice surprises.
	if recs := ts.Traces(TraceFilter{Route: "/x", ErrorOnly: true, MinDur: time.Second, Limit: 5}); len(recs) != 0 {
		t.Fatalf("empty store Traces() = %v", recs)
	}
}

func TestTraceStoreHandlerLimitEdgeCases(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	for _, id := range []string{"l1", "l2", "l3"} {
		_, tr := StartTrace(context.Background(), TraceID(id), "/estimate")
		ts.Offer(tr, time.Millisecond)
	}
	h := ts.Handler()

	// limit=0 parses but means "no constraint" — all three come back.
	code, count, _, raw := filterStoreGet(t, h, "/debug/traces?limit=0")
	if code != http.StatusOK || count != 3 {
		t.Fatalf("limit=0: code=%d count=%d body=%s", code, count, raw)
	}
	// Negative and non-numeric limits are client errors, not crashes.
	for _, q := range []string{"limit=-1", "limit=-999", "limit=two", "limit=1.5"} {
		if code, _, _, _ := filterStoreGet(t, h, "/debug/traces?"+q); code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d, want 400", q, code)
		}
	}
	// A limit larger than the retained set clips to what exists.
	if _, count, _, _ := filterStoreGet(t, h, "/debug/traces?limit=50"); count != 3 {
		t.Fatalf("limit=50 count=%d, want 3", count)
	}
}

func TestTraceStoreHandlerBadMinDur(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	_, tr := StartTrace(context.Background(), "m1", "/estimate")
	ts.Offer(tr, time.Millisecond)
	h := ts.Handler()
	for _, q := range []string{"minDur=banana", "minDur=10lightyears", "minDur=ms", "minDur="} {
		code, _, _, raw := filterStoreGet(t, h, "/debug/traces?"+q)
		// An empty value means "no constraint"; everything else is 400.
		want := http.StatusBadRequest
		if q == "minDur=" {
			want = http.StatusOK
		}
		if code != want {
			t.Fatalf("%s: code=%d want %d body=%s", q, code, want, raw)
		}
	}
}

// Combined filters are conjunctive: route AND errors AND minDur AND limit.
func TestTraceStoreHandlerCombinedRouteErrors(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	mk := func(id, route string, errored bool, d time.Duration) {
		_, tr := StartTrace(context.Background(), TraceID(id), route)
		if errored {
			tr.noteError()
		}
		ts.Offer(tr, d)
	}
	mk("ok-est", "/estimate", false, 5*time.Millisecond)
	mk("err-est-slow", "/estimate", true, 80*time.Millisecond)
	mk("err-est-fast", "/estimate", true, 1*time.Millisecond)
	mk("err-health", "/healthz", true, 90*time.Millisecond)
	h := ts.Handler()

	code, count, traces, raw := filterStoreGet(t, h, "/debug/traces?route=/estimate&errors=1")
	if code != http.StatusOK || count != 2 {
		t.Fatalf("route+errors: code=%d count=%d body=%s", code, count, raw)
	}
	for _, r := range traces {
		if r.Route != "/estimate" || !r.Error {
			t.Fatalf("route+errors returned %s (%s, error=%v)", r.TraceID, r.Route, r.Error)
		}
	}
	// Adding minDur drops the fast error; limit then caps a set of one.
	_, count, traces, _ = filterStoreGet(t, h, "/debug/traces?route=/estimate&errors=true&minDur=50ms&limit=1")
	if count != 1 || traces[0].TraceID != "err-est-slow" {
		t.Fatalf("full combination = %d traces %v", count, traces)
	}
	// A route nothing matches yields an empty — not error — response.
	if _, count, _, _ = filterStoreGet(t, h, "/debug/traces?route=/nope&errors=1"); count != 0 {
		t.Fatalf("unmatched route count = %d", count)
	}
}

// NewHistogram hands out the same machinery as Registry.Histogram without
// registering a family — the quality monitor's per-window quantile store.
func TestNewHistogramStandalone(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 13 {
		t.Fatalf("count=%d sum=%v, want 4, 13", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q <= 0 || q > 4 {
		t.Fatalf("median = %v, want within bucket range", q)
	}
}
