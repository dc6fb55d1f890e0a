package obs

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "route", "/a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same identity returns the same child; label order must not matter.
	if r.Counter("reqs_total", "route", "/a") != c {
		t.Fatal("counter identity not stable")
	}
	c2 := r.Counter("multi_total", "a", "1", "b", "2")
	if r.Counter("multi_total", "b", "2", "a", "1") != c2 {
		t.Fatal("label order changed counter identity")
	}

	g := r.Gauge("in_flight")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 0.2, 0.5, 1})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.05, 0.15, 0.15, 0.3, 0.7, 2} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-3.35) > 1e-12 {
		t.Fatalf("sum = %v", h.Sum())
	}
	uppers, counts := h.Buckets()
	wantCounts := []uint64{1, 2, 1, 1, 1} // last is +Inf
	if len(uppers) != 4 || len(counts) != 5 {
		t.Fatalf("buckets %v %v", uppers, counts)
	}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
	// Median: rank 3 lands in the (0.1, 0.2] bucket.
	if q := h.Quantile(0.5); q <= 0.1 || q > 0.2 {
		t.Fatalf("p50 = %v, want in (0.1, 0.2]", q)
	}
	// p99 falls in the +Inf bucket and clamps to the top finite bound.
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %v, want clamp to 1", q)
	}
}

func TestSpanRecordsHistogram(t *testing.T) {
	r := NewRegistry()
	ctx, outer := r.StartSpan(context.Background(), "outer")
	_, inner := r.StartSpan(ctx, "inner")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	outer.End() // second End must not double-count

	h := r.Histogram(SpanFamily, DefBuckets, "span", "outer")
	if h.Count() != 1 {
		t.Fatalf("outer span recorded %d times", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatal("span duration not recorded")
	}
}

// expoLine matches one non-comment exposition line:
// name or name{k="v",...}, a space, and a float/int value.
var expoLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Help("reqs_total", "Requests\nwith a newline in help.")
	r.Counter("reqs_total", "route", "/estimate", "code", "2xx").Add(3)
	r.Gauge("temp").Set(-1.5)
	h := r.Histogram("lat_seconds", []float64{0.1, 1}, "route", `/weird"path\`)
	h.Observe(0.05)
	h.Observe(5)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	text := body.String()

	types := 0
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			if strings.Contains(line, "\n") {
				t.Fatalf("help line %d contains newline", i)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if !expoLine.MatchString(line) {
			t.Fatalf("line %d does not parse: %q", i, line)
		}
	}
	if types != 3 {
		t.Fatalf("want 3 TYPE headers, got %d in:\n%s", types, text)
	}
	for _, want := range []string{
		`reqs_total{code="2xx",route="/estimate"} 3`,
		`temp -1.5`,
		`lat_seconds_bucket{route="/weird\"path\\",le="+Inf"} 2`,
		`lat_seconds_count{route="/weird\"path\\"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Histogram buckets must be cumulative.
	if !strings.Contains(text, `le="1"} 1`) {
		t.Fatalf("cumulative bucket missing:\n%s", text)
	}
	// POST must be rejected.
	pr, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d", pr.StatusCode)
	}
}

func TestInstrumentMiddleware(t *testing.T) {
	r := NewRegistry()
	mw := Middleware{Registry: r}
	h := mw.Wrap("/ok", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("hi"))
	}))
	bad := mw.Wrap("/bad", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
		if rec.Header().Get(TraceHeader) != "" {
			t.Fatal("a Middleware without a trace store minted a trace ID")
		}
	}
	rec := httptest.NewRecorder()
	bad.ServeHTTP(rec, httptest.NewRequest("GET", "/bad", nil))

	if got := r.Counter("tte_http_requests_total", "route", "/ok", "code", "2xx").Value(); got != 3 {
		t.Fatalf("2xx count = %d", got)
	}
	if got := r.Counter("tte_http_requests_total", "route", "/bad", "code", "4xx").Value(); got != 1 {
		t.Fatalf("4xx count = %d", got)
	}
	if got := r.Histogram("tte_http_request_seconds", DefBuckets, "route", "/ok").Count(); got != 3 {
		t.Fatalf("latency observations = %d", got)
	}
	if v := r.Gauge("tte_http_in_flight").Value(); v != 0 {
		t.Fatalf("in-flight after requests = %v", v)
	}
}

// TestMiddlewareStatusClasses: each class's counter is resolved when the
// class first occurs, so the counts are right for every class and a class
// that never occurred is not in /metrics.
func TestMiddlewareStatusClasses(t *testing.T) {
	r := NewRegistry()
	h := Middleware{Registry: r}.Wrap("/x", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		code, _ := strconv.Atoi(req.URL.Query().Get("code"))
		w.WriteHeader(code)
	}))
	for _, code := range []int{200, 204, 404, 503, 200, 700, 429} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("/x?code=%d", code), nil))
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for class, want := range map[string]int{"2xx": 3, "4xx": 2, "5xx": 1, "other": 1} {
		line := fmt.Sprintf(`tte_http_requests_total{code=%q,route="/x"} %d`, class, want)
		if !strings.Contains(body, line) {
			t.Errorf("/metrics lacks %s\n%s", line, body)
		}
	}
	for _, class := range []string{"1xx", "3xx"} {
		if strings.Contains(body, fmt.Sprintf("code=%q", class)) {
			t.Errorf("/metrics lists class %s, which never occurred\n%s", class, body)
		}
	}
}

// TestSpanIsItsContext: on an untraced context StartSpan hands the
// caller's context back; on a traced one the returned context is the span's
// traced part. That context must still behave as a child of the one it was
// started under — values, deadline and cancellation — and answer nested
// StartSpan calls as parent.
func TestSpanIsItsContext(t *testing.T) {
	r := NewRegistry()
	type key struct{}
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, 42), deadline)
	uctx, u := r.StartSpan(parent, "untraced")
	u.End()
	if uctx != parent {
		t.Fatal("an untraced span wrapped its context")
	}
	tctx, _ := StartTrace(parent, "tid-ctx", "/x")
	sctx, s := r.StartSpan(tctx, "outer")
	defer s.End()
	if sctx.Value(key{}) != 42 {
		t.Fatal("span context lost its parent's value")
	}
	if d, ok := sctx.Deadline(); !ok || !d.Equal(deadline) {
		t.Fatalf("span context deadline = %v, %v", d, ok)
	}
	child, stop := context.WithCancel(sctx)
	defer stop()
	if p, _ := child.Value(spanCtxKey{}).(*tracedSpan); p == nil || p != s.trace {
		t.Fatalf("a context derived from the span answers parent %v, want the span", p)
	}
	cancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the parent did not reach a context derived from the span")
	}
	if sctx.Err() != context.Canceled {
		t.Fatalf("span context Err = %v", sctx.Err())
	}
}
