package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceID(t *testing.T) {
	good := []string{"a", "deadbeefcafe0123", "A-Z_09", strings.Repeat("x", 64)}
	for _, s := range good {
		if id, ok := ParseTraceID(s); !ok || string(id) != s {
			t.Fatalf("ParseTraceID(%q) = %q, %v; want accepted", s, id, ok)
		}
	}
	bad := []string{"", strings.Repeat("x", 65), "has space", "semi;colon", "new\nline", "Ünïcode"}
	for _, s := range bad {
		if _, ok := ParseTraceID(s); ok {
			t.Fatalf("ParseTraceID(%q) accepted; want rejected", s)
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two NewTraceID calls collided: %q", a)
	}
	for _, id := range []TraceID{a, b} {
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		if _, ok := ParseTraceID(string(id)); !ok {
			t.Fatalf("generated ID %q fails its own parser", id)
		}
	}
}

// TestTraceSpanTree builds a small span tree by hand and checks the
// snapshot preserves parent links, attributes, and error status.
func TestTraceSpanTree(t *testing.T) {
	reg := NewRegistry()
	ctx, tr := StartTrace(context.Background(), "tid-1", "/estimate")
	rctx, root := reg.StartSpan(ctx, NewStage("/estimate"))

	cctx, child := reg.StartSpan(rctx, NewStage("match"))
	child.SetInt("candidates", 7)
	child.SetBool("hit", false)
	_, grand := reg.StartSpan(cctx, NewStage("viterbi"))
	grand.End()
	child.End()

	_, sib := reg.StartSpan(rctx, NewStage("estimate"))
	sib.Fail(fmt.Errorf("model exploded"))
	sib.Fail(fmt.Errorf("second error ignored"))
	sib.End()

	root.SetInt("status", 500)
	d := root.End()

	if !tr.Errored() {
		t.Fatal("trace with failed span not marked errored")
	}
	rec := tr.snapshot(d, "error")
	if rec.TraceID != "tid-1" || rec.Route != "/estimate" || !rec.Error {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(rec.Spans), rec.Spans)
	}
	byName := map[string]SpanRecord{}
	idx := map[string]int{}
	for i, s := range rec.Spans {
		byName[s.Name] = s
		idx[s.Name] = i
	}
	if byName["/estimate"].Parent != -1 {
		t.Fatalf("root parent = %d, want -1", byName["/estimate"].Parent)
	}
	if byName["match"].Parent != idx["/estimate"] {
		t.Fatalf("match parent = %d, want %d", byName["match"].Parent, idx["/estimate"])
	}
	if byName["viterbi"].Parent != idx["match"] {
		t.Fatalf("viterbi parent = %d, want %d", byName["viterbi"].Parent, idx["match"])
	}
	if byName["estimate"].Parent != idx["/estimate"] {
		t.Fatalf("estimate parent = %d, want %d", byName["estimate"].Parent, idx["/estimate"])
	}
	if byName["estimate"].Error != "model exploded" {
		t.Fatalf("span error = %q, want first Fail to win", byName["estimate"].Error)
	}
	attrs := map[string]any{}
	for _, a := range byName["match"].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["candidates"] != 7 || attrs["hit"] != false {
		t.Fatalf("match attrs = %v", attrs)
	}
	// The histogram side keeps working unchanged.
	for _, name := range []string{"/estimate", "match", "viterbi", "estimate"} {
		if got := reg.Histogram(SpanFamily, DefBuckets, "span", name).Count(); got != 1 {
			t.Fatalf("span %q histogram count = %d, want 1", name, got)
		}
	}
}

// TestUntracedSpanNoops checks Set*/Fail are safe no-ops without a trace.
func TestUntracedSpanNoops(t *testing.T) {
	reg := NewRegistry()
	_, s := reg.StartSpan(context.Background(), NewStage("lonely"))
	s.SetInt("k", 1)
	s.SetStr("s", "v")
	s.Fail(fmt.Errorf("boom"))
	s.End()
	var nilSpan *Span
	nilSpan.SetAttr("k", 1) // must not panic
	nilSpan.Fail(fmt.Errorf("x"))
	if got := reg.Histogram(SpanFamily, DefBuckets, "span", "lonely").Count(); got != 1 {
		t.Fatalf("histogram count = %d", got)
	}
}

// TestPackageSpanKeepsParentage: a span started and ended through the
// package-level StartSpan, as mapmatch's stages are, is a child of the span
// its context carries.
func TestPackageSpanKeepsParentage(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "tid-time", "/x")
	rctx, root := StartSpan(ctx, NewStage("root"))
	_, stage := StartSpan(rctx, NewStage("stage"))
	stage.End()
	d := root.End()
	rec := tr.snapshot(d, "sample")
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[1].Name != "stage" || rec.Spans[1].Parent != 0 {
		t.Fatalf("stage span = %+v, want child of root", rec.Spans[1])
	}
}

func TestTraceSpanCap(t *testing.T) {
	reg := NewRegistry()
	ctx, tr := StartTrace(context.Background(), "tid-cap", "/batch")
	for i := 0; i < maxTraceSpans+10; i++ {
		_, s := reg.StartSpan(ctx, NewStage("stage"))
		s.End()
	}
	rec := tr.snapshot(time.Millisecond, "sample")
	if len(rec.Spans) != maxTraceSpans {
		t.Fatalf("got %d spans, want cap %d", len(rec.Spans), maxTraceSpans)
	}
	if rec.SpansDropped != 10 {
		t.Fatalf("SpansDropped = %d, want 10", rec.SpansDropped)
	}
	// Dropped spans still feed the histogram.
	if got := reg.Histogram(SpanFamily, DefBuckets, "span", "stage").Count(); got != maxTraceSpans+10 {
		t.Fatalf("histogram count = %d, want %d", got, maxTraceSpans+10)
	}
}

// finishedTrace makes a minimal completed trace, errored or not.
func finishedTrace(id string, errored bool) *Trace {
	_, tr := StartTrace(context.Background(), TraceID(id), "/estimate")
	if errored {
		tr.noteError()
	}
	return tr
}

func TestTailSamplingErrorAlwaysKept(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	for i := 0; i < 50; i++ {
		kept, reason := ts.Offer(finishedTrace(fmt.Sprintf("ok%d", i), false), time.Millisecond)
		if kept {
			t.Fatalf("normal trace %d kept (%s) with sampling off", i, reason)
		}
	}
	for i := 0; i < 5; i++ {
		kept, reason := ts.Offer(finishedTrace(fmt.Sprintf("err%d", i), true), time.Millisecond)
		if !kept || reason != "error" {
			t.Fatalf("error trace %d: kept=%v reason=%q", i, kept, reason)
		}
	}
	recs := ts.Traces(TraceFilter{})
	if len(recs) != 5 {
		t.Fatalf("retained %d, want 5", len(recs))
	}
	for _, r := range recs {
		if !r.Error || r.Retained != "error" {
			t.Fatalf("retained record = %+v", r)
		}
	}
}

func TestTailSamplingSlowestN(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{
		SlowestN:   3,
		Window:     time.Minute,
		SampleRate: 0,
		Now:        func() time.Time { return clock },
	})
	// First three arrivals fill the window set regardless of duration.
	durs := []time.Duration{5 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond}
	for i, d := range durs {
		if kept, reason := ts.Offer(finishedTrace(fmt.Sprintf("t%d", i), false), d); !kept || reason != "slow" {
			t.Fatalf("warmup trace %d (%v): kept=%v reason=%q", i, d, kept, reason)
		}
	}
	// Slower than the window min (1ms) -> kept, evicting the min.
	if kept, _ := ts.Offer(finishedTrace("t3", false), 2*time.Millisecond); !kept {
		t.Fatal("2ms trace should beat 1ms window minimum")
	}
	// Not slower than the new min (2ms) -> dropped.
	if kept, _ := ts.Offer(finishedTrace("t4", false), 1500*time.Microsecond); kept {
		t.Fatal("1.5ms trace kept despite 2ms window minimum")
	}
	// Window rotation resets the set: anything qualifies again.
	clock = clock.Add(2 * time.Minute)
	if kept, reason := ts.Offer(finishedTrace("t5", false), time.Microsecond); !kept || reason != "slow" {
		t.Fatalf("post-rotation trace: kept=%v reason=%q", kept, reason)
	}
}

func TestTailSamplingRates(t *testing.T) {
	all := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	for i := 0; i < 20; i++ {
		if kept, reason := all.Offer(finishedTrace(fmt.Sprintf("s%d", i), false), time.Millisecond); !kept || reason != "sample" {
			t.Fatalf("SampleRate=1 dropped trace %d (reason %q)", i, reason)
		}
	}
	none := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 0})
	for i := 0; i < 20; i++ {
		if kept, _ := none.Offer(finishedTrace(fmt.Sprintf("n%d", i), false), time.Millisecond); kept {
			t.Fatalf("SampleRate=0 kept trace %d", i)
		}
	}
}

func TestTraceStoreRingAndFilters(t *testing.T) {
	reg := NewRegistry()
	ts := NewTraceStore(reg, TraceStoreConfig{Capacity: 4, SlowestN: -1, SampleRate: 1})
	mk := func(id, route string, errored bool, d time.Duration) {
		_, tr := StartTrace(context.Background(), TraceID(id), route)
		if errored {
			tr.noteError()
		}
		ts.Offer(tr, d)
	}
	mk("a", "/estimate", false, 1*time.Millisecond)
	mk("b", "/estimate", true, 2*time.Millisecond)
	mk("c", "/healthz", false, 30*time.Millisecond)
	mk("d", "/estimate", false, 4*time.Millisecond)
	mk("e", "/estimate", false, 50*time.Millisecond) // overwrites "a"

	ids := func(recs []*TraceRecord) []string {
		var out []string
		for _, r := range recs {
			out = append(out, r.TraceID)
		}
		return out
	}
	got := ids(ts.Traces(TraceFilter{}))
	want := []string{"e", "d", "c", "b"} // newest first, "a" overwritten
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Traces() = %v, want %v", got, want)
	}
	if got := ids(ts.Traces(TraceFilter{Route: "/healthz"})); fmt.Sprint(got) != "[c]" {
		t.Fatalf("route filter = %v", got)
	}
	if got := ids(ts.Traces(TraceFilter{MinDur: 10 * time.Millisecond})); fmt.Sprint(got) != "[e c]" {
		t.Fatalf("minDur filter = %v", got)
	}
	if got := ids(ts.Traces(TraceFilter{ErrorOnly: true})); fmt.Sprint(got) != "[b]" {
		t.Fatalf("errors filter = %v", got)
	}
	if got := ids(ts.Traces(TraceFilter{Limit: 2})); fmt.Sprint(got) != "[e d]" {
		t.Fatalf("limit filter = %v", got)
	}
	if got := reg.Counter("tte_trace_completed_total").Value(); got != 5 {
		t.Fatalf("completed counter = %d, want 5", got)
	}
}

func TestTraceStoreHandler(t *testing.T) {
	ts := NewTraceStore(NewRegistry(), TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	_, tr := StartTrace(context.Background(), "h1", "/estimate")
	tr.noteError()
	ts.Offer(tr, 25*time.Millisecond)
	h := ts.Handler()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	rec := get("/debug/traces?route=/estimate&minDur=10&errors=1&limit=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var body struct {
		Count     int            `json:"count"`
		Completed uint64         `json:"completed"`
		Traces    []*TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 1 || body.Completed != 1 || len(body.Traces) != 1 || body.Traces[0].TraceID != "h1" {
		t.Fatalf("body = %+v", body)
	}
	// minDur excludes it both as a duration string and bare milliseconds.
	for _, q := range []string{"minDur=1s", "minDur=100"} {
		if rec := get("/debug/traces?" + q); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count": 0`) {
			t.Fatalf("%s: code=%d body=%s", q, rec.Code, rec.Body)
		}
	}
	if rec := get("/debug/traces?minDur=banana"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad minDur -> %d", rec.Code)
	}
	if rec := get("/debug/traces?limit=-1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit -> %d", rec.Code)
	}
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if post.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST -> %d", post.Code)
	}
}
