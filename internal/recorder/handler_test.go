package recorder

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepod/internal/infer"
)

func handlerFixture(t *testing.T) *Recorder {
	t.Helper()
	r := newTest(t, Config{SampleRate: 1, Dir: t.TempDir()})
	for i := 0; i < 5; i++ {
		ev := servedEvent(float64(i))
		ev.Generation = uint64(1 + i%2)
		ev.Latency = time.Duration(i+1) * 10 * time.Millisecond
		r.ObserveServe(context.Background(), ev)
	}
	r.ObserveServe(context.Background(), errEvent(infer.ErrOverloaded))
	r.Sync()
	return r
}

func getJSON(t *testing.T, r *Recorder, url string) payload {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
	}
	var p payload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return p
}

func TestHandlerListsAndFilters(t *testing.T) {
	r := handlerFixture(t)

	p := getJSON(t, r, "/debug/recorder")
	if p.Count != 6 || len(p.Events) != 6 {
		t.Fatalf("unfiltered count = %d", p.Count)
	}
	if p.Stats.Seen != 6 || p.Stats.Captured() != 6 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	if len(p.Segments) == 0 {
		t.Fatal("segment list missing from envelope")
	}
	// Newest-first.
	if p.Events[0].Seq != 6 {
		t.Fatalf("head seq = %d, want 6", p.Events[0].Seq)
	}

	if p := getJSON(t, r, "/debug/recorder?errors=true"); p.Count != 1 || p.Events[0].Err != "overloaded" {
		t.Fatalf("errors filter: %+v", p.Events)
	}
	if p := getJSON(t, r, "/debug/recorder?generation=2"); p.Count != 2 {
		t.Fatalf("generation filter count = %d", p.Count)
	}
	if p := getJSON(t, r, "/debug/recorder?minDur=45ms"); p.Count != 1 {
		t.Fatalf("minDur filter count = %d", p.Count)
	}
	if p := getJSON(t, r, "/debug/recorder?limit=2"); p.Count != 2 {
		t.Fatalf("limit count = %d", p.Count)
	}
	if p := getJSON(t, r, "/debug/recorder?epoch=0"); p.Count != 6 {
		t.Fatalf("epoch=0 count = %d", p.Count)
	}

	for _, bad := range []string{
		"/debug/recorder?generation=x",
		"/debug/recorder?epoch=-1",
		"/debug/recorder?minDur=fast",
		"/debug/recorder?limit=-2",
		"/debug/recorder?errors=maybe",
	} {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Fatalf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

func TestHandlerSegmentDownload(t *testing.T) {
	r := handlerFixture(t)
	segs := r.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/recorder/segments", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), segs[0].Name) {
		t.Fatalf("segment list = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/recorder/segments/"+segs[0].Name, nil))
	if rec.Code != 200 {
		t.Fatalf("download = %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 7 { // header + 6 events
		t.Fatalf("downloaded %d lines, want 7", len(lines))
	}
	var hdr Header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Format != segmentFormat {
		t.Fatalf("downloaded header = %q (%v)", lines[0], err)
	}

	// Traversal and unknown names must 404, not read outside the directory.
	for _, bad := range []string{
		"/debug/recorder/segments/nope.jsonl",
		"/debug/recorder/segments/..%2fseg-000000.jsonl",
	} {
		rec = httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 404 {
			t.Fatalf("GET %s = %d, want 404", bad, rec.Code)
		}
	}
}

func TestHandlerMethodGuard(t *testing.T) {
	r := newTest(t, Config{SampleRate: 1})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/recorder", nil))
	if rec.Code != 405 {
		t.Fatalf("POST = %d, want 405", rec.Code)
	}
}
