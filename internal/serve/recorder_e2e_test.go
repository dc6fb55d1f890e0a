package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/recorder"
	"deepod/internal/traj"
)

// TestRecorderE2E drives estimates through a server wired to a real engine
// with the flight recorder on, then reads the captures back through the
// mounted /debug/recorder routes — the full path an operator uses: serve a
// request, find its wide event, download the segment it persisted to.
func TestRecorderE2E(t *testing.T) {
	rec, err := recorder.New(recorder.Config{
		SampleRate: 1,
		Dir:        t.TempDir(),
		Meta:       map[string]string{"city": "test-city"},
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)

	eng, err := infer.New(infer.Config{
		Snapshot: &infer.Snapshot{ID: "m1", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 42 }},
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Workers:   1,
		Observers: []infer.Observer{rec},
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)

	s := newInferServer(t, eng.Do, func(c *Config) { c.Recorder = rec })
	h := s.Handler()

	if r := postEstimate(t, h, `{"origin":{"X":1,"Y":1},"dest":{"X":5,"Y":5},"depart_sec":600}`); r.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", r.Code, r.Body)
	}
	// An invalid request the engine rejects must be captured too. The
	// server's validator catches negative departures before the engine, so
	// poison the input via matching instead: NaN passes JSON as a string?
	// No — drive the engine directly, as the serve validator owns that gate.
	if _, err := eng.Do(context.Background(), traj.ODInput{DepartSec: -1}); err == nil {
		t.Fatal("want engine rejection")
	}
	rec.Sync()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/recorder", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/recorder = %d: %s", w.Code, w.Body)
	}
	var body struct {
		Count  int `json:"count"`
		Events []struct {
			Snapshot    string  `json:"snapshot"`
			EstimateSec float64 `json:"estimate_sec"`
			Err         string  `json:"err"`
		} `json:"events"`
		Segments []struct {
			Name string `json:"name"`
		} `json:"segments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body, err)
	}
	if body.Count != 2 {
		t.Fatalf("captured %d events, want the estimate and the rejection", body.Count)
	}
	// Newest-first: the rejection leads.
	if body.Events[0].Err != "invalid_input" || body.Events[1].EstimateSec != 42 || body.Events[1].Snapshot != "m1" {
		t.Fatalf("events = %+v", body.Events)
	}
	if len(body.Segments) == 0 {
		t.Fatal("no segments listed")
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/recorder/segments/"+body.Segments[0].Name, nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"tte-flight/1"`) {
		t.Fatalf("segment download = %d: %s", w.Code, w.Body)
	}

	// Filters pass through the mount.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/recorder?errors=true", nil))
	var filtered struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &filtered); err != nil || filtered.Count != 1 {
		t.Fatalf("errors filter = %d (%v): %s", filtered.Count, err, w.Body)
	}
}
