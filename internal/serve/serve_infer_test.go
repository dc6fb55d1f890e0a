package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/traj"
)

// unitCells quantizes points onto unit grid cells for the engine's events.
type unitCells struct{}

func (unitCells) CellIndex(p geo.Point) int { return int(p.X) + 1000*int(p.Y) }

// newInferServer wires a Server through a stub engine-submit function.
func newInferServer(t *testing.T, do func(context.Context, traj.ODInput) (infer.Result, error), mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		City:     "test-city",
		Infer:    do,
		Registry: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateRequestRejectsNonFinite(t *testing.T) {
	s, _ := newTestServer(t)
	good := EstimateRequest{Origin: geo.Point{X: 1, Y: 2}, Dest: geo.Point{X: 3, Y: 4}, DepartSec: 600}
	if msg := s.validateRequest(good); msg != "" {
		t.Fatalf("valid request rejected: %q", msg)
	}
	// JSON cannot carry NaN/Inf literals, so drive the validator directly
	// for each poisoned field.
	for name, req := range map[string]EstimateRequest{
		"origin.X NaN":   {Origin: geo.Point{X: math.NaN(), Y: 2}, Dest: good.Dest, DepartSec: 600},
		"origin.Y +Inf":  {Origin: geo.Point{X: 1, Y: math.Inf(1)}, Dest: good.Dest, DepartSec: 600},
		"dest.X -Inf":    {Origin: good.Origin, Dest: geo.Point{X: math.Inf(-1), Y: 4}, DepartSec: 600},
		"dest.Y NaN":     {Origin: good.Origin, Dest: geo.Point{X: 3, Y: math.NaN()}, DepartSec: 600},
		"depart NaN":     {Origin: good.Origin, Dest: good.Dest, DepartSec: math.NaN()},
		"depart +Inf":    {Origin: good.Origin, Dest: good.Dest, DepartSec: math.Inf(1)},
		"depart negativ": {Origin: good.Origin, Dest: good.Dest, DepartSec: -1},
	} {
		if msg := s.validateRequest(req); msg == "" {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestEstimateOutOfBoundsRejected(t *testing.T) {
	s := newInferServer(t,
		func(context.Context, traj.ODInput) (infer.Result, error) {
			return infer.Result{Seconds: 1}, nil
		},
		func(c *Config) {
			c.Bounds = &geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}}
		})
	h := s.Handler()

	rec := postEstimate(t, h, `{"origin":{"X":10,"Y":10},"dest":{"X":20,"Y":20},"depart_sec":0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("in-bounds request = %d, body %s", rec.Code, rec.Body)
	}
	for name, body := range map[string]string{
		"origin outside": `{"origin":{"X":-5,"Y":10},"dest":{"X":20,"Y":20},"depart_sec":0}`,
		"dest outside":   `{"origin":{"X":10,"Y":10},"dest":{"X":20,"Y":999},"depart_sec":0}`,
	} {
		rec := postEstimate(t, h, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body %q", name, rec.Body)
		}
	}
}

// TestInferErrorMapping checks every engine error class maps onto the
// documented HTTP status, with Retry-After on the shed paths.
func TestInferErrorMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       int
		retryAfter string
	}{
		{"overloaded", infer.ErrOverloaded, http.StatusTooManyRequests, "1"},
		{"queue timeout", infer.ErrQueueTimeout, http.StatusServiceUnavailable, "2"},
		{"match failure", &infer.MatchError{Err: errors.New("no segment")}, http.StatusUnprocessableEntity, ""},
		{"invalid input", infer.ErrInvalidInput, http.StatusBadRequest, ""},
		{"cancelled", context.Canceled, http.StatusServiceUnavailable, ""},
		{"contained panic", fmt.Errorf("%w: boom", infer.ErrInternal), http.StatusInternalServerError, ""},
		{"unclassified", errors.New("boom"), http.StatusInternalServerError, ""},
	}
	for _, tc := range cases {
		s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
			return infer.Result{}, tc.err
		}, nil)
		rec := postEstimate(t, s.Handler(), `{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":0}`)
		if rec.Code != tc.code {
			t.Fatalf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.code, rec.Body)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Fatalf("%s: Retry-After = %q, want %q", tc.name, got, tc.retryAfter)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body %q", tc.name, rec.Body)
		}
	}
}

func TestInferSuccessCarriesCacheAndModel(t *testing.T) {
	s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
		return infer.Result{Seconds: 90, Cached: true, SnapshotID: "abc123"}, nil
	}, nil)
	rec := postEstimate(t, s.Handler(), `{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TravelSeconds != 90 || !resp.Cached || resp.Model != "abc123" {
		t.Fatalf("resp = %+v, want 90s cached from abc123", resp)
	}
}

func TestVersionEndpoint(t *testing.T) {
	s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
		return infer.Result{}, nil
	}, func(c *Config) {
		c.Version = func() map[string]any {
			return map[string]any{"model": "deadbeef", "generation": uint64(3)}
		}
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /version = %d, body %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["city"] != "test-city" || body["model"] != "deadbeef" {
		t.Fatalf("version body = %v", body)
	}
	if body["go"] == nil || body["go"] == "" {
		t.Fatalf("version body missing go runtime: %v", body)
	}
	if body["generation"] != float64(3) { // JSON numbers decode as float64
		t.Fatalf("generation = %v, want 3", body["generation"])
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/version", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /version = %d, want 405", rec.Code)
	}
}

func TestReloadEndpoint(t *testing.T) {
	var calls int
	s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
		return infer.Result{}, nil
	}, func(c *Config) {
		c.Reload = func(context.Context) (map[string]any, error) {
			calls++
			if calls > 1 {
				return nil, fmt.Errorf("checkpoint is corrupt")
			}
			return map[string]any{"model": "new-model"}, nil
		}
	})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d, body %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["reloaded"] != true || body["model"] != "new-model" {
		t.Fatalf("reload body = %v", body)
	}

	// Second call: the stub now fails — the route must answer 500 and keep
	// the error in the JSON shape.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing reload = %d, want 500 (body %s)", rec.Code, rec.Body)
	}

	// GET is not allowed.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload = %d, want 405", rec.Code)
	}
}

func TestReloadUnwiredIs501(t *testing.T) {
	s, _ := newTestServer(t) // direct-path server: no Reload callback
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("unwired reload = %d, want 501", rec.Code)
	}
}

// TestEngineEndToEndOverHTTP drives a real infer.Engine through the HTTP
// layer: a request is served, its repeat hits the cache, and a /reload-style
// Swap changes the served model — the serve↔infer integration seam.
func TestEngineEndToEndOverHTTP(t *testing.T) {
	eng, err := infer.New(infer.Config{
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Snapshot: &infer.Snapshot{ID: "m1", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 60 }},
		Workers:  2, QueueDepth: 16, MaxBatch: 4,
		CacheEntries: 64,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	s := newInferServer(t, eng.Do, func(c *Config) {
		c.Version = eng.Version
		c.Reload = func(context.Context) (map[string]any, error) {
			prev, err := eng.SwapCtx(context.Background(), &infer.Snapshot{ID: "m2", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 120 }})
			if err != nil {
				return nil, err
			}
			return map[string]any{"model": "m2", "previous": prev.ID}, nil
		}
	})
	h := s.Handler()
	body := `{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":600}`

	rec := postEstimate(t, h, body)
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || resp.TravelSeconds != 60 || resp.Cached || resp.Model != "m1" {
		t.Fatalf("first response = %d %+v", rec.Code, resp)
	}

	rec = postEstimate(t, h, body)
	resp = EstimateResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.TravelSeconds != 60 {
		t.Fatalf("repeat response not cached: %+v", resp)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload = %d, body %s", rec.Code, rec.Body)
	}

	rec = postEstimate(t, h, body)
	resp = EstimateResponse{} // cached is omitempty: decode into a zero struct
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.TravelSeconds != 120 || resp.Model != "m2" {
		t.Fatalf("post-reload response = %+v, want fresh 120 from m2", resp)
	}
}
