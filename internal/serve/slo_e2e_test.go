package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/infer"
	"deepod/internal/metrics"
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/slo"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// TestSLOEndToEnd is the acceptance path for the alerting layer, driven
// through a real engine and the real HTTP surface on a manual clock: a
// synthetic error spike fires the fast-burn alert within one evaluation
// tick, quality drift routes through the same manager, and after recovery
// the alert resolves — with /debug/slo and /debug/alerts agreeing at every
// step.
func TestSLOEndToEnd(t *testing.T) {
	clk := &e2eClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))

	mgr := slo.NewManager(slo.ManagerConfig{Registry: reg, Logger: logger, Now: clk.now})

	// Quality monitoring routed through the same manager: live errors far
	// from the training-time reference must surface as quality:drift.
	ref := metrics.RefDistOf([]float64{2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4}, nil)
	mon := quality.New(quality.Config{
		Window:          time.Hour,
		PendingTTL:      10 * time.Minute,
		MinDriftSamples: 5,
		DriftThreshold:  0.2,
		Reference:       ref,
		ReferenceModel:  "m1",
		Cells:           unitCells{},
		Slotter:         timeslot.MustNew(5 * time.Minute),
		Registry:        reg,
		Logger:          logger,
		Alerts:          mgr,
		Now:             clk.now,
	})

	eng, err := infer.New(infer.Config{
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Snapshot:  echoSnapshot("m1"),
		Workers:   2,
		Observers: []infer.Observer{mon},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The spike switch: while set, /estimate fails with a generic backend
	// error, which the server maps to 500 — the availability SLI's "bad".
	var spike atomic.Bool
	inferFn := func(ctx context.Context, od traj.ODInput) (infer.Result, error) {
		if spike.Load() {
			return infer.Result{}, errors.New("injected backend failure")
		}
		return eng.Do(ctx, od)
	}

	ev, err := slo.New(slo.Config{
		Objectives: []slo.Objective{{
			Name:   "availability",
			Target: 0.99,
			Ratio: &slo.RatioSLI{
				Bad:   slo.Selector{Metric: "tte_http_requests_total", Match: map[string]string{"route": "/estimate", "code": "5xx"}},
				Total: slo.Selector{Metric: "tte_http_requests_total", Match: map[string]string{"route": "/estimate"}},
			},
		}},
		Rules: []slo.BurnRule{
			{Name: "fast", Severity: "page", Long: time.Minute, Short: 10 * time.Second, Burn: 14.4},
		},
		Interval: 10 * time.Second, // ticked manually for determinism
		Source:   reg,
		Manager:  mgr,
		Now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{
		City:     "slo-city",
		Infer:    inferFn,
		Quality:  mon,
		Registry: reg,
		SLO:      ev,
		Alerts:   mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	estimate := func(depart float64) *httptest.ResponseRecorder {
		return postJSON(t, h, "/estimate", EstimateRequest{DepartSec: depart})
	}

	// Healthy baseline: all 200s, the first tick records the anchor point
	// and nothing fires.
	for i := 0; i < 20; i++ {
		if rec := estimate(float64(600 + i)); rec.Code != http.StatusOK {
			t.Fatalf("healthy estimate = %d: %s", rec.Code, rec.Body)
		}
	}
	ev.Tick()
	if n := len(mgr.Active()); n != 0 {
		t.Fatalf("healthy: %d alerts firing", n)
	}

	// Spike: every request 500s. One evaluation tick must catch it — the
	// short window sees 100% bad (burn 100x >> 14.4), the long window
	// anchors on the same baseline point.
	clk.advance(15 * time.Second)
	spike.Store(true)
	for i := 0; i < 20; i++ {
		if rec := estimate(700); rec.Code != http.StatusInternalServerError {
			t.Fatalf("spike estimate = %d, want 500", rec.Code)
		}
	}
	ev.Tick()
	active := mgr.Active()
	if len(active) != 1 || active[0].Name != "slo:availability:fast" {
		t.Fatalf("spike: active = %+v, want slo:availability:fast", active)
	}
	if active[0].Severity != "page" || active[0].Value < 14.4 {
		t.Fatalf("spike alert = %+v", active[0])
	}

	// Operator surfaces during the incident.
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	var status slo.Status
	if err := json.Unmarshal(get("/debug/slo").Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Objectives) != 1 || !status.Objectives[0].Rules[0].Firing {
		t.Fatalf("/debug/slo during spike = %+v", status)
	}
	var alerts struct {
		Firing []slo.ActiveAlert `json:"firing"`
	}
	if err := json.Unmarshal(get("/debug/alerts").Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts.Firing) != 1 {
		t.Fatalf("/debug/alerts firing = %+v", alerts.Firing)
	}
	// The page was logged at error level.
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "alert firing") || !strings.Contains(logged, "slo:availability:fast") {
		t.Fatalf("no firing notification in logs: %q", logged)
	}

	// Drift rides the same manager: serve predictions, join ground truth
	// with ~400 s errors, and quality:drift joins the firing set.
	var ids []string
	spike.Store(false)
	for i := 0; i < 6; i++ {
		rec := estimate(float64(800 + i))
		var resp EstimateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.PredictionID)
	}
	for i, id := range ids {
		rec := postJSON(t, h, "/feedback", FeedbackRequest{PredictionID: id, ActualSeconds: float64(800+i) + 400})
		if rec.Code != http.StatusOK {
			t.Fatalf("feedback = %d: %s", rec.Code, rec.Body)
		}
	}
	names := func(as []slo.ActiveAlert) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}
	if got := names(mgr.Active()); len(got) != 2 || got[0] != "quality:drift" {
		t.Fatalf("after drift: active = %v, want [quality:drift slo:availability:fast]", got)
	}

	// Recovery: the spike is off and the short window goes clean, so the
	// multi-window rule resolves on the next tick even though the long
	// window still remembers the bad minute.
	clk.advance(12 * time.Second)
	for i := 0; i < 100; i++ {
		if rec := estimate(900); rec.Code != http.StatusOK {
			t.Fatalf("recovery estimate = %d", rec.Code)
		}
	}
	ev.Tick()
	if got := names(mgr.Active()); len(got) != 1 || got[0] != "quality:drift" {
		t.Fatalf("after recovery: active = %v, want only quality:drift", got)
	}
	hist := mgr.History()
	var sawResolve bool
	for _, e := range hist {
		if e.Name == "slo:availability:fast" && e.State == slo.StateResolved {
			sawResolve = true
		}
	}
	if !sawResolve {
		t.Fatalf("no resolved transition in history: %+v", hist)
	}

	// The SLO metric families made it to the registry.
	want := map[string]bool{
		"tte_slo_sli":                    false,
		"tte_slo_burn_rate":              false,
		"tte_slo_evaluations_total":      false,
		"tte_alerts_firing":              false,
		"tte_alert_transitions_total":    false,
		"tte_slo_error_budget_remaining": false,
	}
	for _, s := range reg.Snapshot() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric family %s missing from the registry", name)
		}
	}
}
