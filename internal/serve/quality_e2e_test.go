package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deepod/internal/infer"
	"deepod/internal/metrics"
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// e2eClock is the manual clock shared by the quality monitor so the test
// controls window rotation and pending TTL deterministically.
type e2eClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *e2eClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *e2eClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// echoSnapshot predicts the request's DepartSec (carried through the
// matched OD) so every estimate is deterministic and distinct.
func echoSnapshot(id string) *infer.Snapshot {
	return &infer.Snapshot{
		ID:       id,
		Estimate: func(_ context.Context, od *traj.MatchedOD) float64 { return od.DepartSec },
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec
}

// TestQualityEndToEnd drives the full loop through the real engine and the
// real HTTP surface: N estimates are served and stamped, ground truth
// arrives for a subset — some immediately, some late, some after a hot
// reload, one orphaned, the rest left to expire — and /debug/quality must
// agree with the offline metrics package on exactly the joined pairs,
// count every path, and flag drift against the training-time reference.
func TestQualityEndToEnd(t *testing.T) {
	slotter, err := timeslot.New(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk := &e2eClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))

	// Training-time reference: absolute errors of a few seconds. The live
	// feedback below carries errors of hundreds of seconds, so the window's
	// distribution must register as drifted.
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4} {
		ref.Observe(v)
	}
	mon := quality.New(quality.Config{
		Window:          time.Hour, // the whole test stays inside one window
		PendingTTL:      10 * time.Minute,
		MinDriftSamples: 5,
		DriftThreshold:  0.2,
		Reference:       ref,
		ReferenceModel:  "m1",
		Registry:        reg,
		Logger:          logger,
		Now:             clk.now,
	})

	eng, err := infer.New(infer.Config{
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Snapshot:  echoSnapshot("m1"),
		Cells:     unitCells{},
		Slotter:   slotter,
		Workers:   2,
		Observers: []infer.Observer{mon},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv, err := New(Config{
		City:     "e2e-city",
		Infer:    eng.Do,
		Quality:  mon,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Serve 10 estimates; predicted travel time = depart_sec.
	type served struct {
		id   string
		pred float64
	}
	var sv []served
	for i := 0; i < 10; i++ {
		depart := float64(600 + i*10)
		rec := postJSON(t, h, "/estimate", EstimateRequest{DepartSec: depart})
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate %d = %d: %s", i, rec.Code, rec.Body)
		}
		var resp EstimateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.PredictionID == "" || resp.Model != "m1" || resp.TravelSeconds != depart {
			t.Fatalf("estimate %d = %+v", i, resp)
		}
		sv = append(sv, served{resp.PredictionID, resp.TravelSeconds})
	}

	var joinedPred, joinedActual []float64
	feedback := func(id string, actual float64, wantJoin bool, wantModel string) {
		t.Helper()
		rec := postJSON(t, h, "/feedback", FeedbackRequest{PredictionID: id, ActualSeconds: actual})
		if rec.Code != http.StatusOK {
			t.Fatalf("feedback %s = %d: %s", id, rec.Code, rec.Body)
		}
		var resp FeedbackResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Joined != wantJoin {
			t.Fatalf("feedback %s joined=%v, want %v (%s)", id, resp.Joined, wantJoin, rec.Body)
		}
		if wantJoin && resp.Model != wantModel {
			t.Fatalf("feedback %s model=%q, want %q", id, resp.Model, wantModel)
		}
	}

	// Immediate feedback for the first six, with ~400 s errors (drifted far
	// from the reference's few-second errors).
	for i := 0; i < 6; i++ {
		actual := sv[i].pred + 400 + float64(i)
		feedback(sv[i].id, actual, true, "m1")
		joinedPred, joinedActual = append(joinedPred, sv[i].pred), append(joinedActual, actual)
	}

	// Late feedback: five minutes pass (inside the 10 m TTL), trips 6 and 7
	// complete.
	clk.advance(5 * time.Minute)
	for i := 6; i < 8; i++ {
		actual := sv[i].pred + 350
		feedback(sv[i].id, actual, true, "m1")
		joinedPred, joinedActual = append(joinedPred, sv[i].pred), append(joinedActual, actual)
	}

	// Hot reload. Pre-swap predictions 8 and 9 stay pending under the m1
	// generation; the post-swap estimate is stamped m2.
	if _, err := eng.SwapCtx(context.Background(), echoSnapshot("m2")); err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, h, "/estimate", EstimateRequest{DepartSec: 900})
	var postSwap EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &postSwap); err != nil {
		t.Fatal(err)
	}
	if postSwap.Model != "m2" || postSwap.PredictionID == "" {
		t.Fatalf("post-swap estimate = %+v", postSwap)
	}
	feedback(postSwap.PredictionID, 900+300, true, "m2")
	joinedPred, joinedActual = append(joinedPred, 900), append(joinedActual, 900+300)
	// Feedback across the reload still joins: prediction 8 was served by
	// m1 and must attribute there, not to the live model.
	feedback(sv[8].id, sv[8].pred+380, true, "m1")
	joinedPred, joinedActual = append(joinedPred, sv[8].pred), append(joinedActual, sv[8].pred+380)

	// An orphan: an ID the server never issued.
	feedback("never-issued", 123, false, "")

	// Expiry: the TTL passes, prediction 9 is evicted, its feedback orphans.
	clk.advance(11 * time.Minute)
	feedback(sv[9].id, 999, false, "")

	// Invalid feedback values are client errors.
	for _, bad := range []string{
		`{"prediction_id":"x","actual_seconds":-1}`,
		`{"actual_seconds":10}`,
		`not json`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(bad)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("bad feedback %q = %d", bad, rec.Code)
		}
	}

	// Read the state back through the HTTP surface like an operator would.
	getRec := httptest.NewRecorder()
	h.ServeHTTP(getRec, httptest.NewRequest(http.MethodGet, "/debug/quality", nil))
	if getRec.Code != http.StatusOK {
		t.Fatalf("/debug/quality = %d", getRec.Code)
	}
	var st quality.State
	if err := json.Unmarshal(getRec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /debug/quality JSON %q: %v", getRec.Body, err)
	}

	// The windowed aggregates equal the offline metrics on the joined pairs.
	if st.Current == nil || st.Current.Count != len(joinedPred) {
		t.Fatalf("current window = %+v, want %d joins", st.Current, len(joinedPred))
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"MAE", float64(st.Current.MAESeconds), metrics.MAE(joinedActual, joinedPred)},
		{"MAPE", float64(st.Current.MAPE), metrics.MAPE(joinedActual, joinedPred)},
		{"MARE", float64(st.Current.MARE), metrics.MARE(joinedActual, joinedPred)},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("window %s = %v, offline %s = %v", c.name, c.got, c.name, c.want)
		}
	}

	// Counters: 11 predictions (10 + post-swap), 10 joins, 2 orphans, 1
	// expired, nothing capacity-evicted.
	if st.Counters.Predictions != 11 || st.Counters.Joined != 10 || st.Counters.Orphaned != 2 {
		t.Fatalf("counters = %+v", st.Counters)
	}
	if st.Pending.Expired != 1 || st.Pending.Evicted != 0 || st.Pending.Size != 0 {
		t.Fatalf("pending = %+v", st.Pending)
	}

	// Both generations appear, m1 with 9 joins and m2 with 1.
	if n := len(st.Current.Generations); n != 2 {
		t.Fatalf("generations = %+v", st.Current.Generations)
	}
	if g := st.Current.Generations[0]; g.Model != "m1" || g.Count != 9 {
		t.Fatalf("generation 1 = %+v", g)
	}
	if g := st.Current.Generations[1]; g.Model != "m2" || g.Count != 1 {
		t.Fatalf("generation 2 = %+v", g)
	}

	// Drift fired: the JSON says so, the gauge crossed the threshold, and
	// exactly one warning was logged for the window.
	if !st.Drift.Enabled || !st.Drift.Drifting || !(float64(st.Drift.PSI) > 0.2) {
		t.Fatalf("drift = %+v", st.Drift)
	}
	var gauge, alerts float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "tte_quality_drift":
			gauge = s.Value
		case "tte_quality_drift_alerts_total":
			alerts = s.Value
		}
	}
	if !(gauge > 0.2) || alerts != 1 {
		t.Fatalf("drift gauge = %v, alerts = %v", gauge, alerts)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "quality drift") {
		t.Fatalf("no drift warning in logs: %q", logged)
	}
}

// lockedWriter serializes concurrent slog writes in the test.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestFeedbackUnwired answers 501 so operators can tell monitoring is off
// rather than silently dropping ground truth.
func TestFeedbackUnwired(t *testing.T) {
	s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
		return infer.Result{Seconds: 1}, nil
	}, nil)
	rec := postJSON(t, s.Handler(), "/feedback", FeedbackRequest{PredictionID: "x", ActualSeconds: 1})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("unwired /feedback = %d, want 501", rec.Code)
	}
	// And the debug endpoint is simply absent (404 from the mux).
	get := httptest.NewRecorder()
	s.Handler().ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/debug/quality", nil))
	if get.Code != http.StatusNotFound {
		t.Fatalf("unwired /debug/quality = %d, want 404", get.Code)
	}
}

// TestFeedbackTripIDAlias: callers may echo the ID under trip_id instead.
func TestFeedbackTripIDAlias(t *testing.T) {
	clk := &e2eClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	mon := quality.New(quality.Config{Registry: reg, Now: clk.now})
	eng, err := infer.New(infer.Config{
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Snapshot:  echoSnapshot("m1"),
		Observers: []infer.Observer{mon},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{City: "alias", Infer: eng.Do, Quality: mon, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, srv.Handler(), "/estimate", EstimateRequest{DepartSec: 300})
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"trip_id":%q,"actual_seconds":320}`, resp.PredictionID)
	fb := httptest.NewRecorder()
	srv.Handler().ServeHTTP(fb, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body)))
	if fb.Code != http.StatusOK {
		t.Fatalf("trip_id feedback = %d: %s", fb.Code, fb.Body)
	}
	var fres FeedbackResponse
	if err := json.Unmarshal(fb.Body.Bytes(), &fres); err != nil {
		t.Fatal(err)
	}
	if !fres.Joined || fres.AbsErrorSeconds != 20 {
		t.Fatalf("alias feedback = %+v", fres)
	}
}

// FuzzFeedback sends arbitrary bodies to POST /feedback against a real
// quality monitor holding a few stamped predictions. The handler must never
// panic or answer 5xx: every status is 200, 400 or 413. joined:true may
// only come back for an ID the monitor issued, and at most once per ID.
func FuzzFeedback(f *testing.F) {
	reg := obs.NewRegistry()
	mon := quality.New(quality.Config{PendingTTL: time.Hour, Registry: reg})
	issued := map[string]bool{}
	for i := 0; i < 3; i++ {
		issued[mon.ObserveServe(context.Background(), infer.ServeEvent{Seconds: 100, SnapshotID: "m1", Generation: 1})] = true
	}
	srv, err := New(Config{City: "fuzz-city", Infer: stubInfer, Quality: mon, MaxBodyBytes: 512, Registry: reg})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	for id := range issued {
		f.Add([]byte(`{"prediction_id":"` + id + `","actual_seconds":655}`))
		f.Add([]byte(`{"trip_id":"` + id + `","actual_seconds":1e308}`))
	}
	for _, body := range []string{
		`{"prediction_id":"nope","actual_seconds":1}`,
		`{"prediction_id":"","trip_id":"","actual_seconds":1}`,
		`{"prediction_id":"x","actual_seconds":-1}`,
		`{"prediction_id":"x","actual_seconds":"NaN"}`,
		`{"prediction_id":"x"} trailing`,
		`{"prediction_id":`,
		`[]`,
		`null`,
		``,
		`{"pad":"` + strings.Repeat("x", 600) + `"}`,
	} {
		f.Add([]byte(body))
	}
	joined := map[string]bool{}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp FeedbackResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with a body that is not a FeedbackResponse: %q", rec.Body)
		}
		if !resp.Joined {
			return
		}
		// The ID the handler joined, decoded the way the handler decodes it.
		var req FeedbackRequest
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		id := req.PredictionID
		if id == "" {
			id = req.TripID
		}
		if !issued[id] || joined[id] {
			t.Fatalf("joined:true for %q (issued %v, joined before %v)", id, issued[id], joined[id])
		}
		joined[id] = true
	})
}
