package quality

import (
	"bytes"
	"context"
	"encoding/json"
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
)

// fakeClock is a mutex-guarded manual clock for deterministic rotation and
// TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// served is the engine's event for one answer, its origin and destination
// stamped on grid cells cell and cell+10 and its departure on slot.
func served(cell, slot int, sec float64, model string, gen uint64) infer.ServeEvent {
	return infer.ServeEvent{OriginCell: cell, DestCell: cell + 10, Slot: slot, Seconds: sec, SnapshotID: model, Generation: gen}
}

// record hands m one answered estimate, as the engine does.
func record(m *Monitor, ev infer.ServeEvent) string { return m.ObserveServe(context.Background(), ev) }

func newTestMonitor(t *testing.T, clk *fakeClock, mut func(*Config)) *Monitor {
	t.Helper()
	cfg := Config{
		Window:     time.Minute,
		PendingTTL: 10 * time.Minute,
		Registry:   obs.NewRegistry(),
		Now:        clk.now,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

func TestRecordJoinMatchesOfflineMetrics(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, nil)

	preds := []float64{100, 250, 400, 60}
	actuals := []float64{110, 240, 500, 45}
	var ids []string
	for _, p := range preds {
		ids = append(ids, record(m, served(0, 2, p, "m1", 1)))
	}
	for i, id := range ids {
		res, err := m.Feedback(id, actuals[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Joined || res.PredictedSeconds != preds[i] || res.Model != "m1" {
			t.Fatalf("feedback %d = %+v", i, res)
		}
		if want := math.Abs(actuals[i] - preds[i]); res.AbsErrorSeconds != want {
			t.Fatalf("abs error = %v, want %v", res.AbsErrorSeconds, want)
		}
	}

	st := m.State()
	if st.Counters.Predictions != 4 || st.Counters.Joined != 4 || st.Counters.Orphaned != 0 {
		t.Fatalf("counters = %+v", st.Counters)
	}
	// The windowed aggregates must agree with the offline metrics package on
	// the same joined pairs.
	if got, want := float64(st.Current.MAESeconds), metrics.MAE(actuals, preds); math.Abs(got-want) > 1e-9 {
		t.Fatalf("window MAE = %v, offline MAE = %v", got, want)
	}
	if got, want := float64(st.Current.MAPE), metrics.MAPE(actuals, preds); math.Abs(got-want) > 1e-9 {
		t.Fatalf("window MAPE = %v, offline MAPE = %v", got, want)
	}
	if got, want := float64(st.Current.MARE), metrics.MARE(actuals, preds); math.Abs(got-want) > 1e-9 {
		t.Fatalf("window MARE = %v, offline MARE = %v", got, want)
	}
	if st.Current.Count != 4 || st.Pending.Size != 0 {
		t.Fatalf("count=%d pending=%d", st.Current.Count, st.Pending.Size)
	}
	// Running gauges track the same values live.
	if g := m.maeGauge.Value(); math.Abs(g-metrics.MAE(actuals, preds)) > 1e-9 {
		t.Fatalf("mae gauge = %v", g)
	}
}

func TestFeedbackOrphansAndValidation(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, nil)

	if res, err := m.Feedback("nope", 100); err != nil || res.Joined {
		t.Fatalf("unknown id: res=%+v err=%v", res, err)
	}
	id := record(m, served(0, 0, 100, "m1", 1))
	if _, err := m.Feedback(id, 100); err != nil {
		t.Fatal(err)
	}
	// Double feedback on the same ID is an orphan, not a double count.
	if res, err := m.Feedback(id, 100); err != nil || res.Joined {
		t.Fatalf("double join: res=%+v err=%v", res, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		if _, err := m.Feedback(id, bad); err == nil {
			t.Fatalf("actual=%v accepted", bad)
		}
	}
	st := m.State()
	if st.Counters.Joined != 1 || st.Counters.Orphaned != 2 {
		t.Fatalf("counters = %+v", st.Counters)
	}
}

func TestPendingTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, func(c *Config) { c.PendingTTL = time.Minute; c.Window = time.Hour })

	early := record(m, served(0, 0, 100, "m1", 1))
	clk.advance(50 * time.Second)
	late := record(m, served(0, 0, 200, "m1", 1))
	clk.advance(30 * time.Second) // early is now 80s old, late 30s

	if res, _ := m.Feedback(early, 100); res.Joined {
		t.Fatal("expired prediction joined")
	}
	if res, _ := m.Feedback(late, 200); !res.Joined {
		t.Fatal("live prediction did not join")
	}
	st := m.State()
	if st.Pending.Expired != 1 || st.Counters.Orphaned != 1 || st.Counters.Joined != 1 {
		t.Fatalf("expired=%d counters=%+v", st.Pending.Expired, st.Counters)
	}
	if st.Pending.Size != 0 {
		t.Fatalf("pending size = %d", st.Pending.Size)
	}
}

func TestPendingCapacityEviction(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, func(c *Config) { c.PendingMax = 3 })

	ids := make([]string, 5)
	for i := range ids {
		ids[i] = record(m, served(0, 0, float64(100+i), "m1", 1))
	}
	st := m.State()
	if st.Pending.Size != 3 || st.Pending.Evicted != 2 {
		t.Fatalf("size=%d evicted=%d", st.Pending.Size, st.Pending.Evicted)
	}
	// The two oldest are gone; the three newest still join.
	for i, id := range ids {
		res, _ := m.Feedback(id, 100)
		if wantJoin := i >= 2; res.Joined != wantJoin {
			t.Fatalf("id %d joined=%v, want %v", i, res.Joined, wantJoin)
		}
	}
}

func TestWindowRotation(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, func(c *Config) { c.MaxWindows = 2 })
	start := clk.now()

	join := func(pred, actual float64) {
		id := record(m, served(0, 0, pred, "m1", 1))
		if res, err := m.Feedback(id, actual); err != nil || !res.Joined {
			t.Fatalf("join failed: %+v %v", res, err)
		}
	}

	join(100, 110) // window 0: MAE 10
	clk.advance(time.Minute)
	join(100, 120) // window 1: MAE 20
	clk.advance(time.Minute)
	join(100, 130) // window 2: MAE 30
	clk.advance(time.Minute)
	// A long idle gap: no empty windows are fabricated.
	clk.advance(30 * time.Minute)
	join(100, 140) // window 33: MAE 40

	st := m.State()
	if len(st.Windows) != 2 { // MaxWindows caps retention
		t.Fatalf("closed windows = %d, want 2", len(st.Windows))
	}
	// Newest first: window 2 (MAE 30) then window 1 (MAE 20).
	if got := float64(st.Windows[0].MAESeconds); got != 30 {
		t.Fatalf("newest closed MAE = %v, want 30", got)
	}
	if got := float64(st.Windows[1].MAESeconds); got != 20 {
		t.Fatalf("older closed MAE = %v, want 20", got)
	}
	if float64(st.Current.MAESeconds) != 40 || st.Current.Count != 1 {
		t.Fatalf("current = %+v", st.Current)
	}
	// Window boundaries stay aligned to the first start across the gap.
	if off := st.Current.Start.Sub(start) % time.Minute; off != 0 {
		t.Fatalf("current window start misaligned by %v", off)
	}
	if !st.Windows[0].End.Equal(st.Windows[0].Start.Add(time.Minute)) {
		t.Fatalf("closed window end %v != start+window", st.Windows[0])
	}
}

func TestDriftDetection(t *testing.T) {
	clk := newFakeClock()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	// Training-time reference: errors concentrated in the lowest bins.
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2} {
		ref.Observe(v)
	}
	m := newTestMonitor(t, clk, func(c *Config) {
		c.Reference = ref
		c.ReferenceModel = "m1"
		c.MinDriftSamples = 10
		c.DriftThreshold = 0.2
		c.Logger = logger
	})

	// Live errors land in a far bin (|500-100| = 400 s) — a hard shift.
	for i := 0; i < 15; i++ {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 500); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()
	if !st.Drift.Enabled || !st.Drift.Drifting {
		t.Fatalf("drift = %+v", st.Drift)
	}
	if psi := float64(st.Drift.PSI); !(psi > 0.2) {
		t.Fatalf("PSI = %v, want > threshold", psi)
	}
	if g := m.driftGauge.Value(); !(g > 0.2) {
		t.Fatalf("drift gauge = %v", g)
	}
	if m.driftAlerts.Value() != 1 {
		t.Fatalf("alerts = %d, want exactly 1 per window", m.driftAlerts.Value())
	}
	if !strings.Contains(logBuf.String(), "quality drift") {
		t.Fatalf("no drift warning logged: %q", logBuf.String())
	}
	if st.Drift.ReferenceModel != "m1" || st.Drift.ReferenceSamples != uint64(ref.Total()) {
		t.Fatalf("drift reference = %+v", st.Drift)
	}

	// Next window re-arms the alert.
	clk.advance(time.Minute)
	for i := 0; i < 12; i++ {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 500); err != nil {
			t.Fatal(err)
		}
	}
	if m.driftAlerts.Value() != 2 {
		t.Fatalf("alerts after second window = %d, want 2", m.driftAlerts.Value())
	}
}

func TestDriftStableDistribution(t *testing.T) {
	clk := newFakeClock()
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{4, 4, 4, 4, 8, 8, 8, 8, 15, 15, 15, 15, 25, 25, 25, 25} {
		ref.Observe(v)
	}
	m := newTestMonitor(t, clk, func(c *Config) {
		c.Reference = ref
		c.MinDriftSamples = 16
	})
	// Live errors drawn from the same distribution: PSI stays small.
	for _, e := range []float64{4, 4, 4, 4, 8, 8, 8, 8, 15, 15, 15, 15, 25, 25, 25, 25} {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 100+e); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()
	if st.Drift.Drifting {
		t.Fatalf("stable distribution flagged as drifting: %+v", st.Drift)
	}
	if psi := float64(st.Drift.PSI); math.IsNaN(psi) || psi > 0.05 {
		t.Fatalf("PSI = %v, want ~0", psi)
	}
	if m.driftAlerts.Value() != 0 {
		t.Fatal("alert fired on a stable distribution")
	}
}

func TestSetReferenceSwap(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, nil)
	if st := m.State(); st.Drift.Enabled {
		t.Fatal("drift enabled without a reference")
	}
	id := record(m, served(0, 0, 100, "m1", 1))
	if _, err := m.Feedback(id, 110); err != nil {
		t.Fatal(err)
	}

	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{5, 10, 15} {
		ref.Observe(v)
	}
	m.SetReference(ref, "m2")
	st := m.State()
	if !st.Drift.Enabled || st.Drift.ReferenceModel != "m2" {
		t.Fatalf("drift after SetReference = %+v", st.Drift)
	}
	// The pre-swap join is not binned against the new edges.
	m.mu.Lock()
	var binned float64
	for _, c := range m.cur.driftCounts {
		binned += c
	}
	m.mu.Unlock()
	if binned != 0 {
		t.Fatalf("drift counts carried across reference swap: %v", binned)
	}
	// An invalid reference is rejected and disables drift.
	m.SetReference(&metrics.RefDist{Uppers: []float64{2, 1}, Counts: make([]uint64, 3)}, "bad")
	if st := m.State(); st.Drift.Enabled {
		t.Fatal("invalid reference accepted")
	}
}

func TestHeatmapsAndGenerations(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, func(c *Config) { c.TopK = 2 })

	joinOK := func(cell, slot int, pred, actual float64, model string, gen uint64) {
		id := record(m, served(cell, slot, pred, model, gen))
		if res, err := m.Feedback(id, actual); err != nil || !res.Joined {
			t.Fatalf("join: %+v %v", res, err)
		}
	}

	// Cell 0: error 50. Cell 50: error 200. Cell 90: error 5. Dest cells
	// are origin+10.
	joinOK(0, 0, 100, 150, "m1", 1)
	joinOK(50, 1, 100, 300, "m1", 1)
	joinOK(90, 2, 100, 105, "m2", 2)

	st := m.State()
	cells := st.Current.WorstCells
	if len(cells) != 2 { // TopK caps the heatmap
		t.Fatalf("worst cells = %+v", cells)
	}
	// Worst first: cells 50 and 60 tie at MAE 200; count ties too, so the
	// lower key (50) wins the top slot.
	if cells[0].Key != 50 || float64(cells[0].MAESeconds) != 200 {
		t.Fatalf("worst cell = %+v", cells[0])
	}
	if cells[1].Key != 60 {
		t.Fatalf("second worst cell = %+v", cells[1])
	}
	slots := st.Current.WorstSlots
	if len(slots) != 2 || slots[0].Key != 1 {
		t.Fatalf("worst slots = %+v", slots)
	}

	gens := st.Current.Generations
	if len(gens) != 2 || gens[0].Generation != 1 || gens[1].Generation != 2 {
		t.Fatalf("generations = %+v", gens)
	}
	if gens[0].Count != 2 || float64(gens[0].MAESeconds) != 125 || gens[0].Model != "m1" {
		t.Fatalf("gen 1 = %+v", gens[0])
	}
	if gens[1].Count != 1 || float64(gens[1].MAESeconds) != 5 || gens[1].Model != "m2" {
		t.Fatalf("gen 2 = %+v", gens[1])
	}
}

func TestQuantilesFromWindowHistogram(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, nil)
	// 100 joins with abs error 10 s: every quantile lands in the (7.5, 10]
	// bucket.
	for i := 0; i < 100; i++ {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 110); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()
	for _, q := range []float64{float64(st.Current.P50AbsError), float64(st.Current.P95AbsError), float64(st.Current.P99AbsError)} {
		if q <= 7.5 || q > 10 {
			t.Fatalf("quantile %v outside the (7.5, 10] bucket", q)
		}
	}
}

func TestJSONFloat(t *testing.T) {
	b, err := json.Marshal(struct {
		A JSONFloat `json:"a"`
		B JSONFloat `json:"b"`
		C JSONFloat `json:"c"`
	}{JSONFloat(math.NaN()), JSONFloat(math.Inf(1)), JSONFloat(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"a":null,"b":null,"c":1.5}` {
		t.Fatalf("marshal = %s", b)
	}
	var back struct {
		A JSONFloat `json:"a"`
		C JSONFloat `json:"c"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.A)) || float64(back.C) != 1.5 {
		t.Fatalf("unmarshal = %+v", back)
	}
}

func TestHandler(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, nil)
	id := record(m, served(0, 0, 100, "m1", 1))
	if _, err := m.Feedback(id, 120); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/quality", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}
	var st State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON %q: %v", rec.Body, err)
	}
	if st.Current == nil || st.Current.Count != 1 || float64(st.Current.MAESeconds) != 20 {
		t.Fatalf("state = %+v", st.Current)
	}
	// An empty-window PSI serializes as null and decodes back to NaN.
	if !math.IsNaN(float64(st.Current.PSI)) {
		t.Fatalf("PSI = %v, want NaN via null", st.Current.PSI)
	}

	rec = httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/quality", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", rec.Code)
	}
}

func TestConcurrentRecordAndFeedback(t *testing.T) {
	clk := newFakeClock()
	m := newTestMonitor(t, clk, func(c *Config) { c.PendingMax = 256 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := record(m, served(g, 0, 100, "m1", 1))
				if i%2 == 0 {
					if _, err := m.Feedback(id, 100+float64(i%30)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%50 == 0 {
					_ = m.State()
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.State()
	if st.Counters.Predictions != 1600 {
		t.Fatalf("predictions = %d", st.Counters.Predictions)
	}
	joined := st.Counters.Joined + st.Counters.Orphaned
	if joined != 800 {
		t.Fatalf("feedback total = %d", joined)
	}
}

// TestDriftAlerts covers what drift reports: the tte_quality_drift gauge
// the drift rule tickets on, one counted and logged Warn line in the window
// that diverges, and a gauge back under the threshold in the window that
// recovers.
func TestDriftAlerts(t *testing.T) {
	clk := newFakeClock()
	var logBuf bytes.Buffer
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{4, 4, 4, 4, 8, 8, 8, 8, 15, 15, 15, 15, 25, 25, 25, 25} {
		ref.Observe(v)
	}
	m := newTestMonitor(t, clk, func(c *Config) {
		c.Reference = ref
		c.ReferenceModel = "m1"
		c.MinDriftSamples = 10
		c.DriftThreshold = 0.2
		c.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	})

	// Divergent errors: the gauge crosses the threshold, once counted and
	// once logged at Warn.
	for i := 0; i < 15; i++ {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 500); err != nil {
			t.Fatal(err)
		}
	}
	if g := m.driftGauge.Value(); !(g > 0.2) {
		t.Fatalf("drift gauge = %v, want > threshold", g)
	}
	if m.driftAlerts.Value() != 1 {
		t.Fatalf("drift alert counter = %d, want 1", m.driftAlerts.Value())
	}
	if l := logBuf.String(); strings.Count(l, "quality drift") != 1 || !strings.Contains(l, "level=WARN") {
		t.Fatalf("want one Warn drift line, logged %q", l)
	}

	// Next window with in-distribution errors: the gauge recedes.
	clk.advance(time.Minute)
	for _, e := range []float64{4, 4, 4, 4, 8, 8, 8, 8, 15, 15, 15, 15, 25, 25, 25, 25} {
		id := record(m, served(0, 0, 100, "m1", 1))
		if _, err := m.Feedback(id, 100+e); err != nil {
			t.Fatal(err)
		}
	}
	if g := m.driftGauge.Value(); !(g < 0.2) {
		t.Fatalf("recovered drift gauge = %v, want < threshold", g)
	}
}
