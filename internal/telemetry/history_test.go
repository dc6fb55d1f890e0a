package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deepod/internal/obs"
)

// fakeClock steps a deterministic clock by the history interval per call
// site that wants a new tick time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestHistory(t *testing.T, reg *obs.Registry, cfg Config) (*History, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Registry = obs.NewRegistry() // keep self-metrics out of the sampled registry
	cfg.Now = clk.now
	h, err := NewHistory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, clk
}

func TestHistoryCounterRateAndDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("tte_test_requests_total", "route", "/estimate")
	h, clk := newTestHistory(t, reg, Config{Interval: 10 * time.Second})

	for i := 0; i < 4; i++ {
		c.Add(20) // +20 per 10s tick → rate 2/s
		h.Observe(clk.now(), reg.Snapshot())
		clk.advance(10 * time.Second)
	}

	res := h.Query("tte_test_requests_total", 0, 0, "rate")
	if len(res.Series) != 1 {
		t.Fatalf("series = %d, want 1: %+v", len(res.Series), res.Series)
	}
	s := res.Series[0]
	if s.Kind != "counter" || s.Agg != "rate" {
		t.Fatalf("kind=%s agg=%s", s.Kind, s.Agg)
	}
	if len(s.Points) != 3 {
		t.Fatalf("rate points = %d, want 3", len(s.Points))
	}
	for _, p := range s.Points {
		if p.V != 2 {
			t.Fatalf("rate = %v, want 2/s (points %+v)", p.V, s.Points)
		}
	}

	del := h.Query(`tte_test_requests_total{route="/estimate"}`, 0, 0, "delta")
	if len(del.Series) != 1 || len(del.Series[0].Points) != 3 || del.Series[0].Points[0].V != 20 {
		t.Fatalf("delta query = %+v", del.Series)
	}
	raw := h.Query("tte_test_requests_total", 0, 0, "value")
	if got := raw.Series[0].Points; len(got) != 4 || got[3].V != 80 {
		t.Fatalf("value query = %+v", got)
	}
}

func TestHistoryGaugeAndHistogramDerived(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("tte_test_depth")
	hist := reg.Histogram("tte_test_seconds", []float64{0.1, 1, 10})
	h, clk := newTestHistory(t, reg, Config{Interval: 10 * time.Second})

	for i := 1; i <= 3; i++ {
		g.Set(float64(i))
		hist.Observe(0.05)
		hist.Observe(0.5)
		h.Observe(clk.now(), reg.Snapshot())
		clk.advance(10 * time.Second)
	}

	gauge := h.Query("tte_test_depth", 0, 0, "")
	if len(gauge.Series) != 1 || gauge.Series[0].Agg != "value" {
		t.Fatalf("gauge query = %+v", gauge.Series)
	}
	if pts := gauge.Series[0].Points; len(pts) != 3 || pts[2].V != 3 {
		t.Fatalf("gauge points = %+v", pts)
	}

	// Bare family name matches all derived lines.
	fam := h.Query("tte_test_seconds", 0, 0, "")
	names := map[string]bool{}
	for _, s := range fam.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"tte_test_seconds:count", "tte_test_seconds:sum", "tte_test_seconds:p50", "tte_test_seconds:p99"} {
		if !names[want] {
			t.Fatalf("derived series %s missing (got %v)", want, names)
		}
	}

	p99 := h.Query("tte_test_seconds:p99", 0, 0, "")
	if len(p99.Series) != 1 || len(p99.Series[0].Points) != 3 {
		t.Fatalf("p99 query = %+v", p99.Series)
	}
	if v := p99.Series[0].Points[0].V; v <= 0.1 || v > 1 {
		t.Fatalf("p99 = %v, want in (0.1, 1]", v)
	}
}

func TestHistoryCoarseTier(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("tte_test_total")
	g := reg.Gauge("tte_test_gauge")
	h, clk := newTestHistory(t, reg, Config{
		Interval: 10 * time.Second, RawPoints: 6, CoarseEvery: 3, CoarsePoints: 10,
	})

	for i := 1; i <= 9; i++ {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(clk.now(), reg.Snapshot())
		clk.advance(10 * time.Second)
	}

	// Range past the raw span (6×10s) selects the coarse tier.
	res := h.Query("tte_test_total", time.Hour, 0, "value")
	if res.Tier != "coarse" {
		t.Fatalf("tier = %s, want coarse", res.Tier)
	}
	pts := res.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("coarse points = %d, want 3 (9 ticks / fold 3)", len(pts))
	}
	// Counters keep the window-end cumulative value: 3, 6, 9.
	if pts[0].V != 3 || pts[2].V != 9 {
		t.Fatalf("coarse counter points = %+v", pts)
	}
	// Gauges average the window: (1+2+3)/3 = 2, then 5, 8.
	gres := h.Query("tte_test_gauge", time.Hour, 0, "")
	gp := gres.Series[0].Points
	if len(gp) != 3 || gp[0].V != 2 || gp[2].V != 8 {
		t.Fatalf("coarse gauge points = %+v", gp)
	}
}

func TestHistoryCardinalityGuard(t *testing.T) {
	reg := obs.NewRegistry()
	h, clk := newTestHistory(t, reg, Config{Interval: 10 * time.Second, MaxSeriesPerFamily: 2})

	for i := 0; i < 5; i++ {
		reg.Counter("tte_burst_total", "user", fmt.Sprint(i)).Add(10)
	}
	h.Observe(clk.now(), reg.Snapshot())
	clk.advance(10 * time.Second)
	for i := 0; i < 5; i++ {
		reg.Counter("tte_burst_total", "user", fmt.Sprint(i)).Add(10)
	}
	h.Observe(clk.now(), reg.Snapshot())

	res := h.Query("tte_burst_total", 0, 0, "value")
	var overflow *QuerySeries
	tracked := 0
	for i := range res.Series {
		s := &res.Series[i]
		if s.ID == `tte_burst_total{overflow="true"}` {
			overflow = s
		} else {
			tracked++
		}
	}
	if tracked != 2 {
		t.Fatalf("tracked label sets = %d, want 2 (cap)", tracked)
	}
	if overflow == nil {
		t.Fatal("no overflow series")
	}
	// 3 capped children × cumulative 10 then 20.
	if pts := overflow.Points; len(pts) != 2 || pts[0].V != 30 || pts[1].V != 60 {
		t.Fatalf("overflow points = %+v", overflow.Points)
	}
	if got := h.HistoryStats().DroppedSeries; got != 3 {
		t.Fatalf("dropped series = %d, want 3", got)
	}
}

func TestHistoryExemplarHarvest(t *testing.T) {
	obs.SetExemplars(true)
	defer obs.SetExemplars(false)

	reg := obs.NewRegistry()
	h, clk := newTestHistory(t, reg, Config{Interval: 10 * time.Second, ExemplarsPerSeries: 4})
	// A span ended inside a trace stamps its bucket with the trace ID.
	span := func(id obs.TraceID) {
		ctx, _ := obs.StartTrace(context.Background(), id, "/x")
		_, s := reg.StartSpan(ctx, "test")
		s.End()
	}

	span("0123456789abcdef")
	h.Observe(clk.now(), reg.Snapshot())
	clk.advance(10 * time.Second)
	span("fedcba9876543210")
	h.Observe(clk.now(), reg.Snapshot())

	res := h.Query(obs.SpanFamily+":p99", 0, 0, "")
	if len(res.Series) != 1 {
		t.Fatalf("series = %+v", res.Series)
	}
	ex := res.Series[0].Exemplars
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2", ex)
	}
	if ex[0].TraceID != "0123456789abcdef" || ex[1].TraceID != "fedcba9876543210" {
		t.Fatalf("exemplar trace ids = %+v", ex)
	}

	// Re-ticking without new observations must not duplicate them.
	clk.advance(10 * time.Second)
	h.Observe(clk.now(), reg.Snapshot())
	res = h.Query(obs.SpanFamily+":p99", 0, 0, "")
	if got := len(res.Series[0].Exemplars); got != 2 {
		t.Fatalf("exemplars after idle tick = %d, want 2", got)
	}
}

func TestHistoryHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("tte_test_total").Add(5)
	h, clk := newTestHistory(t, reg, Config{Interval: 10 * time.Second})
	h.Observe(clk.now(), reg.Snapshot())
	clk.advance(10 * time.Second)
	reg.Counter("tte_test_total").Add(5)
	h.Observe(clk.now(), reg.Snapshot())

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	rec := get("/debug/metrics/history?series=tte_test_total&agg=delta")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var res QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 || res.Series[0].Points[0].V != 5 {
		t.Fatalf("handler result = %+v", res)
	}

	// Catalog without ?series=.
	var cat struct {
		SeriesIDs []string `json:"series_ids"`
	}
	if err := json.Unmarshal(get("/debug/metrics/history").Body.Bytes(), &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.SeriesIDs) == 0 || cat.SeriesIDs[0] != "tte_test_total" {
		t.Fatalf("catalog = %+v", cat.SeriesIDs)
	}

	if rec := get("/debug/metrics/history?series=x&range=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad range status = %d", rec.Code)
	}
	if rec := get("/debug/metrics/history?series=x&agg=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad agg status = %d", rec.Code)
	}
}

// TestHistoryRefusesSubSecondInterval: points are stamped in whole unix
// seconds, so two ticks inside one second would share a timestamp and a
// rate query would report the raw delta. A history that cannot be ticked
// faster than 1s refuses the interval instead.
func TestHistoryRefusesSubSecondInterval(t *testing.T) {
	for _, d := range []time.Duration{time.Nanosecond, 500 * time.Millisecond, time.Second - 1} {
		if _, err := NewHistory(Config{Interval: d, Registry: obs.NewRegistry()}); err == nil {
			t.Errorf("Interval %v accepted", d)
		}
	}
	for _, d := range []time.Duration{0, time.Second, 10 * time.Second} {
		if _, err := NewHistory(Config{Interval: d, Registry: obs.NewRegistry()}); err != nil {
			t.Errorf("Interval %v refused: %v", d, err)
		}
	}
}
