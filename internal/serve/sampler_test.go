package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepod/internal/obs"
	"deepod/internal/slo"
)

// TestSamplerFeedsSLO wires the SLO evaluator to one sampler the way
// tteserve does and reads /debug/slo while it ticks: the evaluator sees
// every tick, and stop leaves it readable.
func TestSamplerFeedsSLO(t *testing.T) {
	reg := obs.NewRegistry()
	ev, err := slo.New(slo.Config{Objectives: slo.DefaultObjectives(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{City: "sampler-city", Infer: stubInfer, Registry: reg, SLO: ev})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const body = `{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":600}`
	postEstimate(t, h, body) // every tick sees at least one request
	evals := reg.Counter("tte_slo_evaluations_total")
	var ticks atomic.Uint64
	stop := obs.StartSampler(reg, time.Millisecond, func(time.Time, []obs.Sample) { ticks.Add(1) }, ev.Observe)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for evals.Value() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("%d evaluations in 5s", evals.Value())
		}
		postEstimate(t, h, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /debug/slo = %d: %s", rec.Code, rec.Body)
		}
	}
	stop()
	if n, e := ticks.Load(), evals.Value(); n != e {
		t.Fatalf("the sampler ticked %d times, the evaluator evaluated %d", n, e)
	}
	if st := ev.Status(); st.LastEval.IsZero() || st.Objectives[0].Total == 0 {
		t.Fatalf("evaluator status after stop = %+v", st)
	}
}

// BenchmarkSamplerTick is one tick of tteserve's process sampler
// (obs.StartSampler) at a serving registry's size: the HTTP, engine, span
// and trace-store families a real server and engine leave after a few
// hundred requests, plus the SLO evaluator's own. One op refreshes the
// runtime gauges, takes one snapshot and hands it to the evaluator with
// tteserve's default objectives and rules. samples/op is the snapshot's
// length.
func BenchmarkSamplerTick(b *testing.B) {
	s, _, body := newTracedEngineServer(b)
	h, reg := s.Handler(), s.reg
	estimate := func(depart int) *http.Request {
		js := strings.Replace(body, `"depart_sec":600`, fmt.Sprintf(`"depart_sec":%d`, depart), 1)
		return httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(js))
	}
	codes := map[int]int{}
	for i := 0; i < 300; i++ {
		var req *http.Request
		switch {
		case i%10 == 9:
			req = estimate(-1) // a 400
		case i%25 == 24:
			req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
		default:
			req = estimate(600 + i%40) // 40 departures: misses, then hits
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		codes[rec.Code]++
	}
	if codes[http.StatusOK] < 200 || codes[http.StatusBadRequest] != 30 {
		b.Fatalf("status codes %v", codes)
	}
	ev, err := slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(),
		Rules:      slo.DefaultRules(),
		Registry:   reg,
		Manager:    slo.NewManager(slo.ManagerConfig{Registry: reg}),
	})
	if err != nil {
		b.Fatal(err)
	}
	var samples []obs.Sample
	tick := func() {
		obs.CollectRuntime(reg)
		now := time.Now()
		samples = reg.Snapshot()
		ev.Observe(now, samples)
	}
	tick() // the first tick creates every series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
}
