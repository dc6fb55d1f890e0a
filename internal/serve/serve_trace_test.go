package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"deepod/internal/core"
	"deepod/internal/infer"
	"deepod/internal/mapmatch"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// tinyGraphModel builds a 4×4 city and an (untrained) DeepOD model over it.
func tinyGraphModel(t testing.TB) (*roadnet.Graph, *core.Model) {
	t.Helper()
	gcfg := roadnet.SmallCity("trace-e2e", 7)
	gcfg.Rows, gcfg.Cols = 4, 4
	g, err := roadnet.GenerateCity(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SmallConfig()
	cfg.Ds, cfg.Dt = 8, 8
	cfg.D1m, cfg.D2m, cfg.D3m, cfg.D4m = 16, 8, 16, 8
	cfg.D5m, cfg.D6m, cfg.D7m, cfg.D9m = 16, 8, 16, 16
	cfg.Dh, cfg.Dtraf = 16, 8
	m, err := core.New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// newTracedEngineServer assembles the real serving stack — HTTP layer,
// inference engine, map matcher, and an (untrained) DeepOD model — with
// tracing on, so tests can follow one request's spans across every layer.
func newTracedEngineServer(t testing.TB) (*Server, *obs.TraceStore, string) {
	t.Helper()
	return newEngineServer(t, obs.NewRegistry(), true)
}

// newEngineServer is newTracedEngineServer on reg, with tracing on or off
// (a nil store).
func newEngineServer(t testing.TB, reg *obs.Registry, traced bool) (*Server, *obs.TraceStore, string) {
	t.Helper()
	g, m := tinyGraphModel(t)
	matcher, err := mapmatch.New(g, mapmatch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.New(infer.Config{
		Match: func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			oe, of, err := matcher.MatchPointCtx(ctx, od.Origin)
			if err != nil {
				return traj.MatchedOD{}, err
			}
			de, df, err := matcher.MatchPointCtx(ctx, od.Dest)
			if err != nil {
				return traj.MatchedOD{}, err
			}
			return traj.MatchedOD{
				OriginEdge: oe, DestEdge: de,
				RStart: of, REnd: 1 - df,
				DepartSec: od.DepartSec,
			}, nil
		},
		Snapshot:     infer.ModelSnapshot("m-e2e", m),
		Workers:      2,
		QueueDepth:   16,
		MaxBatch:     4,
		CacheEntries: 64,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)

	var ts *obs.TraceStore
	if traced {
		ts = obs.NewTraceStore(reg, obs.TraceStoreConfig{SlowestN: -1, SampleRate: 1})
	}
	s, err := New(Config{
		City:     "trace-city",
		Infer:    eng.Do,
		Validate: eng.Validate,
		Ready:    eng.Readiness,
		Registry: reg,
		Traces:   ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An on-network request body: both endpoints sit exactly on edges.
	o := g.PointAlongEdge(0, 0.3)
	d := g.PointAlongEdge(roadnet.EdgeID(g.NumEdges()-1), 0.7)
	body := fmt.Sprintf(`{"origin":{"X":%f,"Y":%f},"dest":{"X":%f,"Y":%f},"depart_sec":600}`,
		o.X, o.Y, d.X, d.Y)
	return s, ts, body
}

// spanAttrs flattens a span's attributes for assertions.
func spanAttrs(s obs.SpanRecord) map[string]any {
	out := map[string]any{}
	for _, a := range s.Attrs {
		out[a.Key] = a.Value
	}
	return out
}

// TestTracePropagationEndToEnd drives one request through the full stack
// and checks the retained trace is a single tree: the route's root span
// with decode and the engine stages (cache, queue, batch) as children, the
// match and model stages under the batch, and the core model's encode and
// estimate stages under the model span — the layering the trace layer
// exists to expose.
func TestTracePropagationEndToEnd(t *testing.T) {
	s, ts, body := newTracedEngineServer(t)
	h := s.Handler()

	rec := postEstimate(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate = %d, body %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get(obs.TraceHeader)
	if id == "" {
		t.Fatal("response missing X-Trace-Id")
	}

	recs := ts.Traces(obs.TraceFilter{Route: "/estimate"})
	if len(recs) != 1 || recs[0].TraceID != id {
		t.Fatalf("retained = %+v, want one /estimate trace with ID %s", recs, id)
	}
	tr := recs[0]
	idx := map[string]int{}
	for i, sp := range tr.Spans {
		idx[sp.Name] = i
	}
	parentOf := func(name string) int {
		i, ok := idx[name]
		if !ok {
			t.Fatalf("trace has no %q span; spans: %+v", name, tr.Spans)
		}
		return tr.Spans[i].Parent
	}
	if parentOf("/estimate") != -1 {
		t.Fatalf("root parent = %d", parentOf("/estimate"))
	}
	for _, name := range []string{"decode", "infer.cache", "infer.queue", "infer.batch"} {
		if parentOf(name) != idx["/estimate"] {
			t.Fatalf("%s parent = %d, want root (%d); spans: %+v", name, parentOf(name), idx["/estimate"], tr.Spans)
		}
	}
	for _, name := range []string{"infer.match", "infer.model"} {
		if parentOf(name) != idx["infer.batch"] {
			t.Fatalf("%s parent = %d, want infer.batch (%d)", name, parentOf(name), idx["infer.batch"])
		}
	}
	// Both endpoints: one mapmatch.point span each, cheap but never dropped.
	points := 0
	for _, sp := range tr.Spans {
		if sp.Name != "mapmatch.point" {
			continue
		}
		points++
		if sp.Parent != idx["infer.match"] {
			t.Fatalf("mapmatch.point parent = %d, want infer.match (%d)", sp.Parent, idx["infer.match"])
		}
	}
	if points != 2 {
		t.Fatalf("trace has %d mapmatch.point spans, want 2 (origin and destination); spans: %+v", points, tr.Spans)
	}
	for _, name := range []string{"encode", "estimate"} {
		if parentOf(name) != idx["infer.model"] {
			t.Fatalf("%s parent = %d, want infer.model (%d)", name, parentOf(name), idx["infer.model"])
		}
	}

	if a := spanAttrs(tr.Spans[idx["infer.cache"]]); a["hit"] != false {
		t.Fatalf("infer.cache attrs = %v, want hit=false", a)
	}
	ba := spanAttrs(tr.Spans[idx["infer.batch"]])
	if bs, ok := ba["batch_size"].(int); !ok || bs < 1 {
		t.Fatalf("infer.batch attrs = %v, want batch_size >= 1", ba)
	}
	if ba["snapshot"] != "m-e2e" {
		t.Fatalf("infer.batch attrs = %v, want snapshot m-e2e", ba)
	}
	qa := spanAttrs(tr.Spans[idx["infer.queue"]])
	if _, ok := qa["wait_ms"].(float64); !ok {
		t.Fatalf("infer.queue attrs = %v, want wait_ms", qa)
	}
	if a := spanAttrs(tr.Spans[idx["/estimate"]]); a["status"] != 200 {
		t.Fatalf("root attrs = %v, want status 200", a)
	}

	// The repeat of the same OD is a cache hit: its trace records hit=true
	// and never reaches the batch stage.
	rec = postEstimate(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat = %d, body %s", rec.Code, rec.Body)
	}
	id2 := rec.Header().Get(obs.TraceHeader)
	if id2 == "" || id2 == id {
		t.Fatalf("repeat trace ID = %q (first %q)", id2, id)
	}
	recs = ts.Traces(obs.TraceFilter{Route: "/estimate"})
	if len(recs) != 2 || recs[0].TraceID != id2 {
		t.Fatalf("retained after repeat = %d traces, newest %s", len(recs), recs[0].TraceID)
	}
	hit := recs[0]
	names := map[string]bool{}
	for _, sp := range hit.Spans {
		names[sp.Name] = true
		if sp.Name == "infer.cache" {
			if a := spanAttrs(sp); a["hit"] != true {
				t.Fatalf("repeat infer.cache attrs = %v, want hit=true", a)
			}
		}
	}
	if names["infer.batch"] || names["infer.queue"] {
		t.Fatalf("cache-hit trace has engine queue/batch spans: %+v", hit.Spans)
	}
}

// TestTraceTailSamplingUnderLoad floods the server with mixed fast, slow
// and failing requests and checks the retention contract: every error
// trace and every deliberately slow trace is retained and visible through
// GET /debug/traces, every response carries X-Trace-Id, and the minDur
// filter isolates the slow set.
func TestTraceTailSamplingUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	ts := obs.NewTraceStore(reg, obs.TraceStoreConfig{
		Capacity:   256,
		SlowestN:   8,
		Window:     time.Hour, // no rotation mid-test
		SampleRate: 0,         // only error/slow retention, deterministically
	})
	// The stub engine keys behavior off depart_sec: <1000 fast success,
	// <2000 slow success, else failure (→ 500).
	s := newInferServer(t, func(_ context.Context, od traj.ODInput) (infer.Result, error) {
		switch {
		case od.DepartSec < 1000:
			return infer.Result{Seconds: 1}, nil
		case od.DepartSec < 2000:
			time.Sleep(15 * time.Millisecond)
			return infer.Result{Seconds: 2}, nil
		default:
			return infer.Result{}, errors.New("model exploded")
		}
	}, func(c *Config) {
		c.Registry = reg
		c.Traces = ts
	})
	h := s.Handler()

	do := func(depart int) (string, int) {
		rec := postEstimate(t, h, fmt.Sprintf(`{"origin":{"X":1,"Y":1},"dest":{"X":2,"Y":2},"depart_sec":%d}`, depart))
		return rec.Header().Get(obs.TraceHeader), rec.Code
	}
	slowIDs := map[string]bool{}
	errIDs := map[string]bool{}
	total := 0
	for i := 0; i < 40; i++ { // fast traffic first fills the slow window
		id, code := do(i)
		if id == "" {
			t.Fatalf("fast request %d missing X-Trace-Id", i)
		}
		if code != http.StatusOK {
			t.Fatalf("fast request %d = %d", i, code)
		}
		total++
	}
	for i := 0; i < 5; i++ {
		id, code := do(1000 + i)
		if id == "" || code != http.StatusOK {
			t.Fatalf("slow request %d: id=%q code=%d", i, id, code)
		}
		slowIDs[id] = true
		total++
	}
	for i := 0; i < 5; i++ {
		id, code := do(2000 + i)
		if id == "" {
			t.Fatalf("error request %d missing X-Trace-Id", i)
		}
		if code != http.StatusInternalServerError {
			t.Fatalf("error request %d = %d", i, code)
		}
		errIDs[id] = true
		total++
	}

	get := func(url string) (int, struct {
		Count     int                `json:"count"`
		Completed uint64             `json:"completed"`
		Traces    []*obs.TraceRecord `json:"traces"`
	}) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		var body struct {
			Count     int                `json:"count"`
			Completed uint64             `json:"completed"`
			Traces    []*obs.TraceRecord `json:"traces"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v (body %s)", url, err, rec.Body)
		}
		return rec.Code, body
	}

	// 100% of error traces are retained.
	code, body := get("/debug/traces?errors=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	if body.Count != len(errIDs) {
		t.Fatalf("error traces retained = %d, want %d", body.Count, len(errIDs))
	}
	for _, tr := range body.Traces {
		if !errIDs[tr.TraceID] || tr.Retained != "error" || !tr.Error {
			t.Fatalf("unexpected error trace %+v", tr)
		}
	}
	if body.Completed != uint64(total) {
		t.Fatalf("completed = %d, want %d", body.Completed, total)
	}

	// Every deliberately slow trace is retained; minDur isolates them from
	// the sub-millisecond warmup retentions.
	_, body = get("/debug/traces?minDur=10ms")
	if body.Count != len(slowIDs) {
		t.Fatalf("minDur=10ms returned %d traces, want %d slow", body.Count, len(slowIDs))
	}
	for _, tr := range body.Traces {
		if !slowIDs[tr.TraceID] || tr.Retained != "slow" {
			t.Fatalf("unexpected slow trace %+v", tr)
		}
		if tr.DurationMS < 10 {
			t.Fatalf("slow trace duration = %vms", tr.DurationMS)
		}
	}

	// Route + limit compose with the rest of the query.
	_, body = get("/debug/traces?route=/estimate&limit=3")
	if body.Count != 3 {
		t.Fatalf("limit=3 returned %d", body.Count)
	}
}

func TestReadyzDirectPathAlwaysReady(t *testing.T) {
	s, _ := newTestServer(t) // no Ready callback
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["ready"] != true || body["city"] != "test-city" {
		t.Fatalf("readyz body = %v", body)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/readyz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /readyz = %d", rec.Code)
	}
}

func TestReadyzReportsNotReady(t *testing.T) {
	s := newInferServer(t, func(context.Context, traj.ODInput) (infer.Result, error) {
		return infer.Result{}, nil
	}, func(c *Config) {
		c.Ready = func() (bool, map[string]any) {
			return false, map[string]any{"reason": "no model snapshot loaded", "queue_len": 0}
		}
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["ready"] != false || body["reason"] != "no model snapshot loaded" {
		t.Fatalf("readyz body = %v", body)
	}
}

// TestReadyzEngineLifecycle walks the engine-backed readiness through its
// states: serving → failed reload (503) → recovered by Swap (200).
func TestReadyzEngineLifecycle(t *testing.T) {
	eng, err := infer.New(infer.Config{
		Match: func(_ context.Context, od traj.ODInput) (traj.MatchedOD, error) {
			return traj.MatchedOD{DepartSec: od.DepartSec}, nil
		},
		Snapshot: &infer.Snapshot{ID: "m1", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 60 }},
		Workers:  1, QueueDepth: 4,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := newInferServer(t, eng.Do, func(c *Config) { c.Ready = eng.Readiness })
	h := s.Handler()

	check := func(wantCode int) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != wantCode {
			t.Fatalf("/readyz = %d, want %d (body %s)", rec.Code, wantCode, rec.Body)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	body := check(http.StatusOK)
	if body["model"] != "m1" || body["queue_capacity"] != float64(4) {
		t.Fatalf("ready body = %v", body)
	}

	eng.RecordReloadFailure(errors.New("checkpoint is corrupt"))
	body = check(http.StatusServiceUnavailable)
	if body["reason"] != "last reload failed" || body["last_reload_error"] != "checkpoint is corrupt" {
		t.Fatalf("failed-reload body = %v", body)
	}

	if _, err := eng.SwapCtx(context.Background(), &infer.Snapshot{ID: "m2", Estimate: func(context.Context, *traj.MatchedOD) float64 { return 120 }}); err != nil {
		t.Fatal(err)
	}
	body = check(http.StatusOK)
	if body["model"] != "m2" {
		t.Fatalf("recovered body = %v", body)
	}
}

// TestCheckpointVersionSurface pins what a checkpoint load shows operators:
// both loader entry points name the same bytes the same way, answer as the
// model that was saved with exactly three Meta keys, and GET /version shows
// them.
func TestCheckpointVersionSurface(t *testing.T) {
	g, m := tinyGraphModel(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())

	plain, err := infer.LoadCheckpoint(path, g)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := infer.LoadCheckpointCtx(context.Background(), path, g)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID != hex.EncodeToString(sum[:])[:12] || withCtx.ID != plain.ID {
		t.Fatalf("snapshot IDs %q / %q, want the checkpoint's SHA-256 prefix", plain.ID, withCtx.ID)
	}
	wantMeta := map[string]any{"weights": m.NumWeights(), "edges": g.NumEdges(), "checkpoint": path}
	if !reflect.DeepEqual(plain.Meta, wantMeta) || !reflect.DeepEqual(withCtx.Meta, wantMeta) {
		t.Fatalf("Meta = %v / %v, want %v", plain.Meta, withCtx.Meta, wantMeta)
	}
	od := traj.MatchedOD{OriginEdge: 0, DestEdge: roadnet.EdgeID(g.NumEdges() - 1), RStart: 0.3, REnd: 0.7, DepartSec: 600}
	want := math.Float64bits(m.Estimate(&od))
	for _, snap := range []*infer.Snapshot{plain, withCtx} {
		if got := snap.Estimate(context.Background(), &od); math.Float64bits(got) != want {
			t.Fatalf("loaded snapshot answers %v, saved model %v", got, m.Estimate(&od))
		}
	}

	eng, err := infer.New(infer.Config{
		Match: func(context.Context, traj.ODInput) (traj.MatchedOD, error) {
			return od, nil
		},
		Snapshot: plain,
		Workers:  1, QueueDepth: 4, MaxBatch: 4,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := newInferServer(t, eng.Do, func(c *Config) { c.Version = eng.Version })
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/version", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || body["model"] != plain.ID || body["checkpoint"] != path ||
		body["weights"] != float64(m.NumWeights()) || body["edges"] != float64(g.NumEdges()) {
		t.Fatalf("GET /version = %d %v", rec.Code, body)
	}
}

// spanCounts scrapes h's /metrics for every tte_span_seconds_count series.
func spanCounts(t *testing.T, h http.Handler) map[string]uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]uint64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		rest, ok := strings.CutPrefix(line, obs.SpanFamily+`_count{span="`)
		if !ok {
			continue
		}
		name, count, ok := strings.Cut(rest, `"} `)
		n, err := strconv.ParseUint(count, 10, 64)
		if !ok || err != nil {
			t.Fatalf("unparsable series %q", line)
		}
		out[name] = n
	}
	return out
}

// TestSpanCountsUntracedAndTraced: one cold /estimate through the real
// stack observes the same tte_span_seconds series, each the same number of
// times, whether it is traced or not; tracing adds only the route's root
// span. The engine, the matcher and the model all record into the default
// registry here, so one scrape sees every stage.
func TestSpanCountsUntracedAndTraced(t *testing.T) {
	stages := map[string]uint64{
		"decode": 1, "infer.cache": 1, "infer.queue": 1, "infer.batch": 1, "infer.match": 1,
		"mapmatch.point": 2, "infer.model": 1, "encode": 1, "estimate": 1,
	}
	for _, traced := range []bool{false, true} {
		s, _, body := newEngineServer(t, obs.Default(), traced)
		h := s.Handler()
		before := spanCounts(t, h)
		if rec := postEstimate(t, h, body); rec.Code != http.StatusOK {
			t.Fatalf("traced=%v: estimate = %d, body %s", traced, rec.Code, rec.Body)
		}
		got := map[string]uint64{}
		for name, n := range spanCounts(t, h) {
			if d := n - before[name]; d != 0 {
				got[name] = d
			}
		}
		want := maps.Clone(stages)
		if traced {
			want["/estimate"] = 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traced=%v: one request observed %v, want %v", traced, got, want)
		}
	}
}

// TestLiveBudgetSums is the live system's layer budget: cold /estimates
// sent untraced through the real stack, each read back per stage from the
// tte_span_seconds sums, must nest as the stages do and tile the request.
// In every request the engine's stages under infer.batch, the matcher's two
// points under infer.match and the model's encode and estimate under
// infer.model add up to no more than their parent; decode, infer.cache,
// infer.queue and infer.batch, which run one after the other inside the
// handler, add up to no more than its tte_http_request_seconds and, in the
// median request, cover at least minShare of it (72 % measured on a
// 2-vCPU Xeon; the rest is the middleware, validation and writing the
// response). Everything records into the default registry here, so each
// request's share is a difference of sums around it.
func TestLiveBudgetSums(t *testing.T) {
	const (
		requests = 500
		minShare = 0.5
	)
	reg := obs.Default()
	s, _, body := newEngineServer(t, reg, false)
	h := s.Handler()
	hists := map[string]*obs.Histogram{
		"http": reg.Histogram("tte_http_request_seconds", obs.DefBuckets, "route", "/estimate"),
	}
	for _, n := range []string{"decode", "infer.cache", "infer.queue", "infer.batch", "infer.match",
		"mapmatch.point", "infer.model", "encode", "estimate"} {
		hists[n] = reg.Histogram(obs.SpanFamily, obs.DefBuckets, "span", n)
	}
	budget := []struct {
		parent string
		parts  []string
	}{
		{"infer.batch", []string{"infer.match", "infer.model"}},
		{"infer.match", []string{"mapmatch.point"}},
		{"infer.model", []string{"encode", "estimate"}},
		{"http", []string{"decode", "infer.cache", "infer.queue", "infer.batch"}},
	}
	last := map[string]float64{}
	for n, h := range hists {
		last[n] = h.Sum()
	}
	shares := make([]float64, requests)
	for i := range requests {
		// A departure per request: every one misses the cache.
		cold := strings.Replace(body, `"depart_sec":600`, fmt.Sprintf(`"depart_sec":%d`, 600+i), 1)
		if rec := postEstimate(t, h, cold); rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d, body %s", i, rec.Code, rec.Body)
		}
		d := map[string]float64{}
		for n, h := range hists {
			sum := h.Sum()
			d[n], last[n] = sum-last[n], sum
		}
		for _, b := range budget {
			var parts float64
			for _, p := range b.parts {
				parts += d[p]
			}
			if parts > d[b.parent] {
				t.Fatalf("request %d: %v take %.9fs, more than %s's %.9fs", i, b.parts, parts, b.parent, d[b.parent])
			}
			if b.parent == "http" {
				shares[i] = parts / d["http"]
			}
		}
	}
	slices.Sort(shares)
	if share := shares[requests/2]; share < minShare {
		t.Fatalf("the request's stages cover %.1f%% of tte_http_request_seconds in the median request, want >= %.0f%%",
			100*share, 100*minShare)
	}
	t.Logf("stages cover %.1f%% of the median request (quartiles %.1f%%, %.1f%%)",
		100*shares[requests/2], 100*shares[requests/4], 100*shares[3*requests/4])
}
