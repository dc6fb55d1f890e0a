package slo

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deepod/internal/obs"
)

// manualClock is a mutex-guarded test clock.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestObjectiveValidate(t *testing.T) {
	ratio := &RatioSLI{
		Bad:   Selector{Metric: "bad_total"},
		Total: Selector{Metric: "all_total"},
	}
	latency := &LatencySLI{Histogram: Selector{Metric: "lat_seconds"}, ThresholdSeconds: 0.005}
	cases := []struct {
		name string
		obj  Objective
		ok   bool
	}{
		{"ratio ok", Objective{Name: "a", Target: 0.99, Ratio: ratio}, true},
		{"latency ok", Objective{Name: "b", Target: 0.999, Latency: latency}, true},
		{"no name", Objective{Target: 0.99, Ratio: ratio}, false},
		{"target zero", Objective{Name: "c", Target: 0, Ratio: ratio}, false},
		{"target one", Objective{Name: "d", Target: 1, Ratio: ratio}, false},
		{"no sli", Objective{Name: "e", Target: 0.99}, false},
		{"both slis", Objective{Name: "f", Target: 0.99, Ratio: ratio, Latency: latency}, false},
		{"ratio missing total", Objective{Name: "g", Target: 0.99, Ratio: &RatioSLI{Bad: Selector{Metric: "x"}}}, false},
		{"latency zero threshold", Objective{Name: "h", Target: 0.99, Latency: &LatencySLI{Histogram: Selector{Metric: "x"}}}, false},
	}
	for _, tc := range cases {
		err := tc.obj.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestBurnRuleValidate(t *testing.T) {
	good := BurnRule{Name: "fast", Severity: "page", Long: time.Hour, Short: 5 * time.Minute, Burn: 14.4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	bad := []BurnRule{
		{Name: "", Long: time.Hour, Short: time.Minute, Burn: 1},
		{Name: "x", Long: 0, Short: time.Minute, Burn: 1},
		{Name: "x", Long: time.Minute, Short: time.Hour, Burn: 1}, // short > long
		{Name: "x", Long: time.Hour, Short: time.Minute, Burn: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
}

func TestRatioMeasure(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rq_total", "route", "/estimate", "code", "2xx").Add(90)
	reg.Counter("rq_total", "route", "/estimate", "code", "5xx").Add(10)
	reg.Counter("rq_total", "route", "/other", "code", "5xx").Add(7) // different route: excluded
	obj := Objective{
		Name: "avail", Target: 0.99,
		Ratio: &RatioSLI{
			Bad:   Selector{Metric: "rq_total", Match: map[string]string{"route": "/estimate", "code": "5xx"}},
			Total: Selector{Metric: "rq_total", Match: map[string]string{"route": "/estimate"}},
		},
	}
	good, total := obj.measure(reg.Snapshot())
	if total != 100 || good != 90 {
		t.Fatalf("got good=%v total=%v, want 90/100", good, total)
	}
}

func TestLatencyMeasure(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{0.001, 0.005, 0.01}, "route", "/estimate")
	for i := 0; i < 7; i++ {
		h.Observe(0.0005) // <= 1ms bucket
	}
	h.Observe(0.003) // <= 5ms bucket
	h.Observe(0.008) // <= 10ms bucket: bad at 5ms threshold
	h.Observe(2.0)   // overflow: bad
	obj := Objective{
		Name: "lat", Target: 0.999,
		Latency: &LatencySLI{
			Histogram:        Selector{Metric: "lat_seconds", Match: map[string]string{"route": "/estimate"}},
			ThresholdSeconds: 0.005,
		},
	}
	good, total := obj.measure(reg.Snapshot())
	if total != 10 || good != 8 {
		t.Fatalf("got good=%v total=%v, want 8/10", good, total)
	}
}

// evalFixture wires a registry, manager and evaluator around a manual
// clock with a single availability objective and a single fast rule.
type evalFixture struct {
	clock *manualClock
	reg   *obs.Registry
	mgr   *Manager
	ev    *Evaluator
	good  *obs.Counter
	bad   *obs.Counter
}

func newEvalFixture(t *testing.T, target float64, rules []BurnRule) *evalFixture {
	t.Helper()
	clock := newManualClock()
	reg := obs.NewRegistry()
	f := &evalFixture{
		clock: clock,
		reg:   reg,
		good:  reg.Counter("rq_total", "code", "2xx"),
		bad:   reg.Counter("rq_total", "code", "5xx"),
	}
	f.mgr = NewManager(ManagerConfig{Registry: reg, Now: clock.now})
	ev, err := New(Config{
		Objectives: []Objective{{
			Name: "avail", Target: target,
			Ratio: &RatioSLI{
				Bad:   Selector{Metric: "rq_total", Match: map[string]string{"code": "5xx"}},
				Total: Selector{Metric: "rq_total"},
			},
		}},
		Rules:    rules,
		Interval: time.Second,
		Registry: reg,
		Manager:  f.mgr,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.ev = ev
	return f
}

// tick evaluates one registry snapshot at the fixture clock's time, as one
// sampler tick would.
func (f *evalFixture) tick() { f.ev.Observe(f.clock.now(), f.reg.Snapshot()) }

func TestBurnRateFiringAndResolution(t *testing.T) {
	rules := []BurnRule{{Name: "fast", Severity: "page", Long: time.Minute, Short: 10 * time.Second, Burn: 10}}
	f := newEvalFixture(t, 0.99, rules) // budget 1%: 10x burn needs >= 10% bad

	// Healthy baseline.
	f.good.Add(100)
	f.tick()
	if n := len(f.mgr.Active()); n != 0 {
		t.Fatalf("healthy tick: %d alerts firing", n)
	}

	// Spike: every request bad -> burn = 1.0/0.01 = 100x over both windows.
	f.clock.advance(15 * time.Second)
	f.bad.Add(50)
	f.tick()
	active := f.mgr.Active()
	if len(active) != 1 {
		t.Fatalf("spike tick: got %d firing alerts, want 1", len(active))
	}
	if want := "slo:avail:fast"; active[0].Name != want {
		t.Fatalf("alert name %q, want %q", active[0].Name, want)
	}
	if active[0].Severity != "page" {
		t.Fatalf("alert severity %q, want page", active[0].Severity)
	}
	if active[0].Value < 10 {
		t.Fatalf("burn value %v, want >= threshold 10", active[0].Value)
	}

	// Re-confirmation dedups: still one alert, evidence refreshed.
	f.clock.advance(5 * time.Second)
	f.bad.Add(50)
	f.tick()
	active = f.mgr.Active()
	if len(active) != 1 || active[0].Sets < 2 {
		t.Fatalf("dedup: got %d alerts, sets=%d", len(active), active[0].Sets)
	}

	// Recovery: short window (10s) goes clean while the long window still
	// remembers the spike — the multi-window rule resolves on the short.
	f.clock.advance(12 * time.Second)
	f.good.Add(1000)
	f.tick()
	f.clock.advance(11 * time.Second)
	f.good.Add(1000)
	f.tick()
	if n := len(f.mgr.Active()); n != 0 {
		t.Fatalf("recovery: %d alerts still firing", n)
	}
	hist := f.mgr.History()
	if len(hist) != 2 || hist[0].State != StateResolved || hist[1].State != StateFiring {
		t.Fatalf("history = %+v, want [resolved, firing]", hist)
	}
}

func TestNoTrafficNoBurn(t *testing.T) {
	rules := []BurnRule{{Name: "fast", Severity: "page", Long: time.Minute, Short: 10 * time.Second, Burn: 1}}
	f := newEvalFixture(t, 0.99, rules)
	for i := 0; i < 5; i++ {
		f.tick()
		f.clock.advance(time.Second)
	}
	if n := len(f.mgr.Active()); n != 0 {
		t.Fatalf("idle service fired %d alerts", n)
	}
	st := f.ev.Status()
	if !math.IsNaN(float64(st.Objectives[0].SLI)) {
		t.Fatalf("idle SLI = %v, want NaN", st.Objectives[0].SLI)
	}
}

func TestEvaluatorStatusAndHandler(t *testing.T) {
	rules := []BurnRule{{Name: "fast", Severity: "page", Long: time.Minute, Short: 10 * time.Second, Burn: 10}}
	f := newEvalFixture(t, 0.99, rules)
	f.tick() // zero baseline point
	f.clock.advance(30 * time.Second)
	f.good.Add(199)
	f.bad.Add(1)
	f.tick()

	st := f.ev.Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %d", len(st.Objectives))
	}
	o := st.Objectives[0]
	if o.Name != "avail" || o.Kind != "availability" || o.Total != 200 {
		t.Fatalf("status = %+v", o)
	}
	// Window covers both ticks: 199 good of 200.
	if got := float64(o.SLI); math.Abs(got-0.995) > 1e-9 {
		t.Fatalf("SLI = %v, want 0.995", got)
	}
	// Budget 1%, spent 0.5% -> half remaining.
	if got := float64(o.BudgetRemaining); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("budget remaining = %v, want 0.5", got)
	}

	rr := httptest.NewRecorder()
	f.ev.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /debug/slo = %d", rr.Code)
	}
	var body Status
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(body.Objectives) != 1 || body.Objectives[0].Name != "avail" {
		t.Fatalf("handler body = %+v", body)
	}
	rr = httptest.NewRecorder()
	f.ev.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/debug/slo", nil))
	if rr.Code != 405 {
		t.Fatalf("POST /debug/slo = %d, want 405", rr.Code)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	obj := Objective{Name: "a", Target: 0.99, Ratio: &RatioSLI{Bad: Selector{Metric: "b"}, Total: Selector{Metric: "t"}}}
	if _, err := New(Config{}); err == nil {
		t.Error("empty objectives accepted")
	}
	if _, err := New(Config{Objectives: []Objective{obj, obj}}); err == nil {
		t.Error("duplicate objective names accepted")
	}
	if _, err := New(Config{Objectives: []Objective{obj}, Rules: []BurnRule{{Name: "x", Long: time.Hour, Short: time.Minute, Burn: 1}, {Name: "x", Long: time.Hour, Short: time.Minute, Burn: 2}}}); err == nil {
		t.Error("duplicate rule names accepted")
	}
}

func TestManagerDedup(t *testing.T) {
	clock := newManualClock()
	m := NewManager(ManagerConfig{Registry: obs.NewRegistry(), Now: clock.now})

	a := Alert{Name: "x", Severity: "page", Value: 1}
	m.Set(a, false) // clear on unknown: no-op
	if n := len(m.History()); n != 0 {
		t.Fatalf("clear on unknown produced %d transitions", n)
	}
	m.Set(a, true)
	m.Set(a, true) // dedup
	m.Set(a, true)
	if hist := m.History(); len(hist) != 1 || hist[0].State != StateFiring {
		t.Fatalf("transitions after 3 firing sets = %+v, want one firing", hist)
	}
	act := m.Active()
	if len(act) != 1 || act[0].Sets != 3 {
		t.Fatalf("active = %+v, want sets=3", act)
	}
	m.Set(a, false)
	if hist := m.History(); len(hist) != 2 || hist[0].State != StateResolved {
		t.Fatalf("transitions after clear = %+v", hist)
	}
	if len(m.Active()) != 0 {
		t.Fatal("alert still active after clear")
	}
}

func TestManagerHistoryRing(t *testing.T) {
	clock := newManualClock()
	m := NewManager(ManagerConfig{HistorySize: 4, Registry: obs.NewRegistry(), Now: clock.now})
	for i := 0; i < 3; i++ { // 6 transitions through a 4-slot ring
		m.Set(Alert{Name: "x"}, true)
		m.Set(Alert{Name: "x"}, false)
	}
	hist := m.History()
	if len(hist) != 4 {
		t.Fatalf("history length %d, want 4", len(hist))
	}
	if hist[0].State != StateResolved || hist[3].State != StateFiring {
		t.Fatalf("history order wrong: %+v", hist)
	}

	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /debug/alerts = %d", rr.Code)
	}
	var body struct {
		Firing      []ActiveAlert `json:"firing"`
		History     []Event       `json:"history"`
		Transitions int           `json:"transitions"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Transitions != 6 || len(body.History) != 4 || len(body.Firing) != 0 {
		t.Fatalf("payload = %+v", body)
	}
}

// The -slo-config files TestLoadConfig loads, and FuzzLoadSLOConfig's
// seeds.
const (
	sloObjectives = `"objectives": [{"name": "a", "target": 0.9, "ratio": {"bad": {"metric": "b"}, "total": {"metric": "t"}}}]`
	sloFull       = `{
		"objectives": [
			{"name": "avail", "target": 0.99,
			 "ratio": {"bad": {"metric": "b"}, "total": {"metric": "t"}}}
		],
		"rules": [
			{"name": "fast", "severity": "page", "short_sec": 300, "long_sec": 3600, "burn": 14.4}
		]
	}`
	sloNoRules = `{` + sloObjectives + `}`
)

func sloRule(short, long string) string {
	return `"rules": [{"name": "fast", "severity": "page", "short_sec": ` + short + `, "long_sec": ` + long + `, "burn": 14.4}]`
}

// sloBadFiles are files LoadConfig refuses, each with a piece its error
// must carry. A window that is not a positive, finite Duration of at least
// 1 ns is refused by field and by the value the file gave, not as a
// wrapped-around duration. Any interval_sec is refused by naming the flag
// that sets the evaluation period.
var sloBadFiles = []struct{ content, want string }{
	{`{"objectives": []}`, "no objectives"},
	{`{`, "parsing"},
	{`{"objectives": [{"name": "", "target": 0.9, "ratio": {"bad": {"metric": "b"}, "total": {"metric": "t"}}}]}`, "name"},
	{`{"interval_sec": 5, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{"interval_sec": 1e-9, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{"interval_sec": 1e12, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{"interval_sec": 1e-12, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{"interval_sec": 0, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{"interval_sec": -5, ` + sloObjectives + `}`, "-telemetry-interval"},
	{`{` + sloObjectives + `, ` + sloRule("300", "1e12") + `}`, "rules[0].long_sec 1e+12"},
	{`{` + sloObjectives + `, ` + sloRule("1e-12", "3600") + `}`, "rules[0].short_sec 1e-12"},
	{`{` + sloObjectives + `, ` + sloRule("-300", "3600") + `}`, "rules[0].short_sec -300"},
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	load := func(content string) ([]Objective, []BurnRule, error) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadConfig(path)
	}
	objs, rules, err := load(sloFull)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if len(objs) != 1 || objs[0].Name != "avail" {
		t.Fatalf("objectives = %+v", objs)
	}
	if len(rules) != 1 || rules[0].Short != 5*time.Minute || rules[0].Long != time.Hour {
		t.Fatalf("rules = %+v", rules)
	}

	// Rules omitted: default rules.
	_, rules, err = load(sloNoRules)
	if err != nil {
		t.Fatalf("LoadConfig without rules: %v", err)
	}
	if len(rules) != 2 || rules[0].Name != "fast" || rules[1].Name != "slow" {
		t.Fatalf("default rules = %+v", rules)
	}

	for _, tc := range sloBadFiles {
		_, _, err := load(tc.content)
		if err == nil {
			t.Errorf("%s: accepted", tc.content)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.content, err, tc.want)
		}
	}
	if _, _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzLoadSLOConfig feeds LoadConfig arbitrary files, seeded with
// TestLoadConfig's. It must refuse a file or return objectives and rules
// that validate.
func FuzzLoadSLOConfig(f *testing.F) {
	f.Add([]byte(sloFull))
	f.Add([]byte(sloNoRules))
	for _, tc := range sloBadFiles {
		f.Add([]byte(tc.content))
	}
	path := filepath.Join(f.TempDir(), "slo.json")
	f.Fuzz(func(t *testing.T, content []byte) {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		objs, rules, err := LoadConfig(path)
		if err != nil {
			return
		}
		if len(objs) == 0 || len(rules) == 0 {
			t.Fatalf("loaded %d objectives, %d rules", len(objs), len(rules))
		}
		for _, o := range objs {
			if err := o.Validate(); err != nil {
				t.Fatalf("loaded an invalid objective: %v", err)
			}
		}
		for _, r := range rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("loaded an invalid rule: %v", err)
			}
		}
	})
}

func TestDefaultObjectivesValid(t *testing.T) {
	for _, o := range DefaultObjectives() {
		if err := o.Validate(); err != nil {
			t.Errorf("default objective %q invalid: %v", o.Name, err)
		}
	}
	for _, r := range DefaultRules() {
		if err := r.Validate(); err != nil {
			t.Errorf("default rule %q invalid: %v", r.Name, err)
		}
	}
	if DefaultRules()[0].Burn != 14.4 {
		t.Error("default fast burn is not 14.4")
	}
}

func TestJSONFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{1.5, "1.5"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
	} {
		b, err := json.Marshal(jsonFloat(tc.v))
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(string(b)) != tc.want {
			t.Errorf("jsonFloat(%v) = %s, want %s", tc.v, b, tc.want)
		}
	}
}

func BenchmarkEvaluatorObserve(b *testing.B) {
	reg := obs.NewRegistry()
	reg.Counter("rq_total", "code", "2xx").Add(1000)
	reg.Counter("rq_total", "code", "5xx").Add(10)
	h := reg.Histogram("lat_seconds", obs.DefBuckets, "route", "/estimate")
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	ev, err := New(Config{
		Objectives: DefaultObjectives(),
		Interval:   time.Second,
		Registry:   reg,
		Manager:    NewManager(ManagerConfig{Registry: reg}),
	})
	if err != nil {
		b.Fatal(err)
	}
	samples := reg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Observe(time.Now(), samples)
	}
}

func BenchmarkManagerSet(b *testing.B) {
	m := NewManager(ManagerConfig{Registry: obs.NewRegistry()})
	a := Alert{Name: "x", Severity: "page", Value: 1}
	m.Set(a, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(a, true) // steady-state dedup path
	}
}
