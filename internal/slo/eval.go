package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"deepod/internal/obs"
)

// Config assembles an Evaluator.
type Config struct {
	// Objectives are the SLOs to evaluate. Required, validated at New.
	Objectives []Objective
	// Rules are the burn-rate alert rules applied to every objective
	// (default DefaultRules()).
	Rules []BurnRule
	// Interval is the period the process sampler calls Observe at
	// (default 10s). It sizes the history rings and is reported by
	// /debug/slo; nothing runs on request paths.
	Interval time.Duration
	// Registry receives tte_slo_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Manager receives alert state transitions. Optional; nil means
	// evaluate-and-expose only.
	Manager *Manager
}

// point is one cumulative (good, total) observation. The history itself
// lives in a obs.Ring — the same bounded ring the metric history
// sampler uses, replacing the private ring this package once grew.
type point struct {
	t           time.Time
	good, total float64
}

// before returns the newest point with t <= cutoff, or the oldest point
// when every retained point is newer (young history: burn-since-oldest).
// ok is false only when the ring is empty.
func before(r *obs.Ring[point], cutoff time.Time) (point, bool) {
	if r.Len() == 0 {
		return point{}, false
	}
	// Points are appended in time order; scan back from the newest.
	for i := r.Len() - 1; i >= 0; i-- {
		if p := r.At(i); !p.t.After(cutoff) {
			return p, true
		}
	}
	return r.At(0), true
}

// ruleState tracks one (objective, rule) alert's evaluation results.
type ruleState struct {
	burnLong  float64
	burnShort float64
	firing    bool
}

// objectiveState is one objective's live evaluation record.
type objectiveState struct {
	obj       Objective
	hist      *obs.Ring[point]
	rules     []ruleState
	good      float64 // cumulative at last eval
	total     float64
	sli       float64 // over the longest rule window
	remaining float64 // error budget remaining over the longest window
	sliGauge  *obs.Gauge
	remGauge  *obs.Gauge
	burnG     []*obs.Gauge // per rule, long-window burn
}

// Evaluator reduces each registry snapshot it observes to cumulative
// (good, total) counts per objective, derives windowed burn rates by
// differencing the history ring, and drives the alert manager. Construct
// with New and hand Observe to obs.StartSampler.
type Evaluator struct {
	cfg Config

	mu   sync.Mutex
	objs []*objectiveState
	last time.Time

	evaluate *obs.Counter
}

// New validates cfg and builds an Evaluator.
func New(cfg Config) (*Evaluator, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: Config.Objectives is empty")
	}
	seen := map[string]bool{}
	for i := range cfg.Objectives {
		o := &cfg.Objectives[i]
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
	}
	if len(cfg.Rules) == 0 {
		cfg.Rules = DefaultRules()
	}
	var longest time.Duration
	ruleNames := map[string]bool{}
	for i := range cfg.Rules {
		r := &cfg.Rules[i]
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if ruleNames[r.Name] {
			return nil, fmt.Errorf("slo: duplicate burn rule %q", r.Name)
		}
		ruleNames[r.Name] = true
		if r.Long > longest {
			longest = r.Long
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	// Each objective's history covers the longest rule window at Interval,
	// within [64, 32768] points. A window reaching past the retained
	// history falls back to the oldest point — burn-since-oldest, which is
	// the right degradation: young processes alert on what they have seen.
	maxPoints := min(max(int(longest/cfg.Interval)+2, 64), 32768)
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	reg := cfg.Registry
	reg.Help("tte_slo_sli", "Achieved service level over the longest rule window, by objective.")
	reg.Help("tte_slo_burn_rate", "Long-window error-budget burn rate, by objective and rule.")
	reg.Help("tte_slo_error_budget_remaining", "Fraction of the error budget left over the longest rule window.")
	reg.Help("tte_slo_evaluations_total", "Registry snapshots the SLO evaluator has evaluated.")
	e := &Evaluator{
		cfg:      cfg,
		evaluate: reg.Counter("tte_slo_evaluations_total"),
	}
	for i := range cfg.Objectives {
		o := cfg.Objectives[i]
		st := &objectiveState{
			obj:       o,
			hist:      obs.NewRing[point](maxPoints),
			rules:     make([]ruleState, len(cfg.Rules)),
			sli:       math.NaN(),
			remaining: math.NaN(),
			sliGauge:  reg.Gauge("tte_slo_sli", "slo", o.Name),
			remGauge:  reg.Gauge("tte_slo_error_budget_remaining", "slo", o.Name),
		}
		for _, r := range cfg.Rules {
			st.burnG = append(st.burnG, reg.Gauge("tte_slo_burn_rate", "slo", o.Name, "rule", r.Name))
		}
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// alertKey names the (objective, rule) alert: "slo:<objective>:<rule>".
func alertKey(obj, rule string) string { return "slo:" + obj + ":" + rule }

// Observe runs one evaluation of a registry snapshot taken at now:
// measure, append, derive burns, drive the manager. samples is only read.
func (e *Evaluator) Observe(now time.Time, samples []obs.Sample) {
	e.evaluate.Inc()

	// Manager calls happen outside e.mu: the manager logs, and nothing it
	// does may re-enter the evaluator.
	type setCall struct {
		a      Alert
		firing bool
	}
	var sets []setCall

	e.mu.Lock()
	e.last = now
	for _, st := range e.objs {
		st.good, st.total = st.obj.measure(samples)
		st.hist.Push(point{t: now, good: st.good, total: st.total})

		budget := 1 - st.obj.Target
		var longest time.Duration
		for ri := range e.cfg.Rules {
			r := &e.cfg.Rules[ri]
			rs := &st.rules[ri]
			rs.burnLong = e.burnOver(st, now, r.Long, budget)
			rs.burnShort = e.burnOver(st, now, r.Short, budget)
			firing := rs.burnLong >= r.Burn && rs.burnShort >= r.Burn
			changed := firing != rs.firing
			rs.firing = firing
			st.burnG[ri].Set(rs.burnLong)
			if e.cfg.Manager != nil && (firing || changed) {
				labels := map[string]string{"slo": st.obj.Name, "rule": r.Name}
				for k, v := range st.obj.Labels {
					labels[k] = v
				}
				sets = append(sets, setCall{
					a: Alert{
						Name:     alertKey(st.obj.Name, r.Name),
						Severity: r.Severity,
						Labels:   labels,
						Annotations: map[string]any{
							"burn_long":  round3(rs.burnLong),
							"burn_short": round3(rs.burnShort),
							"threshold":  r.Burn,
							"target":     st.obj.Target,
							"long":       r.Long.String(),
							"short":      r.Short.String(),
						},
						Value: rs.burnLong,
					},
					firing: firing,
				})
			}
			if r.Long > longest {
				longest = r.Long
			}
		}

		// SLI and budget over the longest window.
		st.sli, st.remaining = math.NaN(), math.NaN()
		if p, ok := before(st.hist, now.Add(-longest)); ok {
			dTotal := st.total - p.total
			if dTotal > 0 {
				st.sli = (st.good - p.good) / dTotal
				st.remaining = 1 - (1-st.sli)/budget
			}
		}
		if !math.IsNaN(st.sli) {
			st.sliGauge.Set(st.sli)
			st.remGauge.Set(st.remaining)
		}
	}
	e.mu.Unlock()

	for _, s := range sets {
		e.cfg.Manager.Set(s.a, s.firing)
	}
}

// burnOver derives the error-budget burn rate over the window ending now:
// the window's bad fraction divided by the budget. No traffic in the
// window burns nothing — idle services do not page.
func (e *Evaluator) burnOver(st *objectiveState, now time.Time, window time.Duration, budget float64) float64 {
	p, ok := before(st.hist, now.Add(-window))
	if !ok {
		return 0
	}
	dTotal := st.total - p.total
	if dTotal <= 0 {
		return 0
	}
	badFrac := 1 - (st.good-p.good)/dTotal
	if badFrac < 0 {
		badFrac = 0
	}
	return badFrac / budget
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// RuleStatus is one (objective, rule) row of /debug/slo.
type RuleStatus struct {
	Rule      string    `json:"rule"`
	Severity  string    `json:"severity"`
	LongSec   float64   `json:"long_sec"`
	ShortSec  float64   `json:"short_sec"`
	Threshold float64   `json:"threshold"`
	BurnLong  jsonFloat `json:"burn_long"`
	BurnShort jsonFloat `json:"burn_short"`
	Firing    bool      `json:"firing"`
}

// ObjectiveStatus is one objective's row of /debug/slo.
type ObjectiveStatus struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Target float64 `json:"target"`
	// Good and Total are the cumulative event counts at the last tick.
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
	// SLI and BudgetRemaining cover the longest rule window; null before
	// the first in-window traffic.
	SLI             jsonFloat    `json:"sli"`
	BudgetRemaining jsonFloat    `json:"error_budget_remaining"`
	Rules           []RuleStatus `json:"rules"`
}

// Status is the GET /debug/slo payload.
type Status struct {
	IntervalSeconds float64           `json:"interval_seconds"`
	LastEval        time.Time         `json:"last_eval"`
	Objectives      []ObjectiveStatus `json:"objectives"`
}

// Status snapshots the evaluator's per-objective state.
func (e *Evaluator) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Status{IntervalSeconds: e.cfg.Interval.Seconds(), LastEval: e.last}
	for _, st := range e.objs {
		os := ObjectiveStatus{
			Name:            st.obj.Name,
			Kind:            st.obj.kind(),
			Target:          st.obj.Target,
			Good:            st.good,
			Total:           st.total,
			SLI:             jsonFloat(st.sli),
			BudgetRemaining: jsonFloat(st.remaining),
		}
		for ri := range e.cfg.Rules {
			r := &e.cfg.Rules[ri]
			rs := st.rules[ri]
			os.Rules = append(os.Rules, RuleStatus{
				Rule:      r.Name,
				Severity:  r.Severity,
				LongSec:   r.Long.Seconds(),
				ShortSec:  r.Short.Seconds(),
				Threshold: r.Burn,
				BurnLong:  jsonFloat(rs.burnLong),
				BurnShort: jsonFloat(rs.burnShort),
				Firing:    rs.firing,
			})
		}
		out.Objectives = append(out.Objectives, os)
	}
	return out
}

// Handler serves GET /debug/slo: objective status as JSON. Raw like
// /metrics — reading SLO state must not move it.
func (e *Evaluator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Status())
	})
}
