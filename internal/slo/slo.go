// Package slo is the judgment layer on top of the observability substrate:
// declarative service-level objectives evaluated from periodic snapshots of
// the obs registry, multi-window multi-burn-rate alert rules in the Google
// SRE Workbook style, and an alert manager with a firing/resolved state
// machine that every alert source in the process (SLO burn, quality drift,
// shed rate) routes through.
//
// The pieces:
//
//   - Objective: one SLO — "99.9% of /estimate under 5 ms" (latency SLI
//     over a histogram) or "99% non-5xx" (ratio SLI over counters). SLIs
//     are selected out of the registry by metric family name plus label
//     equality, so anything already on /metrics can carry an SLO.
//   - BurnRule: an alert rule over two windows. The burn rate is how fast
//     the error budget (1 − target) is being spent, as a multiple of the
//     sustainable rate; a rule fires when BOTH its long and short windows
//     exceed the threshold — the long window gives significance, the short
//     window confirms the problem is still happening (and resets fast).
//   - Evaluator: observes the registry snapshot the process sampler
//     (obs.StartSampler) takes every Interval, appends cumulative
//     (good, total) points to a bounded per-objective history ring, derives
//     windowed burn rates by differencing, and drives the Manager.
//   - Manager (alert.go): deduplicating firing/resolved state machine with
//     slog notifications, a bounded event history and tte_alert_* metrics.
//
// Exported metric families:
//
//	tte_slo_sli{slo}                     gauge, SLI over the longest rule window
//	tte_slo_burn_rate{slo,rule}          gauge, long-window burn rate per rule
//	tte_slo_error_budget_remaining{slo}  gauge, 1 − spent/budget over the longest window
//	tte_slo_evaluations_total            counter, snapshots evaluated
//	tte_alerts_firing                    gauge, currently firing alerts
//	tte_alert_transitions_total{state}   counter {state=firing|resolved}
//
// GET /debug/slo (Evaluator.Handler) serves objective status; GET
// /debug/alerts (Manager.Handler) serves firing alerts plus history.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"deepod/internal/obs"
)

// Selector picks metric children out of a registry snapshot: every sample
// of family Metric whose labels include all Match pairs. An empty Match
// sums across all children of the family (e.g. both shed reasons).
type Selector struct {
	Metric string            `json:"metric"`
	Match  map[string]string `json:"match,omitempty"`
}

func (s Selector) matches(sm obs.Sample) bool {
	if sm.Name != s.Metric {
		return false
	}
	for k, v := range s.Match {
		if sm.Label(k) != v {
			return false
		}
	}
	return true
}

// RatioSLI is a good/total SLI over counters: Total selects the event
// counter, Bad the failure counter (a subset of Total's events, e.g.
// code="5xx" within tte_http_requests_total{route="/estimate"}).
type RatioSLI struct {
	Bad   Selector `json:"bad"`
	Total Selector `json:"total"`
}

// LatencySLI is a threshold SLI over a histogram: an event is good when it
// landed in a bucket whose upper bound is <= ThresholdSeconds. Pick a
// threshold equal to one of the histogram's bucket bounds (obs.DefBuckets
// includes 5ms, 10ms, ...); a threshold between bounds undercounts good
// events and over-alerts, never the reverse.
type LatencySLI struct {
	Histogram        Selector `json:"histogram"`
	ThresholdSeconds float64  `json:"threshold_sec"`
}

// Objective is one declarative SLO. Exactly one of Ratio or Latency must
// be set.
type Objective struct {
	// Name identifies the SLO in metrics, alerts and /debug/slo.
	Name string `json:"name"`
	// Target is the objective fraction in (0, 1), e.g. 0.999. The error
	// budget is 1 − Target.
	Target  float64     `json:"target"`
	Ratio   *RatioSLI   `json:"ratio,omitempty"`
	Latency *LatencySLI `json:"latency,omitempty"`
	// Labels are attached to every alert the objective raises — the hook
	// for per-shard / per-generation SLOs later.
	Labels map[string]string `json:"labels,omitempty"`
}

// Validate rejects malformed objectives at construction, not mid-flight.
func (o *Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective needs a name")
	}
	if !(o.Target > 0 && o.Target < 1) {
		return fmt.Errorf("slo: objective %q: target %v outside (0, 1)", o.Name, o.Target)
	}
	switch {
	case o.Ratio == nil && o.Latency == nil:
		return fmt.Errorf("slo: objective %q: needs a ratio or latency SLI", o.Name)
	case o.Ratio != nil && o.Latency != nil:
		return fmt.Errorf("slo: objective %q: ratio and latency SLIs are mutually exclusive", o.Name)
	case o.Ratio != nil && (o.Ratio.Bad.Metric == "" || o.Ratio.Total.Metric == ""):
		return fmt.Errorf("slo: objective %q: ratio SLI needs bad and total metric names", o.Name)
	case o.Latency != nil && o.Latency.Histogram.Metric == "":
		return fmt.Errorf("slo: objective %q: latency SLI needs a histogram metric name", o.Name)
	case o.Latency != nil && !(o.Latency.ThresholdSeconds > 0):
		return fmt.Errorf("slo: objective %q: latency threshold %v must be positive", o.Name, o.Latency.ThresholdSeconds)
	}
	return nil
}

// kind names the SLI flavor for /debug/slo.
func (o *Objective) kind() string {
	if o.Latency != nil {
		return "latency"
	}
	return "availability"
}

// measure reduces one registry snapshot to the objective's cumulative
// (good, total) event counts.
func (o *Objective) measure(samples []obs.Sample) (good, total float64) {
	if o.Ratio != nil {
		var bad float64
		for _, s := range samples {
			if s.Kind != "counter" {
				continue
			}
			if o.Ratio.Total.matches(s) {
				total += s.Value
			}
			if o.Ratio.Bad.matches(s) {
				bad += s.Value
			}
		}
		good = total - bad
		if good < 0 {
			good = 0
		}
		return good, total
	}
	// Latency: good = observations in buckets with upper <= threshold.
	// The tiny relative epsilon forgives float formatting of bounds; it is
	// far below any bucket spacing in practice.
	thr := o.Latency.ThresholdSeconds * (1 + 1e-9)
	for _, s := range samples {
		if s.Kind != "histogram" || !o.Latency.Histogram.matches(s) {
			continue
		}
		total += float64(s.Count)
		for i, upper := range s.BucketUppers {
			if upper > thr {
				break
			}
			good += float64(s.BucketCounts[i])
		}
	}
	return good, total
}

// BurnRule is one multi-window burn-rate alert rule. It fires when the
// burn rate over BOTH Long and Short exceeds Burn. With a 30-day budget
// the SRE Workbook's canonical pairs are 1h/5m at 14.4× (page: 2% of the
// budget in an hour) and 3d/6h at 1× (ticket: on pace to exhaust it).
type BurnRule struct {
	// Name distinguishes the rule in alert names and metrics ("fast",
	// "slow").
	Name string `json:"name"`
	// Severity is attached to the alerts the rule raises ("page",
	// "ticket") and picks the notification log level.
	Severity string `json:"severity"`
	// Long is the significance window; Short the confirmation window.
	Long  time.Duration `json:"-"`
	Short time.Duration `json:"-"`
	// Burn is the firing threshold in error-budget multiples.
	Burn float64 `json:"burn"`
}

// Validate rejects malformed rules.
func (r *BurnRule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: burn rule needs a name")
	}
	if r.Long <= 0 || r.Short <= 0 || r.Short > r.Long {
		return fmt.Errorf("slo: burn rule %q: want 0 < short <= long, got short=%v long=%v", r.Name, r.Short, r.Long)
	}
	if !(r.Burn > 0) {
		return fmt.Errorf("slo: burn rule %q: burn threshold %v must be positive", r.Name, r.Burn)
	}
	return nil
}

// DefaultRules returns the Workbook-style rule pair: a fast page on a
// 1h/5m window at 14.4× and a slow ticket on a 3d/6h window at 1×. A
// config file (LoadConfig) is the one way to serve other rules.
func DefaultRules() []BurnRule {
	return []BurnRule{
		{Name: "fast", Severity: "page", Long: time.Hour, Short: 5 * time.Minute, Burn: 14.4},
		{Name: "slow", Severity: "ticket", Long: 72 * time.Hour, Short: 6 * time.Hour, Burn: 1},
	}
}

// DefaultObjectives returns the serving tier's built-in SLOs, over metric
// families internal/serve and internal/infer already export:
//
//   - estimate-availability: 99% of /estimate requests non-5xx.
//   - estimate-latency: 99.9% of /estimate requests under 5 ms.
//   - estimate-shed: 99% of engine admissions not shed (queue full or
//     queue timeout) — internal/infer's shed rate, routed through the
//     same manager instead of living only as a counter.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:   "estimate-availability",
			Target: 0.99,
			Ratio: &RatioSLI{
				Bad:   Selector{Metric: "tte_http_requests_total", Match: map[string]string{"route": "/estimate", "code": "5xx"}},
				Total: Selector{Metric: "tte_http_requests_total", Match: map[string]string{"route": "/estimate"}},
			},
		},
		{
			Name:   "estimate-latency",
			Target: 0.999,
			Latency: &LatencySLI{
				Histogram:        Selector{Metric: "tte_http_request_seconds", Match: map[string]string{"route": "/estimate"}},
				ThresholdSeconds: 0.005,
			},
		},
		{
			Name:   "estimate-shed",
			Target: 0.99,
			Ratio: &RatioSLI{
				Bad:   Selector{Metric: "tte_infer_shed_total"},
				Total: Selector{Metric: "tte_infer_requests_total"},
			},
		},
	}
}

// fileConfig is the -slo-config JSON shape: objectives as above, rules
// with windows in seconds. IntervalSec is read only to refuse it (see
// LoadConfig).
type fileConfig struct {
	IntervalSec *float64    `json:"interval_sec,omitempty"`
	Objectives  []Objective `json:"objectives"`
	Rules       []struct {
		Name     string  `json:"name"`
		Severity string  `json:"severity"`
		ShortSec float64 `json:"short_sec"`
		LongSec  float64 `json:"long_sec"`
		Burn     float64 `json:"burn"`
	} `json:"rules"`
}

// LoadConfig reads objectives and rules from a JSON file (see fileConfig
// for the shape). Missing rules fall back to DefaultRules; missing
// objectives are an error — an empty SLO file is a misconfiguration, not a
// degenerate success. So is an interval_sec: SLOs are evaluated on every
// tick of the process sampler, whose period is tteserve's
// -telemetry-interval, and a file that asks for another is refused rather
// than silently ignored.
func LoadConfig(path string) (objectives []Objective, rules []BurnRule, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("slo: reading config: %w", err)
	}
	var fc fileConfig
	if err := json.Unmarshal(b, &fc); err != nil {
		return nil, nil, fmt.Errorf("slo: parsing %s: %w", path, err)
	}
	if fc.IntervalSec != nil {
		return nil, nil, fmt.Errorf("slo: %s sets interval_sec %v; SLOs are evaluated every -telemetry-interval", path, *fc.IntervalSec)
	}
	if len(fc.Objectives) == 0 {
		return nil, nil, fmt.Errorf("slo: %s defines no objectives", path)
	}
	for i := range fc.Objectives {
		if err := fc.Objectives[i].Validate(); err != nil {
			return nil, nil, err
		}
	}
	for i, r := range fc.Rules {
		short, err := seconds(fmt.Sprintf("rules[%d].short_sec", i), r.ShortSec)
		if err != nil {
			return nil, nil, err
		}
		long, err := seconds(fmt.Sprintf("rules[%d].long_sec", i), r.LongSec)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, BurnRule{Name: r.Name, Severity: r.Severity, Short: short, Long: long, Burn: r.Burn})
	}
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, nil, err
		}
	}
	return fc.Objectives, rules, nil
}

// seconds converts a config file's window to a Duration. It
// rejects a value that is not finite and positive, or that rounds to less
// than 1 ns or past the largest Duration.
func seconds(field string, sec float64) (time.Duration, error) {
	ns := sec * float64(time.Second)
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("slo: %s %v is not a number of seconds in [1e-9, %v]", field, sec, time.Duration(math.MaxInt64).Seconds())
	}
	return time.Duration(ns), nil
}

// jsonFloat marshals NaN/±Inf as null, like quality.JSONFloat — burn rates
// and SLIs are NaN before any traffic arrives.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}
