package deepod

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"deepod/internal/obs"
)

// The rules-file test holds deploy/alerts.rules.json, the Prometheus rules
// that alert on the service's objectives and on quality drift, to the code:
// every family a rule reads is one the code registers, every latency bound
// is one /metrics renders, and every threshold is the pinned default below.

// burnRule is one multiwindow burn-rate rule: it fires when the error
// budget burns at Burn times its sustainable rate over both windows.
type burnRule struct {
	severity    string
	long, short string
	burn        float64
}

// alertObjectives pins each objective's target and the families its SLI
// reads; alertRules pins the two burn-rate rules every objective has.
var (
	alertObjectives = map[string]struct {
		target   float64
		families []string
	}{
		"estimate-availability": {0.99, []string{"tte_http_requests_total"}},
		"estimate-latency":      {0.999, []string{"tte_http_request_seconds"}},
		"estimate-shed":         {0.99, []string{"tte_infer_shed_total", "tte_infer_requests_total"}},
	}
	alertRules = map[string]burnRule{
		"fast": {"page", "1h", "5m", 14.4},
		"slow": {"ticket", "72h", "6h", 1},
	}
)

// driftThreshold and driftSeverity pin the drift rule: quality's default
// DriftThreshold, raised as a ticket.
const (
	driftThreshold = 0.2
	driftSeverity  = "ticket"
)

var (
	// exprFamily is a family (or a histogram's series) named in an expr.
	exprFamily = regexp.MustCompile(`tte_[a-z0-9_]+`)
	// exprWindow is a range selector's window.
	exprWindow = regexp.MustCompile(`\[([0-9]+[smhd])\]`)
	// exprBurn is a burn-rate threshold: burn × the error budget.
	exprBurn = regexp.MustCompile(`>= \(([0-9.]+) \* \(1 - ([0-9.]+)\)\)`)
	// exprLe is a histogram bucket bound in a selector.
	exprLe = regexp.MustCompile(`le="([^"]*)"`)
	// exprDrift is the drift rule's comparison.
	exprDrift = regexp.MustCompile(`^tte_quality_drift > ([0-9.]+)$`)
)

type alertRule struct {
	Alert       string            `json:"alert"`
	Expr        string            `json:"expr"`
	Labels      map[string]string `json:"labels"`
	Annotations map[string]string `json:"annotations"`
}

func readAlertRules(t *testing.T) []alertRule {
	t.Helper()
	b, err := os.ReadFile("deploy/alerts.rules.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Groups []struct {
			Name  string      `json:"name"`
			Rules []alertRule `json:"rules"`
		} `json:"groups"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("deploy/alerts.rules.json: %v", err)
	}
	var rules []alertRule
	for _, g := range file.Groups {
		rules = append(rules, g.Rules...)
	}
	if len(rules) == 0 {
		t.Fatal("deploy/alerts.rules.json holds no rule")
	}
	return rules
}

// renderedLatencyBounds returns the le values /metrics renders for
// tte_http_request_seconds.
func renderedLatencyBounds(t *testing.T) map[string]bool {
	t.Helper()
	reg := obs.NewRegistry()
	h := obs.Middleware{Registry: reg}.Wrap("/estimate", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/estimate", nil))
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	bounds := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "tte_http_request_seconds_bucket{") {
			continue
		}
		for _, m := range exprLe.FindAllStringSubmatch(line, -1) {
			bounds[m[1]] = true
		}
	}
	if len(bounds) == 0 {
		t.Fatal("/metrics rendered no tte_http_request_seconds bucket")
	}
	return bounds
}

func TestAlertRulesFile(t *testing.T) {
	rules := readAlertRules(t)
	code := registeredFamilies(t)
	bounds := renderedLatencyBounds(t)

	seen := map[string]bool{}
	drift := 0
	for _, r := range rules {
		if r.Alert == "" || r.Expr == "" {
			t.Errorf("rule %+v lacks an alert name or an expr", r)
			continue
		}
		families := map[string]bool{}
		for _, name := range exprFamily.FindAllString(r.Expr, -1) {
			family := name
			for _, suffix := range []string{"_bucket", "_count", "_sum"} {
				family = strings.TrimSuffix(family, suffix)
			}
			if !code[family] {
				t.Errorf("%s reads %s, which no code registers", r.Alert, name)
			}
			families[family] = true
		}
		for _, m := range exprLe.FindAllStringSubmatch(r.Expr, -1) {
			if !bounds[m[1]] {
				t.Errorf("%s reads le=%q, which /metrics does not render for tte_http_request_seconds", r.Alert, m[1])
			}
		}

		if m := exprDrift.FindStringSubmatch(r.Expr); m != nil {
			drift++
			if v, _ := strconv.ParseFloat(m[1], 64); v != driftThreshold || r.Labels["severity"] != driftSeverity {
				t.Errorf("%s: threshold %s, severity %q; want %v, %q", r.Alert, m[1], r.Labels["severity"], driftThreshold, driftSeverity)
			}
			continue
		}

		obj, okObj := alertObjectives[r.Labels["slo"]]
		rule, okRule := alertRules[r.Labels["rule"]]
		if !okObj || !okRule {
			t.Errorf("%s: labels %v name no pinned objective and rule", r.Alert, r.Labels)
			continue
		}
		key := r.Labels["slo"] + ":" + r.Labels["rule"]
		if seen[key] {
			t.Errorf("%s: a second rule for %s", r.Alert, key)
		}
		seen[key] = true
		if r.Labels["severity"] != rule.severity {
			t.Errorf("%s: severity %q, want %q", r.Alert, r.Labels["severity"], rule.severity)
		}
		if len(families) != len(obj.families) {
			t.Errorf("%s reads %v, want exactly %v", r.Alert, families, obj.families)
		}
		for _, f := range obj.families {
			if !families[f] {
				t.Errorf("%s does not read %s", r.Alert, f)
			}
		}
		// The two windows are the two sides of the "and": each reads one
		// window only and compares against burn × (1 − target).
		halves := strings.Split(r.Expr, " and ")
		if len(halves) != 2 {
			t.Errorf("%s: %d conditions joined by and, want 2", r.Alert, len(halves))
			continue
		}
		for i, want := range []string{rule.long, rule.short} {
			ws := exprWindow.FindAllStringSubmatch(halves[i], -1)
			if len(ws) != 2 {
				t.Errorf("%s: condition %d has %d range selectors, want 2", r.Alert, i+1, len(ws))
			}
			for _, w := range ws {
				if w[1] != want {
					t.Errorf("%s: condition %d reads a [%s] window, want [%s]", r.Alert, i+1, w[1], want)
				}
			}
			m := exprBurn.FindAllStringSubmatch(halves[i], -1)
			if len(m) != 1 {
				t.Errorf("%s: condition %d has %d burn thresholds, want 1", r.Alert, i+1, len(m))
				continue
			}
			burn, _ := strconv.ParseFloat(m[0][1], 64)
			target, _ := strconv.ParseFloat(m[0][2], 64)
			if burn != rule.burn || target != obj.target {
				t.Errorf("%s: condition %d burns at %v × (1 − %v), want %v × (1 − %v)", r.Alert, i+1, burn, target, rule.burn, obj.target)
			}
		}
	}
	for obj := range alertObjectives {
		for rule := range alertRules {
			if !seen[obj+":"+rule] {
				t.Errorf("no %s rule for objective %s", rule, obj)
			}
		}
	}
	if drift != 1 {
		t.Errorf("%d tte_quality_drift rules, want 1", drift)
	}
}
