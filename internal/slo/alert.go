package slo

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"deepod/internal/obs"
)

// State is an alert's lifecycle position.
type State string

const (
	// StateFiring means the alert's condition currently holds.
	StateFiring State = "firing"
	// StateResolved means the condition stopped holding.
	StateResolved State = "resolved"
)

// Alert describes one alert identity and its current evidence. Name is the
// deduplication key: repeated Set calls for the same name collapse into
// one firing alert until it resolves.
type Alert struct {
	Name string `json:"name"`
	// Severity picks the notification log level: "page" logs at Error,
	// anything else at Warn.
	Severity string `json:"severity"`
	// Labels identify the source (slo, rule, shard, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Annotations carry the evidence (burn rates, PSI, thresholds).
	Annotations map[string]any `json:"annotations,omitempty"`
	// Value is the headline number behind the alert (burn rate, PSI).
	Value float64 `json:"value"`
}

// Event is one state transition, logged and retained in the history ring.
type Event struct {
	Alert
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

// ActiveAlert is a firing alert's live record.
type ActiveAlert struct {
	Alert
	Since time.Time `json:"since"`
	// LastSet is the most recent evaluation that confirmed the condition.
	LastSet time.Time `json:"last_set"`
	// Sets counts evaluations that confirmed the condition while firing
	// (dedup: they update evidence, they do not re-notify).
	Sets uint64 `json:"sets"`
}

// ManagerConfig assembles a Manager; every field defaults.
type ManagerConfig struct {
	// HistorySize bounds the transition-event ring (default 256).
	HistorySize int
	// Registry receives tte_alert_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger receives one line per transition (nil logs nowhere).
	Logger *slog.Logger
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Manager is the process-wide alert surface: a level-triggered,
// deduplicating firing/resolved state machine. Sources (the SLO evaluator,
// the quality monitor's drift detector) report the current truth of their
// condition with Set; the manager turns edges into notifications, keeps
// the firing set and a bounded history. All methods are safe for
// concurrent use.
type Manager struct {
	cfg ManagerConfig
	now func() time.Time

	mu      sync.Mutex
	active  map[string]*ActiveAlert
	history *obs.Ring[Event]
	total   int // transitions ever, including ones the ring has dropped

	firingGauge *obs.Gauge
	firedTotal  *obs.Counter
	resolvTotal *obs.Counter
}

// NewManager builds a Manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	reg.Help("tte_alerts_firing", "Alerts currently in the firing state.")
	reg.Help("tte_alert_transitions_total", "Alert state transitions, by new state.")
	return &Manager{
		cfg:         cfg,
		now:         cfg.Now,
		active:      make(map[string]*ActiveAlert),
		history:     obs.NewRing[Event](cfg.HistorySize),
		firingGauge: reg.Gauge("tte_alerts_firing"),
		firedTotal:  reg.Counter("tte_alert_transitions_total", "state", "firing"),
		resolvTotal: reg.Counter("tte_alert_transitions_total", "state", "resolved"),
	}
}

// Set reports the current truth of a's condition. Edges transition the
// state machine — resolved→firing notifies and records, firing→resolved
// likewise; levels are deduplicated — a re-confirmed firing alert only
// updates its evidence, and a clear on an unknown name is a no-op.
func (m *Manager) Set(a Alert, firing bool) {
	now := m.now()
	var ev *Event
	m.mu.Lock()
	cur, exists := m.active[a.Name]
	switch {
	case firing && !exists:
		m.active[a.Name] = &ActiveAlert{Alert: a, Since: now, LastSet: now, Sets: 1}
		ev = &Event{Alert: a, State: StateFiring, At: now}
	case firing && exists:
		cur.Alert = a // refresh evidence
		cur.LastSet = now
		cur.Sets++
	case !firing && exists:
		delete(m.active, a.Name)
		ev = &Event{Alert: a, State: StateResolved, At: now}
	}
	if ev != nil {
		m.history.Push(*ev)
		m.total++
	}
	m.firingGauge.Set(float64(len(m.active)))
	m.mu.Unlock()

	if ev == nil {
		return
	}
	if ev.State == StateFiring {
		m.firedTotal.Inc()
	} else {
		m.resolvTotal.Inc()
	}
	m.notify(*ev)
}

// SetAlert is the narrow level-triggered entry point other packages bind
// to through a local one-method interface (quality.AlertSink), keeping
// them decoupled from this package's types.
func (m *Manager) SetAlert(name string, firing bool, severity string, value float64, annotations map[string]any) {
	m.Set(Alert{Name: name, Severity: severity, Value: value, Annotations: annotations}, firing)
}

func (m *Manager) notify(ev Event) {
	if m.cfg.Logger == nil {
		return
	}
	attrs := []any{"alert", ev.Name, "severity", ev.Severity, "value", ev.Value}
	for k, v := range ev.Labels {
		attrs = append(attrs, k, v)
	}
	for k, v := range ev.Annotations {
		attrs = append(attrs, k, v)
	}
	switch {
	case ev.State == StateResolved:
		m.cfg.Logger.Info("alert resolved", attrs...)
	case ev.Severity == "page":
		m.cfg.Logger.Error("alert firing", attrs...)
	default:
		m.cfg.Logger.Warn("alert firing", attrs...)
	}
}

// Active returns the firing alerts, sorted by name.
func (m *Manager) Active() []ActiveAlert {
	m.mu.Lock()
	out := make([]ActiveAlert, 0, len(m.active))
	for _, a := range m.active {
		out = append(out, *a)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// History returns retained transitions, newest first.
func (m *Manager) History() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, 0, m.history.Len())
	for i := m.history.Len() - 1; i >= 0; i-- {
		out = append(out, m.history.At(i))
	}
	return out
}

// alertsPayload is the GET /debug/alerts body.
type alertsPayload struct {
	Firing []ActiveAlert `json:"firing"`
	// History holds transitions newest first; Transitions counts all of
	// them ever, including ones the ring has dropped.
	History     []Event `json:"history"`
	Transitions int     `json:"transitions"`
}

// Handler serves GET /debug/alerts: the firing set and transition history
// as JSON. Served raw like /metrics — reading alerts must not create any.
func (m *Manager) Handler() http.Handler {
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
		m.mu.Lock()
		total := m.total
		m.mu.Unlock()
		body := alertsPayload{Firing: m.Active(), History: m.History(), Transitions: total}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}
