// Package telemetry turns the point-in-time observability surfaces
// (internal/obs metrics, the trace store) into an operable history: an
// observer of the process sampler (obs.StartSampler) that folds each
// registry snapshot into per-series bounded rings with a raw and a
// downsampled tier, and a query endpoint over them. Everything is
// stdlib-only and bounded — a process retains a fixed memory budget of
// history no matter how long it runs or how hot it is scraped.
package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"deepod/internal/obs"
)

// Config assembles a History.
type Config struct {
	// Interval is the period the process sampler calls Observe at (default
	// 10s). It must be at least 1s: points are stamped in whole unix
	// seconds, so two ticks inside one second would share a timestamp and
	// their rate would be a raw delta.
	Interval time.Duration
	// RawPoints bounds the fine tier per series (default 360 — one hour at
	// the default interval).
	RawPoints int
	// CoarseEvery folds this many raw intervals into one coarse point
	// (default 12 — two minutes at the default interval). Counters keep
	// the last cumulative value of the window; gauges average over it.
	CoarseEvery int
	// CoarsePoints bounds the coarse tier per series (default 720 — one
	// day at the default interval and fold).
	CoarsePoints int
	// MaxSeriesPerFamily caps tracked label sets per metric family
	// (default 64). Overflowing label sets fold into a synthetic
	// {overflow="true"} series and each newly dropped set increments
	// tte_telemetry_dropped_series_total — history stays bounded even when
	// a label explodes.
	MaxSeriesPerFamily int
	// ExemplarsPerSeries bounds the recent-exemplar ring kept per
	// histogram child (default 8).
	ExemplarsPerSeries int
	// Registry receives tte_telemetry_* self-metrics (default
	// obs.Default()).
	Registry *obs.Registry
	// Logger receives cardinality-guard warnings (nil logs nowhere).
	Logger *slog.Logger
	// Now is the clock a Query range ends at (tests); defaults to time.Now.
	// Points carry the time the sampler passes to Observe.
	Now func() time.Time
}

// Point is one (unix-seconds, value) history sample.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// series is one tracked history line: a family child for counters and
// gauges, or one derived line (:count, :sum, :p50, :p99) of a histogram
// child.
type series struct {
	id     string   // name plus rendered labels — the query identity
	name   string   // family or derived name (tte_http_request_seconds:p99)
	family string   // owning obs family (tte_http_request_seconds)
	kind   string   // "counter" | "gauge"
	labels []string // alternating sorted pairs

	raw    *obs.Ring[Point]
	coarse *obs.Ring[Point]
	// Coarse-tier accumulation across CoarseEvery raw pushes.
	accN    int
	accSum  float64
	accLast Point
}

// exRing keeps a histogram child's most recent exemplars plus the newest
// timestamp already harvested, so each tick only appends new ones.
type exRing struct {
	ring *obs.Ring[obs.Exemplar]
	seen float64
}

// History folds registry snapshots into bounded per-series rings: a raw
// tier at Interval and a coarse tier downsampled by CoarseEvery, both
// queryable through Query and the /debug/metrics/history handler.
// Construct with NewHistory and hand Observe to obs.StartSampler.
type History struct {
	cfg Config

	mu       sync.Mutex
	series   map[string]*series
	order    []string                   // series ids in creation order
	famSets  map[string]map[string]bool // family -> tracked label identities
	famDrops map[string]map[string]bool // family -> dropped label identities
	exes     map[string]*exRing         // histogram child id -> recent exemplars
	lastTick time.Time

	ticks   *obs.Counter
	dropped *obs.Counter
	seriesG *obs.Gauge
	tickDur *obs.Histogram
}

// NewHistory validates cfg and builds a History.
func NewHistory(cfg Config) (*History, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Interval < time.Second {
		return nil, fmt.Errorf("telemetry: Interval %v is under 1s; history points are whole unix seconds", cfg.Interval)
	}
	if cfg.RawPoints <= 0 {
		cfg.RawPoints = 360
	}
	if cfg.CoarseEvery <= 0 {
		cfg.CoarseEvery = 12
	}
	if cfg.CoarsePoints <= 0 {
		cfg.CoarsePoints = 720
	}
	if cfg.MaxSeriesPerFamily <= 0 {
		cfg.MaxSeriesPerFamily = 64
	}
	if cfg.ExemplarsPerSeries <= 0 {
		cfg.ExemplarsPerSeries = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	reg.Help("tte_telemetry_ticks_total", "Sampler ticks folded into the history.")
	reg.Help("tte_telemetry_series", "History series currently tracked.")
	reg.Help("tte_telemetry_dropped_series_total", "Label sets folded into the overflow series by the cardinality guard.")
	reg.Help("tte_telemetry_tick_seconds", "Time to fold one sampler tick into the history.")
	h := &History{
		cfg:      cfg,
		series:   make(map[string]*series),
		famSets:  make(map[string]map[string]bool),
		famDrops: make(map[string]map[string]bool),
		exes:     make(map[string]*exRing),
		ticks:    reg.Counter("tte_telemetry_ticks_total"),
		dropped:  reg.Counter("tte_telemetry_dropped_series_total"),
		seriesG:  reg.Gauge("tte_telemetry_series"),
		tickDur:  reg.Histogram("tte_telemetry_tick_seconds", []float64{0.0001, 0.001, 0.01, 0.1, 1}),
	}
	return h, nil
}

// seriesID renders name{k="v",...} from sorted pairs — the identity series
// are stored and queried under.
func seriesID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// labelIdentity is the label set's map key (values joined; names are
// already sorted by Snapshot).
func labelIdentity(labels []string) string { return strings.Join(labels, "\x00") }

// Observe folds one registry snapshot taken at now into the history:
// every counter and gauge child becomes a cumulative/value point, every
// histogram child four derived points (:count, :sum cumulative; :p50, :p99
// instant), and histogram exemplars newer than the last harvest join the
// child's exemplar ring. samples is only read.
func (h *History) Observe(now time.Time, samples []obs.Sample) {
	start := time.Now()
	ts := now.Unix()

	// Per-derived-name overflow accumulation for label sets past the cap.
	over := map[string]*overflowAcc{}

	h.mu.Lock()
	h.lastTick = now
	for _, s := range samples {
		switch s.Kind {
		case "counter":
			h.record(s.Name, s.Name, "counter", s.Labels, s.Value, ts, over)
		case "gauge":
			h.record(s.Name, s.Name, "gauge", s.Labels, s.Value, ts, over)
		case "histogram":
			h.record(s.Name, s.Name+":count", "counter", s.Labels, float64(s.Count), ts, over)
			h.record(s.Name, s.Name+":sum", "counter", s.Labels, s.Sum, ts, over)
			// Quantiles are instant per-child lines; there is no meaningful
			// overflow aggregation, so capped label sets just skip them.
			if p50 := s.Quantile(0.5); !math.IsNaN(p50) {
				h.record(s.Name, s.Name+":p50", "gauge", s.Labels, p50, ts, nil)
			}
			if p99 := s.Quantile(0.99); !math.IsNaN(p99) {
				h.record(s.Name, s.Name+":p99", "gauge", s.Labels, p99, ts, nil)
			}
			h.harvestExemplars(s)
		}
	}
	for name, o := range over {
		h.recordTracked(o.family, name, o.kind, []string{"overflow", "true"}, o.v, ts)
	}
	h.seriesG.Set(float64(len(h.series)))
	h.mu.Unlock()

	h.ticks.Inc()
	h.tickDur.Observe(time.Since(start).Seconds())
}

// overflowAcc sums one derived name's capped-label-set observations within
// a tick; cumulative counters sum to a valid cumulative counter, gauges to
// a fleet total.
type overflowAcc struct {
	family string
	kind   string
	v      float64
}

// record routes one observation either into its tracked series or — when
// the family's label-set cap is hit — into the per-name overflow
// accumulator. A nil over map drops capped observations outright
// (quantile lines).
func (h *History) record(family, name, kind string, labels []string, v float64, ts int64, over map[string]*overflowAcc) {
	ident := labelIdentity(labels)
	set := h.famSets[family]
	if set == nil {
		set = make(map[string]bool)
		h.famSets[family] = set
	}
	if !set[ident] {
		if len(set) >= h.cfg.MaxSeriesPerFamily {
			drops := h.famDrops[family]
			if drops == nil {
				drops = make(map[string]bool)
				h.famDrops[family] = drops
			}
			if !drops[ident] {
				drops[ident] = true
				h.dropped.Inc()
				if h.cfg.Logger != nil {
					h.cfg.Logger.Warn("telemetry cardinality guard tripped",
						"family", family, "dropped_sets", len(drops))
				}
			}
			if over != nil {
				o := over[name]
				if o == nil {
					o = &overflowAcc{family: family, kind: kind}
					over[name] = o
				}
				o.v += v
			}
			return
		}
		set[ident] = true
	}
	h.recordTracked(family, name, kind, labels, v, ts)
}

// recordTracked appends one point to a tracked series, creating it on
// first use (overflow series land here directly, exempt from the cap).
func (h *History) recordTracked(family, name, kind string, labels []string, v float64, ts int64) {
	id := seriesID(name, labels)
	sr := h.series[id]
	if sr == nil {
		sr = &series{
			id:     id,
			name:   name,
			family: family,
			kind:   kind,
			labels: append([]string(nil), labels...),
			raw:    obs.NewRing[Point](h.cfg.RawPoints),
			coarse: obs.NewRing[Point](h.cfg.CoarsePoints),
		}
		h.series[id] = sr
		h.order = append(h.order, id)
	}
	p := Point{T: ts, V: v}
	sr.raw.Push(p)
	sr.accN++
	sr.accSum += v
	sr.accLast = p
	if sr.accN >= h.cfg.CoarseEvery {
		cp := sr.accLast // counters: cumulative value at window end
		if sr.kind == "gauge" {
			cp.V = sr.accSum / float64(sr.accN)
		}
		sr.coarse.Push(cp)
		sr.accN, sr.accSum = 0, 0
	}
}

// harvestExemplars appends a histogram child's exemplars newer than the
// previous harvest to its bounded ring.
func (h *History) harvestExemplars(s obs.Sample) {
	if len(s.Exemplars) == 0 {
		return
	}
	id := seriesID(s.Name, s.Labels)
	er := h.exes[id]
	if er == nil {
		er = &exRing{ring: obs.NewRing[obs.Exemplar](h.cfg.ExemplarsPerSeries)}
		h.exes[id] = er
	}
	fresh := make([]obs.Exemplar, 0, 4)
	for _, e := range s.Exemplars {
		if e != nil && e.Unix > er.seen {
			fresh = append(fresh, *e)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Unix < fresh[j].Unix })
	for _, e := range fresh {
		er.ring.Push(e)
		er.seen = e.Unix
	}
}

// QuerySeries is one series' slice of a Query response.
type QuerySeries struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter" | "gauge"
	Agg    string  `json:"agg"`  // "rate" | "delta" | "value"
	Points []Point `json:"points"`
	// Exemplars are recent traced observations of the owning histogram
	// child — their trace IDs resolve in /debug/traces.
	Exemplars []obs.Exemplar `json:"exemplars,omitempty"`
}

// QueryResult is the GET /debug/metrics/history payload.
type QueryResult struct {
	IntervalSeconds float64       `json:"interval_seconds"`
	Tier            string        `json:"tier"` // "raw" | "coarse"
	Series          []QuerySeries `json:"series"`
}

// Query returns history for every series matching name: an exact series id
// (with labels), a family or derived name (all children), or a bare
// histogram family (all derived lines). rng selects the window ending now
// (0 = the raw tier's full span; longer ranges switch to the coarse tier),
// step thins points to at least that spacing, and agg picks the counter
// reduction — "rate" (default, per-second), "delta", or "value"
// (cumulative). Gauges always return values.
func (h *History) Query(name string, rng, step time.Duration, agg string) QueryResult {
	if agg == "" {
		agg = "rate"
	}
	rawSpan := time.Duration(h.cfg.RawPoints) * h.cfg.Interval
	if rng <= 0 {
		rng = rawSpan
	}
	tier := "raw"
	if rng > rawSpan {
		tier = "coarse"
	}
	cutoff := h.cfg.Now().Add(-rng).Unix()

	h.mu.Lock()
	defer h.mu.Unlock()
	res := QueryResult{IntervalSeconds: h.cfg.Interval.Seconds(), Tier: tier}
	for _, id := range h.order {
		sr := h.series[id]
		if !matchSeries(sr, name) {
			continue
		}
		r := sr.raw
		if tier == "coarse" {
			r = sr.coarse
		}
		pts := make([]Point, 0, r.Len())
		for i := 0; i < r.Len(); i++ {
			if p := r.At(i); p.T >= cutoff {
				pts = append(pts, p)
			}
		}
		qs := QuerySeries{ID: sr.id, Name: sr.name, Kind: sr.kind, Agg: "value"}
		if sr.kind == "counter" && (agg == "rate" || agg == "delta") {
			qs.Agg = agg
			pts = reduceCounter(pts, agg)
		}
		qs.Points = thin(pts, step)
		if er := h.exes[seriesID(sr.family, sr.labels)]; er != nil {
			qs.Exemplars = er.ring.Slice()
		}
		res.Series = append(res.Series, qs)
	}
	return res
}

// matchSeries reports whether sr answers a query for name.
func matchSeries(sr *series, name string) bool {
	return sr.id == name || sr.name == name || sr.family == name ||
		strings.HasPrefix(sr.id, name+"{")
}

// reduceCounter turns cumulative points into deltas or per-second rates
// between consecutive points, clamping negatives (counter resets) to zero.
func reduceCounter(pts []Point, agg string) []Point {
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = 0
		}
		if agg == "rate" {
			if dt := pts[i].T - pts[i-1].T; dt > 0 {
				d /= float64(dt)
			}
		}
		out = append(out, Point{T: pts[i].T, V: d})
	}
	return out
}

// thin drops points closer than step to the previously kept one.
func thin(pts []Point, step time.Duration) []Point {
	sec := int64(step / time.Second)
	if sec <= 1 || len(pts) == 0 {
		return pts
	}
	out := pts[:0:0]
	var last int64 = math.MinInt64
	for _, p := range pts {
		if p.T >= last+sec {
			out = append(out, p)
			last = p.T
		}
	}
	return out
}

// SeriesIDs lists every tracked series id, sorted — the catalog the
// history endpoint serves when no series is named.
func (h *History) SeriesIDs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.order...)
	sort.Strings(out)
	return out
}

// Stats summarizes the sampler for the history catalog.
type Stats struct {
	IntervalSeconds float64   `json:"interval_seconds"`
	Series          int       `json:"series"`
	RawPoints       int       `json:"raw_points"`
	CoarsePoints    int       `json:"coarse_points"`
	LastTick        time.Time `json:"last_tick"`
	DroppedSeries   uint64    `json:"dropped_series"`
}

// HistoryStats snapshots the sampler's shape and health.
func (h *History) HistoryStats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		IntervalSeconds: h.cfg.Interval.Seconds(),
		Series:          len(h.series),
		RawPoints:       h.cfg.RawPoints,
		CoarsePoints:    h.cfg.CoarsePoints,
		LastTick:        h.lastTick,
		DroppedSeries:   h.dropped.Value(),
	}
}

// Handler serves GET /debug/metrics/history. ?series= selects by id,
// family or derived name; ?range= and ?step= are Go durations; ?agg= is
// rate|delta|value. Without ?series= the response is the series catalog.
func (h *History) Handler() http.Handler {
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
		q := r.URL.Query()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		name := q.Get("series")
		if name == "" {
			_ = enc.Encode(map[string]any{"series_ids": h.SeriesIDs(), "stats": h.HistoryStats()})
			return
		}
		var rng, step time.Duration
		if s := q.Get("range"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad range: %v", err), http.StatusBadRequest)
				return
			}
			rng = d
		}
		if s := q.Get("step"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad step: %v", err), http.StatusBadRequest)
				return
			}
			step = d
		}
		agg := q.Get("agg")
		switch agg {
		case "", "rate", "delta", "value":
		default:
			http.Error(w, "bad agg: want rate, delta or value", http.StatusBadRequest)
			return
		}
		_ = enc.Encode(h.Query(name, rng, step, agg))
	})
}
