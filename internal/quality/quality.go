// Package quality is the online model-quality monitor: it closes the loop
// between served travel-time predictions and the ground truth that arrives
// when trips actually complete, and exports the paper's evaluation metrics
// (§6.1: MAE, MAPE, MARE) as live, windowed observables.
//
// The flow:
//
//  1. The inference engine hands every answered estimate to the monitor
//     (Monitor is an infer.Observer), which stamps it with a prediction ID
//     and retains it in a bounded, TTL-evicted pending table: predicted value,
//     model generation, origin/destination grid cells and departure slot.
//  2. POST /feedback (internal/serve) reports the actual travel time under
//     the echoed prediction ID; the monitor joins it against the pending
//     entry — correctly even when feedback is late or the model was
//     hot-reloaded in between, because the entry carries the generation
//     that produced the prediction.
//  3. Joined samples aggregate into rotating time windows: MAE/MAPE/MARE,
//     absolute-error quantiles (p50/p95/p99 via the obs histogram
//     machinery), per-generation errors, and per-grid-cell / per-time-slot
//     error heatmaps (top-K worst).
//  4. A drift detector bins live absolute errors into the reference error
//     distribution recorded at training time (metrics.RefDist, stored in
//     the checkpoint by ttetrain) and computes the Population Stability
//     Index. tte_quality_drift crossing Config.DriftThreshold raises the
//     level-triggered "quality:drift" alert through Config.Alerts (one
//     slog warning per window as fallback when no sink is wired) +
//     tte_quality_drift_alerts_total.
//
// Exported metric families (through the obs registry):
//
//	tte_quality_predictions_total      counter, stamped predictions
//	tte_quality_feedback_total         counter {result=joined|orphan}
//	tte_quality_pending                gauge, live pending-table entries
//	tte_quality_pending_events_total   counter {event=expired|evicted}
//	tte_quality_mae_seconds            gauge, current-window running MAE
//	tte_quality_mape                   gauge, current-window running MAPE
//	tte_quality_mare                   gauge, current-window running MARE
//	tte_quality_drift                  gauge, current-window PSI vs reference
//	tte_quality_drift_alerts_total     counter, threshold crossings
//	tte_quality_abs_error_seconds      histogram, cumulative |y − ŷ|
//
// GET /debug/quality (see Handler) serves the full state as JSON: current
// and closed windows, heatmaps, drift status, and join/orphan/expired
// counters.
package quality

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/metrics"
	"deepod/internal/obs"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// Quantizer maps a point onto a stable coarse spatial cell — the same
// contract the inference engine's estimate cache uses (implemented by
// roadnet.EdgeIndex).
type Quantizer interface {
	CellIndex(p geo.Point) int
}

// Config assembles a Monitor. The zero value of every field has a usable
// default; Cells, Slotter, Reference and Logger are optional.
type Config struct {
	// Window is the metric aggregation window (default 1m). Windows are
	// aligned to the first one's start and rotate lazily.
	Window time.Duration
	// MaxWindows bounds how many closed windows are retained for
	// /debug/quality (default 8).
	MaxWindows int
	// PendingTTL bounds how long a prediction waits for feedback before it
	// is evicted as expired (default 10m) — simulated trips complete in
	// minutes, and an unjoined prediction must not pin memory forever.
	PendingTTL time.Duration
	// PendingMax bounds the pending table (default 65536). When full, the
	// oldest entry is evicted to admit the new one.
	PendingMax int
	// TopK is how many worst cells/slots each window reports (default 10).
	TopK int
	// DriftThreshold is the PSI above which the quality monitor warns
	// (default 0.2 — the conventional "significant shift" bound).
	DriftThreshold float64
	// MinDriftSamples is the window sample count below which PSI is not
	// computed (default 20; a handful of trips says nothing about the
	// distribution).
	MinDriftSamples int
	// Reference is the training-time error distribution drift is measured
	// against (from the checkpoint; nil disables drift until SetReference).
	Reference *metrics.RefDist
	// ReferenceModel names the snapshot the reference came from.
	ReferenceModel string
	// Cells quantizes OD endpoints for the per-cell heatmap (nil disables
	// the heatmap).
	Cells Quantizer
	// Slotter quantizes departure times for the per-slot heatmap (nil
	// disables it).
	Slotter *timeslot.Slotter
	// Registry receives the monitor's metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger receives drift warnings (nil logs nowhere). When Alerts is
	// set it takes over and the logger is only the fallback surface.
	Logger *slog.Logger
	// Alerts, when set, receives the drift condition as a level-triggered
	// alert named "quality:drift" — firing while PSI exceeds the
	// threshold, cleared when it recedes — so drift shares one alert
	// surface with burn-rate and shed alerts instead of an ad-hoc log
	// line. Typically *slo.Manager through its SetAlert method.
	Alerts AlertSink
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// AlertSink is the narrow alert surface the monitor reports drift through.
// It is satisfied by slo.(*Manager).SetAlert; a local interface keeps this
// package decoupled from the slo package's types.
type AlertSink interface {
	SetAlert(name string, firing bool, severity string, value float64, annotations map[string]any)
}

// absErrBuckets are the per-window quantile histogram bounds, finer than
// the drift reference bins at the low end where most errors live.
var absErrBuckets = []float64{1, 2, 3, 5, 7.5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 300, 600, 1200}

// pendingPred is one stamped prediction awaiting ground truth.
type pendingPred struct {
	sec        float64 // predicted travel seconds
	model      string  // snapshot ID that produced it
	generation uint64
	oCell      int // origin grid cell (-1 when Cells is nil)
	dCell      int // destination grid cell
	slot       int // departure time slot (-1 when Slotter is nil)
	at         time.Time
}

// accum is a running (count, Σ|err|) pair — the per-cell/slot/generation
// heatmap unit.
type accum struct {
	n      int
	sumAbs float64
}

type genAccum struct {
	accum
	model string
}

// window is one open aggregation window.
type window struct {
	start       time.Time
	n           int
	sumAbs      float64
	sumAPE      float64
	apeSkip     int
	sumActual   float64
	hist        *obs.Histogram // abs-error quantiles
	driftCounts []float64      // per reference bin; nil when drift disabled
	gens        map[uint64]*genAccum
	cells       map[int]*accum
	slots       map[int]*accum
}

// Monitor joins served predictions with ground-truth feedback and
// aggregates quality metrics. All methods are safe for concurrent use.
type Monitor struct {
	cfg      Config
	reg      *obs.Registry
	now      func() time.Time
	logger   *slog.Logger
	idPrefix string
	seq      atomic.Uint64

	mu       sync.Mutex
	pending  map[string]*pendingPred
	queue    []string // insertion (= expiry) order; joined IDs stay as tombstones
	head     int
	ref      *metrics.RefDist
	refModel string
	refProbs []float64
	cur      *window
	closed   []*WindowSummary // oldest first
	alerted  bool             // one drift warning per window

	predictions  *obs.Counter
	joinedTotal  *obs.Counter
	orphanTotal  *obs.Counter
	expiredTotal *obs.Counter
	evictedTotal *obs.Counter
	pendingGauge *obs.Gauge
	maeGauge     *obs.Gauge
	mapeGauge    *obs.Gauge
	mareGauge    *obs.Gauge
	driftGauge   *obs.Gauge
	driftAlerts  *obs.Counter
	absErrHist   *obs.Histogram
}

// New builds a Monitor. It never fails: every config field defaults.
func New(cfg Config) *Monitor {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 8
	}
	if cfg.PendingTTL <= 0 {
		cfg.PendingTTL = 10 * time.Minute
	}
	if cfg.PendingMax <= 0 {
		cfg.PendingMax = 65536
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.2
	}
	if cfg.MinDriftSamples <= 0 {
		cfg.MinDriftSamples = 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	reg.Help("tte_quality_predictions_total", "Served estimates stamped with a prediction ID.")
	reg.Help("tte_quality_feedback_total", "Ground-truth feedback received, by join result.")
	reg.Help("tte_quality_pending", "Predictions awaiting ground-truth feedback.")
	reg.Help("tte_quality_pending_events_total", "Pending-table evictions: expired (TTL) or evicted (capacity).")
	reg.Help("tte_quality_mae_seconds", "Current-window running mean absolute error, seconds.")
	reg.Help("tte_quality_mape", "Current-window running mean absolute percent error, fraction.")
	reg.Help("tte_quality_mare", "Current-window running mean absolute relative error, fraction.")
	reg.Help("tte_quality_drift", "PSI of the current window's error distribution vs the training-time reference.")
	reg.Help("tte_quality_drift_alerts_total", "Windows whose error distribution crossed the drift threshold.")
	reg.Help("tte_quality_abs_error_seconds", "Absolute error of joined predictions, cumulative.")
	m := &Monitor{
		cfg:      cfg,
		reg:      reg,
		now:      cfg.Now,
		logger:   cfg.Logger,
		idPrefix: fmt.Sprintf("%08x", rand.Uint32()),
		pending:  make(map[string]*pendingPred),

		predictions:  reg.Counter("tte_quality_predictions_total"),
		joinedTotal:  reg.Counter("tte_quality_feedback_total", "result", "joined"),
		orphanTotal:  reg.Counter("tte_quality_feedback_total", "result", "orphan"),
		expiredTotal: reg.Counter("tte_quality_pending_events_total", "event", "expired"),
		evictedTotal: reg.Counter("tte_quality_pending_events_total", "event", "evicted"),
		pendingGauge: reg.Gauge("tte_quality_pending"),
		maeGauge:     reg.Gauge("tte_quality_mae_seconds"),
		mapeGauge:    reg.Gauge("tte_quality_mape"),
		mareGauge:    reg.Gauge("tte_quality_mare"),
		driftGauge:   reg.Gauge("tte_quality_drift"),
		driftAlerts:  reg.Counter("tte_quality_drift_alerts_total"),
		absErrHist:   reg.Histogram("tte_quality_abs_error_seconds", metrics.DefaultAbsErrorUppers),
	}
	m.setReferenceLocked(cfg.Reference, cfg.ReferenceModel)
	m.cur = m.newWindow(m.now())
	return m
}

func (m *Monitor) newWindow(start time.Time) *window {
	w := &window{
		start: start,
		hist:  obs.NewHistogram(absErrBuckets),
		gens:  make(map[uint64]*genAccum),
		cells: make(map[int]*accum),
		slots: make(map[int]*accum),
	}
	if m.ref != nil {
		w.driftCounts = make([]float64, len(m.ref.Counts))
	}
	return w
}

// SetReference swaps the drift reference distribution — called after a hot
// reload installs a checkpoint with its own training-time error
// distribution. The current window's drift counts are reset (they were
// binned against the old edges); quality metrics are unaffected. A nil ref
// disables drift detection.
func (m *Monitor) SetReference(ref *metrics.RefDist, model string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setReferenceLocked(ref, model)
	if m.cur != nil {
		if m.ref != nil {
			m.cur.driftCounts = make([]float64, len(m.ref.Counts))
		} else {
			m.cur.driftCounts = nil
		}
	}
}

func (m *Monitor) setReferenceLocked(ref *metrics.RefDist, model string) {
	if ref != nil {
		if err := ref.Validate(); err != nil {
			if m.logger != nil {
				m.logger.Warn("quality: rejecting reference distribution", "err", err)
			}
			ref = nil
		}
	}
	m.ref, m.refModel, m.refProbs = ref, model, nil
	if ref != nil {
		m.refProbs = ref.Probs()
	}
}

// ObserveServe stamps one answered estimate, cache hits included, and
// returns the ID to echo to the client; a shed or failed request gets no
// ID. It implements infer.Observer.
func (m *Monitor) ObserveServe(_ context.Context, ev infer.ServeEvent) string {
	if ev.Err != nil {
		return ""
	}
	return m.RecordPrediction(ev.OD, ev.Seconds, ev.SnapshotID, ev.Generation)
}

// RecordPrediction stores one served prediction in the pending table and
// returns the ID to echo to the client. od must already be validated (the
// engine rejects non-finite inputs before serving).
func (m *Monitor) RecordPrediction(od traj.ODInput, seconds float64, model string, generation uint64) string {
	id := m.idPrefix + "-" + strconv.FormatUint(m.seq.Add(1), 36)
	now := m.now()
	p := &pendingPred{
		sec:        seconds,
		model:      model,
		generation: generation,
		oCell:      -1,
		dCell:      -1,
		slot:       -1,
		at:         now,
	}
	if m.cfg.Cells != nil {
		p.oCell = m.cfg.Cells.CellIndex(od.Origin)
		p.dCell = m.cfg.Cells.CellIndex(od.Dest)
	}
	if m.cfg.Slotter != nil && od.DepartSec >= 0 {
		p.slot = m.cfg.Slotter.Slot(od.DepartSec)
	}

	m.mu.Lock()
	m.rotateLocked(now)
	m.sweepLocked(now)
	for len(m.pending) >= m.cfg.PendingMax {
		if !m.evictHeadLocked(m.evictedTotal) {
			break
		}
	}
	m.pending[id] = p
	m.queue = append(m.queue, id)
	m.pendingGauge.Set(float64(len(m.pending)))
	m.mu.Unlock()

	m.predictions.Inc()
	return id
}

// FeedbackResult reports what happened to one ground-truth observation.
type FeedbackResult struct {
	// Joined is true when the ID matched a pending prediction.
	Joined bool
	// PredictedSeconds and AbsErrorSeconds are set on a join.
	PredictedSeconds float64
	AbsErrorSeconds  float64
	// Model is the snapshot that produced the joined prediction.
	Model string
}

// Feedback joins the actual travel time of a completed trip against the
// pending prediction stamped id. Unknown, already-joined and expired IDs
// count as orphans (the monitor cannot tell these apart — the entry is
// simply gone). actual must be a finite, non-negative number of seconds.
func (m *Monitor) Feedback(id string, actual float64) (FeedbackResult, error) {
	if math.IsNaN(actual) || math.IsInf(actual, 0) || actual < 0 {
		return FeedbackResult{}, fmt.Errorf("quality: actual travel time must be a finite non-negative number, got %v", actual)
	}
	now := m.now()
	m.mu.Lock()
	m.rotateLocked(now)
	m.sweepLocked(now)
	p, ok := m.pending[id]
	if !ok {
		m.mu.Unlock()
		m.orphanTotal.Inc()
		return FeedbackResult{}, nil
	}
	delete(m.pending, id) // its queue slot becomes a tombstone
	m.pendingGauge.Set(float64(len(m.pending)))
	m.joinLocked(p, actual)
	m.mu.Unlock()

	m.joinedTotal.Inc()
	return FeedbackResult{
		Joined:           true,
		PredictedSeconds: p.sec,
		AbsErrorSeconds:  math.Abs(actual - p.sec),
		Model:            p.model,
	}, nil
}

// joinLocked folds one (prediction, actual) pair into the current window
// and updates the running gauges and the drift detector.
func (m *Monitor) joinLocked(p *pendingPred, actual float64) {
	absErr := math.Abs(actual - p.sec)
	w := m.cur
	w.n++
	w.sumAbs += absErr
	if actual != 0 {
		w.sumAPE += absErr / actual
	} else {
		w.apeSkip++
	}
	w.sumActual += actual
	w.hist.Observe(absErr)
	m.absErrHist.Observe(absErr)

	g := w.gens[p.generation]
	if g == nil {
		g = &genAccum{model: p.model}
		w.gens[p.generation] = g
	}
	g.n++
	g.sumAbs += absErr
	if p.oCell >= 0 {
		bump(w.cells, p.oCell, absErr)
		if p.dCell != p.oCell {
			bump(w.cells, p.dCell, absErr)
		}
	}
	if p.slot >= 0 {
		bump(w.slots, p.slot, absErr)
	}

	m.maeGauge.Set(w.sumAbs / float64(w.n))
	if n := w.n - w.apeSkip; n > 0 {
		m.mapeGauge.Set(w.sumAPE / float64(n))
	}
	if w.sumActual > 0 {
		m.mareGauge.Set(w.sumAbs / w.sumActual)
	}

	if w.driftCounts != nil {
		w.driftCounts[m.ref.Bin(absErr)]++
		if w.n >= m.cfg.MinDriftSamples {
			psi := metrics.PSI(m.refProbs, w.driftCounts)
			m.driftGauge.Set(psi)
			firing := psi > m.cfg.DriftThreshold
			if m.cfg.Alerts != nil {
				// Level-triggered: the manager dedups repeats and turns
				// edges into notifications, so report the current truth
				// every time PSI is recomputed.
				m.cfg.Alerts.SetAlert("quality:drift", firing, "ticket", psi, map[string]any{
					"threshold":          m.cfg.DriftThreshold,
					"window_samples":     w.n,
					"reference_model":    m.refModel,
					"window_mae_seconds": w.sumAbs / float64(w.n),
				})
			}
			if firing && !m.alerted {
				m.alerted = true
				m.driftAlerts.Inc()
				if m.cfg.Alerts == nil && m.logger != nil {
					m.logger.Warn("quality drift: live error distribution diverged from the training-time reference",
						"psi", psi,
						"threshold", m.cfg.DriftThreshold,
						"window_samples", w.n,
						"reference_model", m.refModel,
						"window_mae_seconds", w.sumAbs/float64(w.n),
					)
				}
			}
		}
	}
}

func bump(mp map[int]*accum, key int, absErr float64) {
	a := mp[key]
	if a == nil {
		a = &accum{}
		mp[key] = a
	}
	a.n++
	a.sumAbs += absErr
}

// rotateLocked closes the current window when its period has elapsed. A
// gap longer than one window does not fabricate empty windows: the next
// window starts at the aligned boundary containing now.
func (m *Monitor) rotateLocked(now time.Time) {
	elapsed := now.Sub(m.cur.start)
	if elapsed < m.cfg.Window {
		return
	}
	if m.cur.n > 0 {
		m.closed = append(m.closed, m.summarizeLocked(m.cur, m.cur.start.Add(m.cfg.Window)))
		if len(m.closed) > m.cfg.MaxWindows {
			m.closed = m.closed[len(m.closed)-m.cfg.MaxWindows:]
		}
	}
	k := elapsed / m.cfg.Window
	m.cur = m.newWindow(m.cur.start.Add(k * m.cfg.Window))
	m.alerted = false
}

// sweepLocked evicts pending entries whose TTL has elapsed. The TTL is
// constant, so queue order is expiry order and the sweep stops at the
// first live entry.
func (m *Monitor) sweepLocked(now time.Time) {
	cutoff := now.Add(-m.cfg.PendingTTL)
	for m.head < len(m.queue) {
		id := m.queue[m.head]
		p, ok := m.pending[id]
		if !ok { // tombstone: already joined or evicted
			m.head++
			continue
		}
		if !p.at.Before(cutoff) {
			break
		}
		delete(m.pending, id)
		m.head++
		m.expiredTotal.Inc()
	}
	m.compactLocked()
	m.pendingGauge.Set(float64(len(m.pending)))
}

// evictHeadLocked removes the oldest live pending entry (capacity
// pressure), counting it in evicted. Returns false when nothing is left.
func (m *Monitor) evictHeadLocked(counter *obs.Counter) bool {
	for m.head < len(m.queue) {
		id := m.queue[m.head]
		m.head++
		if _, ok := m.pending[id]; ok {
			delete(m.pending, id)
			counter.Inc()
			m.compactLocked()
			return true
		}
	}
	m.compactLocked()
	return false
}

// compactLocked reclaims the consumed queue prefix once it dominates.
func (m *Monitor) compactLocked() {
	if m.head > 1024 && m.head > len(m.queue)/2 {
		m.queue = append([]string(nil), m.queue[m.head:]...)
		m.head = 0
	}
}
