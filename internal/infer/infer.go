// Package infer is the inference engine between the HTTP surface
// (internal/serve) and the DeepOD model (internal/core) — the layer that
// turns the paper's cheap online estimation (Algorithm 1: OD encoder +
// estimator MLP only) into a production serving path:
//
//   - Admission control: Workers execution slots behind a bounded queue. A
//     miss that finds a slot free and nothing queued is served on the
//     caller's own goroutine as a batch of one; otherwise it queues for the
//     worker pool. When the queue is full the request is shed immediately
//     (ErrOverloaded → 429); when it waits longer than QueueTimeout it is
//     abandoned (ErrQueueTimeout → 503). Requests never hang.
//   - Micro-batching: each worker drains up to MaxBatch queued requests at
//     once and serves the whole batch against a single snapshot load, so a
//     hot reload can never split one batch across two models.
//   - Containment: a panic out of map matching, the traffic source or the
//     model fails the request it was serving (ErrInternal → 500) and
//     nothing else; a poisoned batch is re-served member by member.
//   - Caching: a sharded LRU+TTL cache keyed by (origin cell, dest cell,
//     time slot). The spatial cells come from roadnet's uniform grid index
//     and the slot from timeslot.Slotter — the same quantizations the model
//     itself uses, so a cache hit answers with the estimate of an
//     indistinguishable input.
//   - Hot reload: the model lives behind an atomic snapshot pointer. Swap
//     installs a new checkpoint without dropping a single in-flight
//     request; generation tags make every cached estimate from the old
//     model invisible the moment the swap lands.
//   - Observation: every Do call — answered, shed or failed — ends in one
//     ServeEvent handed to each of Config.Observers on the caller's
//     goroutine once the answer is final: quality.Monitor stamps the
//     prediction ID the client echoes back with ground truth, and
//     recorder.Recorder captures the wide event replay re-executes.
//
// Every stage is instrumented in internal/obs:
//
//	tte_infer_queue_depth            gauge, queued requests
//	tte_infer_queue_wait_seconds     histogram, admission → pickup (0 when the caller serves itself)
//	tte_infer_batch_size             histogram, requests per execution
//	tte_infer_cache_events_total     counter {event=hit|miss|evict_lru|evict_ttl|evict_stale}
//	tte_infer_cache_entries          gauge, live cache entries
//	tte_infer_requests_total         counter, valid requests (shed-rate SLO denominator)
//	tte_infer_shed_total             counter {reason=queue_full|queue_timeout}
//	tte_infer_reloads_total          counter, snapshot swaps
//	tte_infer_panics_total           counter, panics contained by the execution guard
package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// Sentinel errors mapped to HTTP statuses by internal/serve.
var (
	// ErrOverloaded means the admission queue was full (serve → 429).
	ErrOverloaded = errors.New("infer: admission queue full")
	// ErrQueueTimeout means the request waited longer than QueueTimeout
	// for a worker (serve → 503).
	ErrQueueTimeout = errors.New("infer: timed out waiting for a worker")
	// ErrInvalidInput means the OD input had non-finite coordinates or a
	// negative departure time (serve → 400).
	ErrInvalidInput = errors.New("infer: invalid OD input")
	// ErrClosed means Do was called after Close.
	ErrClosed = errors.New("infer: engine closed")
	// ErrInternal means map matching, the traffic source or the model
	// panicked while serving this request (serve → 500). The panic is
	// contained: the engine keeps serving.
	ErrInternal = errors.New("infer: internal error")
)

// MatchError wraps a map-matching failure so serve can answer 422 (the
// request was well-formed but no road segment fits it).
type MatchError struct{ Err error }

func (e *MatchError) Error() string { return fmt.Sprintf("infer: map matching failed: %v", e.Err) }
func (e *MatchError) Unwrap() error { return e.Err }

// Quantizer maps a point onto a stable coarse spatial cell. Implemented by
// roadnet.EdgeIndex; stubs suffice for tests.
type Quantizer interface {
	CellIndex(p geo.Point) int
}

// TrafficSource feeds live traffic state into estimation. External returns
// the external-feature bundle (traffic-condition matrix + weather) the
// model should see for a departure time — live edge speeds merged over the
// training-time prior, or the prior alone when the live view is cold or
// stale — plus whether the live view was actually used (false means the
// prior fallback answered; the flight recorder stamps this on the wide
// event so replay knows which answers depended on live state). Epoch
// identifies the current traffic regime: it becomes part of every cache
// key, so cached estimates stop being served the moment conditions shift.
// Implemented by traffic.FeatureSource; must be safe for concurrent use.
type TrafficSource interface {
	Epoch() uint64
	External(departSec float64) (ext *traj.ExternalFeatures, live bool)
}

// ServeEvent is the one record of a Do call that the Observers see: every
// input that determined the answer, so a served estimate can be stamped
// for ground-truth joining, reproduced and re-scored offline.
type ServeEvent struct {
	// OD is the request exactly as the engine admitted it.
	OD traj.ODInput
	// Seconds is the served estimate (zero when Err is non-nil).
	Seconds float64
	// Cached reports whether the answer came from the estimate cache.
	Cached bool
	// SnapshotID and Generation identify the model that answered; empty/
	// current-generation when the request errored before reaching a model.
	SnapshotID string
	Generation uint64
	// TrafficEpoch is the live-traffic regime the answer was computed
	// under (0 with no traffic source). TrafficLive reports whether the
	// worker actually merged live speeds into the features — false means
	// the prior fallback (or a cache hit, whose features were fixed when
	// the entry was computed).
	TrafficEpoch uint64
	TrafficLive  bool
	// QueueWait is admission-to-pickup time (zero on cache hits, on
	// requests served on the caller's goroutine and on queue-full sheds;
	// QueueTimeout on timeout sheds).
	QueueWait time.Duration
	// Latency is the Do duration up to the answer (zero with no observer).
	Latency time.Duration
	// Err is the Do error: nil, ErrOverloaded, ErrQueueTimeout,
	// ErrInvalidInput, ErrClosed, ErrInternal, a *MatchError, or a context
	// error.
	Err error
}

// Observer is told about every Do call exactly once — success, shed or
// error — on the caller's goroutine after the answer is final, and returns
// a prediction ID to echo to the client, or "". quality.Monitor stamps
// served estimates for ground-truth joining; recorder.Recorder captures
// wide events for replay. Must be safe for concurrent use and must not
// block.
type Observer interface {
	ObserveServe(ctx context.Context, ev ServeEvent) (predictionID string)
}

// Config assembles an Engine.
type Config struct {
	// Match snaps an OD input onto road segments. Required. It is called
	// from caller and worker goroutines and must be safe for concurrent use
	// (mapmatch.Matcher.MatchPoint is read-only after construction). The
	// context is the requesting caller's — it carries the trace so match
	// spans land in the right tree; Match should not treat its cancellation
	// as fatal mid-batch.
	Match func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error)
	// Snapshot is the initial serving model. Required.
	Snapshot *Snapshot

	// Workers is the bound on concurrent executions (default GOMAXPROCS):
	// callers serving their own request and pool workers serving drained
	// batches together never run more than this many at once. The pool has
	// this many goroutines.
	Workers int
	// QueueDepth bounds the admission queue (default 256). A full queue
	// sheds new requests with ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many queued requests one worker drains per batch
	// (default 16).
	MaxBatch int
	// QueueTimeout bounds how long a queued request may wait for a
	// worker before it is abandoned with ErrQueueTimeout (default 2s).
	QueueTimeout time.Duration

	// CacheEntries is the total estimate-cache capacity; 0 disables
	// caching. When enabled, Cells and Slotter are required for key
	// quantization.
	CacheEntries int
	// CacheTTL bounds estimate staleness (default 5m). Traffic drifts
	// within a slot, so entries expire even if their slot is still
	// current.
	CacheTTL time.Duration
	// CacheShards is the lock-domain count (default 16, rounded up to a
	// power of two).
	CacheShards int
	// Cells quantizes origins/destinations for cache keys.
	Cells Quantizer
	// Slotter quantizes departure times for cache keys.
	Slotter *timeslot.Slotter

	// Traffic, when non-nil, overrides each request's external features
	// with the live traffic view at estimate time and keys the cache by the
	// traffic epoch. Nil leaves the request's own features untouched; the
	// only cost left on the serve path is one nil check per stage (see
	// TestDisabledPathOverhead).
	Traffic TrafficSource

	// Observers see one ServeEvent per Do call, in order; the first
	// non-empty ID one returns becomes Result.PredictionID. With none, Do
	// reads no clock for them and allocates nothing for them (see
	// TestDisabledPathOverhead).
	Observers []Observer

	// Registry receives engine metrics (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Result is one answered estimate.
type Result struct {
	// Seconds is the estimated travel time.
	Seconds float64
	// Cached reports whether the answer came from the estimate cache.
	Cached bool
	// SnapshotID names the model snapshot that produced the estimate (for
	// cached answers, the snapshot that originally computed it — which by
	// the generation check is the live one).
	SnapshotID string
	// PredictionID is the quality monitor's join handle for this estimate;
	// empty when no observer returns one.
	PredictionID string
}

// installed pairs a snapshot with its generation number. The generation
// strictly increases across swaps and tags cache entries, so a reload
// instantly invalidates every estimate the previous model produced.
type installed struct {
	snap *Snapshot
	gen  uint64
}

type job struct {
	od traj.ODInput
	// key holds the cache cells and slot, computed once in Do (zero with
	// caching off); finish files the answer under it at the execution's
	// epoch.
	key      cacheKey
	enqueued time.Time
	// ctx is the requesting caller's context; it carries the trace so the
	// worker's batch/match/model spans join the request's tree.
	ctx context.Context
	// qspan is the request's "infer.queue" span, started at admission and
	// ended by whichever side resolves the job first: the worker at pickup
	// or the caller on shed/abandon (Span.End is first-wins).
	qspan *obs.Span
	// picked is set by the worker taking the job; abandoned by a caller
	// that gave up. The pair resolves the shed-vs-serve race: a worker
	// skips abandoned jobs, and a caller whose queue timer fires after
	// pickup keeps waiting (the timeout bounds queue wait, not service).
	picked    atomic.Bool
	abandoned atomic.Bool
	done      chan ServeEvent
}

// Engine mediates all estimate traffic: admission, batching, caching and
// snapshot management. Construct with New, serve with Do, upgrade with
// Swap, stop with Close.
type Engine struct {
	cfg   Config
	reg   *obs.Registry
	now   func() time.Time
	cur   atomic.Pointer[installed]
	gen   atomic.Uint64
	cache *estimateCache

	// queue holds the admitted jobs no execution has started: a worker
	// takes its slot before it dequeues, so len(queue) counts exactly them.
	queue chan *job
	// slots is the execution semaphore, one token per Config.Workers. A
	// caller serving its own request and a worker serving a drained batch
	// each hold one for as long as they execute.
	slots chan struct{}
	// wake carries at most one token, "the queue may hold work": every
	// enqueue leaves it, an idle worker takes it and drains until a drain
	// comes back empty. Close closes it.
	wake chan struct{}

	// reloadErr holds the message of the most recent failed reload attempt
	// (RecordReloadFailure); a successful Swap clears it. /readyz reports
	// 503 while it is set.
	reloadErr atomic.Pointer[string]

	mu     sync.RWMutex // guards closed against concurrent admission
	closed bool
	wg     sync.WaitGroup // the workers and every caller-run execution

	depthGauge  *obs.Gauge
	queueWait   *obs.Histogram
	batchSize   *obs.Histogram
	requests    *obs.Counter
	shedFull    *obs.Counter
	shedTimeout *obs.Counter
	reloads     *obs.Counter
	panics      *obs.Counter
}

// batchSizeBuckets cover 1..MaxBatch for typical settings.
var batchSizeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// New validates cfg, installs the initial snapshot and starts the worker
// pool.
func New(cfg Config) (*Engine, error) {
	if cfg.Match == nil {
		return nil, fmt.Errorf("infer: Config.Match is required")
	}
	if cfg.Snapshot == nil || cfg.Snapshot.Estimate == nil {
		return nil, fmt.Errorf("infer: Config.Snapshot with an Estimate func is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = 5 * time.Minute
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 16
	}
	if cfg.CacheEntries > 0 && (cfg.Cells == nil || cfg.Slotter == nil) {
		return nil, fmt.Errorf("infer: caching needs Config.Cells and Config.Slotter for key quantization")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	reg.Help("tte_infer_queue_depth", "Requests waiting in the inference admission queue.")
	reg.Help("tte_infer_queue_wait_seconds", "Time from admission to pickup; 0 for a request served on its caller's goroutine.")
	reg.Help("tte_infer_batch_size", "Requests served per execution: 1 on the caller's goroutine, a drained micro-batch on a worker.")
	reg.Help("tte_infer_cache_events_total", "Estimate cache events: hit, miss, evict_lru, evict_ttl, evict_stale.")
	reg.Help("tte_infer_cache_entries", "Live entries in the estimate cache.")
	reg.Help("tte_infer_requests_total", "Valid estimate requests admitted to the engine (cache hits included).")
	reg.Help("tte_infer_shed_total", "Requests shed by admission control, by reason.")
	reg.Help("tte_infer_reloads_total", "Model snapshot hot swaps since start.")
	reg.Help("tte_infer_panics_total", "Panics out of map matching, the traffic source or the model that the execution guard turned into ErrInternal.")
	e := &Engine{
		cfg:   cfg,
		reg:   reg,
		now:   cfg.Now,
		queue: make(chan *job, cfg.QueueDepth),
		slots: make(chan struct{}, cfg.Workers),
		wake:  make(chan struct{}, 1),

		depthGauge:  reg.Gauge("tte_infer_queue_depth"),
		queueWait:   reg.Histogram("tte_infer_queue_wait_seconds", obs.DefBuckets),
		batchSize:   reg.Histogram("tte_infer_batch_size", batchSizeBuckets),
		requests:    reg.Counter("tte_infer_requests_total"),
		shedFull:    reg.Counter("tte_infer_shed_total", "reason", "queue_full"),
		shedTimeout: reg.Counter("tte_infer_shed_total", "reason", "queue_timeout"),
		reloads:     reg.Counter("tte_infer_reloads_total"),
		panics:      reg.Counter("tte_infer_panics_total"),
	}
	if cfg.CacheEntries > 0 {
		e.cache = newEstimateCache(cfg.CacheEntries, cfg.CacheShards, cfg.CacheTTL, reg)
	}
	e.install(cfg.Snapshot)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// install atomically publishes snap under a fresh generation.
func (e *Engine) install(snap *Snapshot) {
	if snap.LoadedAt.IsZero() {
		snap.LoadedAt = e.now()
	}
	e.cur.Store(&installed{snap: snap, gen: e.gen.Add(1)})
}

// Swap atomically replaces the serving snapshot and returns the previous
// one. In-flight batches finish on the snapshot they loaded; cache entries
// produced by the previous model become invisible immediately (generation
// mismatch) and are dropped lazily on lookup.
func (e *Engine) Swap(snap *Snapshot) (previous *Snapshot, err error) {
	return e.SwapCtx(context.Background(), snap)
}

// SwapCtx is Swap with trace context: the reload is recorded as an
// "infer.reload" span carrying the old and new snapshot IDs. A successful
// swap clears any failed-reload state (see RecordReloadFailure).
func (e *Engine) SwapCtx(ctx context.Context, snap *Snapshot) (previous *Snapshot, err error) {
	_, span := e.reg.StartSpan(ctx, "infer.reload")
	defer span.End()
	if snap == nil || snap.Estimate == nil {
		err = fmt.Errorf("infer: Swap needs a snapshot with an Estimate func")
		span.Fail(err)
		return nil, err
	}
	old := e.cur.Load()
	e.install(snap)
	e.reloadErr.Store(nil)
	e.reloads.Inc()
	span.SetStr("snapshot", snap.ID)
	span.SetStr("previous", old.snap.ID)
	return old.snap, nil
}

// RecordReloadFailure marks the engine as being in a failed-reload state:
// /readyz answers 503 until the next successful Swap. Call it when a
// checkpoint load or swap attempt fails so orchestrators stop routing new
// traffic to a replica that can no longer follow model rollouts. A nil err
// is ignored.
func (e *Engine) RecordReloadFailure(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	e.reloadErr.Store(&msg)
}

// Readiness reports whether the engine should receive traffic, with a
// detail payload for /readyz: the serving checkpoint hash, queue depth and
// capacity, and — when not ready — the reason.
func (e *Engine) Readiness() (bool, map[string]any) {
	detail := map[string]any{
		"queue_len":      len(e.queue),
		"queue_capacity": e.cfg.QueueDepth,
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	inst := e.cur.Load()
	ready := true
	switch {
	case closed:
		ready = false
		detail["reason"] = "engine closed"
	case inst == nil || inst.snap == nil:
		ready = false
		detail["reason"] = "no model snapshot loaded"
	default:
		detail["model"] = inst.snap.ID
	}
	if msg := e.reloadErr.Load(); msg != nil {
		ready = false
		detail["reason"] = "last reload failed"
		detail["last_reload_error"] = *msg
	}
	return ready, detail
}

// Snapshot returns the currently serving snapshot.
func (e *Engine) Snapshot() *Snapshot { return e.cur.Load().snap }

// Version reports the live snapshot and engine configuration for the
// /version endpoint.
func (e *Engine) Version() map[string]any {
	inst := e.cur.Load()
	v := map[string]any{
		"model":           inst.snap.ID,
		"model_loaded_at": inst.snap.LoadedAt.UTC().Format(time.RFC3339),
		"generation":      inst.gen,
		"reloads":         e.reloads.Value(),
		"workers":         e.cfg.Workers,
		"queue_depth":     e.cfg.QueueDepth,
		"max_batch":       e.cfg.MaxBatch,
		"queue_timeout":   e.cfg.QueueTimeout.String(),
		"cache_entries":   e.cfg.CacheEntries,
		"cache_ttl":       e.cfg.CacheTTL.String(),
	}
	if e.cfg.Traffic != nil {
		v["traffic"] = "live"
		v["traffic_epoch"] = e.cfg.Traffic.Epoch()
	} else {
		v["traffic"] = "disabled"
	}
	for k, val := range inst.snap.Meta {
		v[k] = val
	}
	return v
}

// Stats is a point-in-time counter snapshot for tests and benchmarks.
type Stats struct {
	Requests   uint64
	Shed       uint64
	CacheHits  uint64
	CacheMiss  uint64
	Reloads    uint64
	CacheItems int
}

// Stats reads the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests: e.requests.Value(),
		Shed:     e.shedFull.Value() + e.shedTimeout.Value(),
		Reloads:  e.reloads.Value(),
	}
	if e.cache != nil {
		s.CacheHits = e.cache.hitTotal.Value()
		s.CacheMiss = e.cache.missTotal.Value()
		s.CacheItems = e.cache.len()
	}
	return s
}

// validate rejects inputs that would poison downstream stages: non-finite
// coordinates break map matching's distance math, and a negative departure
// is before the dataset epoch (timeslot.Slotter panics on it by design).
func validate(od traj.ODInput) error {
	for _, v := range [5]float64{od.Origin.X, od.Origin.Y, od.Dest.X, od.Dest.Y, od.DepartSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrInvalidInput
		}
	}
	if od.DepartSec < 0 {
		return ErrInvalidInput
	}
	return nil
}

func (e *Engine) keyOf(od traj.ODInput) cacheKey {
	return cacheKey{
		originCell: e.cfg.Cells.CellIndex(od.Origin),
		destCell:   e.cfg.Cells.CellIndex(od.Dest),
		slot:       e.cfg.Slotter.Slot(od.DepartSec),
		epoch:      e.trafficEpoch(),
	}
}

// trafficEpoch is the cache key's traffic component: 0 without a traffic
// source (keys identical to the pre-traffic engine), otherwise the source's
// current epoch.
func (e *Engine) trafficEpoch() uint64 {
	if e.cfg.Traffic == nil {
		return 0
	}
	return e.cfg.Traffic.Epoch()
}

// Do serves one estimate: cache lookup, admission, then an execution — the
// caller's own when the engine is idle, a worker batch otherwise — answers
// it. It returns ErrOverloaded / ErrQueueTimeout when shed, a *MatchError
// when the OD cannot be snapped to the network, ErrInternal when serving it
// panicked, or the context's error if the caller gave up first. When ctx
// carries a trace, every stage shows up as a span: infer.cache (hit attr),
// infer.queue (depth, wait, shed reason), and the execution's infer.batch /
// infer.match / infer.model tree. Every call — success, shed, or error —
// ends in one ServeEvent for the Observers.
func (e *Engine) Do(ctx context.Context, od traj.ODInput) (Result, error) {
	var start time.Time
	if len(e.cfg.Observers) > 0 {
		start = e.now()
	}
	ev := ServeEvent{OD: od, Err: validate(od)}
	if ev.Err != nil {
		return e.answer(ctx, start, &ev)
	}
	// The shed-rate SLO's denominator: tte_infer_shed_total / this ratio is
	// the fraction of valid requests admission control turned away.
	e.requests.Inc()
	inst := e.cur.Load()
	ev.Generation = inst.gen
	var key cacheKey
	if e.cache != nil {
		key = e.keyOf(od)
		ev.TrafficEpoch = key.epoch
		_, cspan := e.reg.StartSpan(ctx, "infer.cache")
		sec, ok := e.cache.get(key, inst.gen, e.now())
		cspan.SetBool("hit", ok)
		cspan.End()
		if ok {
			ev.Seconds, ev.Cached, ev.SnapshotID = sec, true, inst.snap.ID
			return e.answer(ctx, start, &ev)
		}
	} else {
		ev.TrafficEpoch = e.trafficEpoch()
	}

	_, qspan := e.reg.StartSpan(ctx, "infer.queue")
	qspan.SetInt("queue_depth", len(e.queue))
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		qspan.Fail(ErrClosed)
		qspan.End()
		ev.Err = ErrClosed
		return e.answer(ctx, start, &ev)
	}
	select {
	case e.slots <- struct{}{}:
		if len(e.queue) == 0 {
			// A free slot and nothing to overtake: the queue would only put
			// a goroutine hand-over in front of the same work.
			e.wg.Add(1)
			e.mu.RUnlock()
			ev = e.serveInline(ctx, od, key, qspan)
			return e.answer(ctx, start, &ev)
		}
		// Queued work goes first. The worker its enqueuer woke is waiting
		// for this slot.
		<-e.slots
	default:
	}
	j := &job{od: od, key: key, enqueued: e.now(), ctx: ctx, qspan: qspan, done: make(chan ServeEvent, 1)}
	select {
	case e.queue <- j:
		select {
		case e.wake <- struct{}{}:
		default:
		}
		e.mu.RUnlock()
		e.depthGauge.Set(float64(len(e.queue)))
	default:
		e.mu.RUnlock()
		e.shedFull.Inc()
		qspan.SetStr("shed", "queue_full")
		qspan.Fail(ErrOverloaded)
		qspan.End()
		ev.Err = ErrOverloaded
		return e.answer(ctx, start, &ev)
	}

	timer := time.NewTimer(e.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case ev = <-j.done:
	case <-ctx.Done():
		j.abandoned.Store(true)
		qspan.SetStr("shed", "abandoned")
		qspan.End()
		ev.Err = ctx.Err()
	case <-timer.C:
		if j.picked.Load() {
			// A worker took the job just in time: the timeout only bounds
			// queue wait, so keep waiting for the in-progress answer.
			select {
			case ev = <-j.done:
			case <-ctx.Done():
				j.abandoned.Store(true)
				ev.Err = ctx.Err()
			}
			break
		}
		j.abandoned.Store(true)
		e.shedTimeout.Inc()
		qspan.SetStr("shed", "queue_timeout")
		qspan.Fail(ErrQueueTimeout)
		qspan.End()
		ev.Err, ev.QueueWait = ErrQueueTimeout, e.cfg.QueueTimeout
	}
	return e.answer(ctx, start, &ev)
}

// answer ends a Do call: each observer sees its final event, in order, and
// the first prediction ID one returns is echoed to the caller. A caller that
// gave up gets its context error here, so no observer ever stamps an answer
// nobody received.
func (e *Engine) answer(ctx context.Context, start time.Time, ev *ServeEvent) (Result, error) {
	var id string
	if len(e.cfg.Observers) > 0 {
		ev.Latency = e.now().Sub(start)
		for _, o := range e.cfg.Observers {
			if got := o.ObserveServe(ctx, *ev); id == "" {
				id = got
			}
		}
	}
	if ev.Err != nil {
		return Result{}, ev.Err
	}
	return Result{Seconds: ev.Seconds, Cached: ev.Cached, SnapshotID: ev.SnapshotID, PredictionID: id}, nil
}

// pendingJob is one request in execution: on the caller's goroutine, or as
// a member of a worker's batch.
type pendingJob struct {
	od  traj.ODInput
	key cacheKey
	// ctx is the requesting caller's context; it carries the trace so the
	// execution's batch/match/model spans join the request's tree.
	ctx context.Context
	// done delivers a queued job's event; nil when the caller executes.
	done    chan<- ServeEvent
	wait    time.Duration
	matched traj.MatchedOD
	bctx    context.Context
	bspan   *obs.Span
	epoch   uint64
	live    bool
}

// serveInline answers the caller's own request as a batch of one on the
// caller's goroutine, under the slot Do took: the same snapshot load, spans
// and observations as a worker picking it up after no wait at all.
func (e *Engine) serveInline(ctx context.Context, od traj.ODInput, key cacheKey, qspan *obs.Span) ServeEvent {
	defer e.release()
	qspan.SetFloat("wait_ms", 0)
	qspan.End()
	e.queueWait.Observe(0)
	e.batchSize.Observe(1)
	inst := e.cur.Load()
	// On the heap: Snapshot.Estimate is handed a pointer into it.
	p := &pendingJob{od: od, key: key, ctx: ctx}
	if err := e.prepare(inst, p, 1); err != nil {
		return p.end(inst, err)
	}
	return e.model(inst, p)
}

// release returns a caller-run execution's slot and lets Close go.
func (e *Engine) release() {
	<-e.slots
	e.wg.Done()
}

// worker serves the queue until Close. It holds a slot whenever it holds
// dequeued jobs, so the pool and the callers serving themselves share the
// one bound, and it sleeps on wake only after a drain came back empty.
func (e *Engine) worker() {
	defer e.wg.Done()
	batch := make([]*job, 0, e.cfg.MaxBatch)
	pending := make([]pendingJob, 0, e.cfg.MaxBatch)
	ods := make([]traj.MatchedOD, 0, e.cfg.MaxBatch)
	for open := true; open; {
		_, open = <-e.wake // closed by Close: one last drain, then out
		for {
			e.slots <- struct{}{}
			batch = batch[:0]
		drain:
			for len(batch) < e.cfg.MaxBatch {
				select {
				case j := <-e.queue:
					batch = append(batch, j)
				default:
					break drain
				}
			}
			if len(batch) > 0 {
				e.serveBatch(batch, pending[:0], ods[:0])
			}
			<-e.slots
			if len(batch) == 0 {
				break
			}
		}
	}
}

// serveBatch answers one drained batch. The snapshot is loaded once: every
// request in a batch is answered by the same model, and a concurrent Swap
// only affects subsequent batches.
//
// A batch runs in two phases: per-request map matching and traffic
// overrides first, then one model call for every request that survived.
// When the snapshot provides EstimateBatch and more than one request is
// pending, that call is the fused [B×d] forward; its result is bit-identical
// to per-request Estimate calls (see core.EstimateBatchFused), so batching
// never changes an answer. pending and ods are the worker's scratch, with
// room for MaxBatch.
func (e *Engine) serveBatch(batch []*job, pending []pendingJob, ods []traj.MatchedOD) {
	e.depthGauge.Set(float64(len(e.queue)))
	e.batchSize.Observe(float64(len(batch)))
	inst := e.cur.Load()
	now := e.now()
	for _, j := range batch {
		wait := now.Sub(j.enqueued)
		e.queueWait.Observe(wait.Seconds())
		j.qspan.SetFloat("wait_ms", float64(wait)/float64(time.Millisecond))
		j.qspan.End()
		j.picked.Store(true)
		if j.abandoned.Load() {
			continue // caller already answered 503/ctx error
		}
		pending = append(pending, pendingJob{od: j.od, key: j.key, ctx: j.ctx, done: j.done, wait: wait})
		p := &pending[len(pending)-1]
		if err := e.prepare(inst, p, len(batch)); err != nil {
			j.done <- p.end(inst, err)
			pending = pending[:len(pending)-1]
		}
	}
	if len(pending) > 1 && inst.snap.EstimateBatch != nil {
		// Fused path: one [B×d] forward answers the whole batch. The model
		// span hangs off the first pending request's trace; every request's
		// own infer.batch span records that it was answered fused and at
		// what batch size.
		for i := range pending {
			ods = append(ods, pending[i].matched)
		}
		if secs, err := e.estimateBatch(inst, pending[0].bctx, ods); err == nil {
			for i := range pending {
				pending[i].bspan.SetInt("fused", len(ods))
				pending[i].done <- e.finish(&pending[i], secs[i], inst)
			}
			return
		}
		// The forward panicked on some member: serve each alone, so only
		// the poisoned one fails.
	}
	for i := range pending {
		pending[i].done <- e.model(inst, &pending[i])
	}
}

// prepare runs the per-request half of an execution — map matching and the
// traffic override — under the request's infer.batch span. A request it
// returns an error for ends there (see end).
func (e *Engine) prepare(inst *installed, p *pendingJob, batchSize int) error {
	p.bctx, p.bspan = e.reg.StartSpan(p.ctx, "infer.batch")
	p.bspan.SetInt("batch_size", batchSize)
	p.bspan.SetStr("snapshot", inst.snap.ID)
	return e.match(p)
}

// model answers one prepared request with a forward of its own.
func (e *Engine) model(inst *installed, p *pendingJob) ServeEvent {
	sec, err := e.estimate(inst, p)
	if err != nil {
		return p.end(inst, err)
	}
	return e.finish(p, sec, inst)
}

// end closes p's execution and returns its event: failed with err, or
// awaiting finish's estimate when err is nil.
func (p *pendingJob) end(inst *installed, err error) ServeEvent {
	p.bspan.End()
	return ServeEvent{OD: p.od, Generation: inst.gen, TrafficEpoch: p.epoch, TrafficLive: p.live, QueueWait: p.wait, Err: err}
}

// match, estimate and estimateBatch are the three places an execution
// calls out of the engine; each defers contained.

func (e *Engine) match(p *pendingJob) (err error) {
	p.epoch = e.trafficEpoch()
	mctx, mspan := e.reg.StartSpan(p.bctx, "infer.match")
	defer e.contained(&err, mspan)
	p.matched, err = e.cfg.Match(mctx, p.od)
	if err != nil {
		mspan.Fail(err)
		mspan.End()
		return &MatchError{Err: err}
	}
	mspan.End()
	if e.cfg.Traffic != nil {
		// The live view is authoritative at estimate time; it falls back to
		// the training-time prior internally when cold or stale, so matched
		// never loses its features entirely.
		p.matched.External, p.live = e.cfg.Traffic.External(p.od.DepartSec)
	}
	return nil
}

func (e *Engine) estimate(inst *installed, p *pendingJob) (sec float64, err error) {
	ectx, espan := e.reg.StartSpan(p.bctx, "infer.model")
	defer e.contained(&err, espan)
	sec = inst.snap.Estimate(ectx, &p.matched)
	espan.End()
	return sec, nil
}

func (e *Engine) estimateBatch(inst *installed, ctx context.Context, ods []traj.MatchedOD) (secs []float64, err error) {
	ectx, espan := e.reg.StartSpan(ctx, "infer.model")
	espan.SetInt("fused", len(ods))
	defer e.contained(&err, espan)
	secs = inst.snap.EstimateBatch(ectx, ods)
	espan.End()
	return secs, nil
}

// contained is the execution guard, the process's only recover. Match, the
// traffic source and the model run on pool goroutines, where net/http's own
// recover never looks, and on callers that hold an execution slot; a panic
// out of any of them fails the request being served with ErrInternal, is
// counted, and leaves the slot, the worker and the rest of a batch serving.
func (e *Engine) contained(err *error, span *obs.Span) {
	if r := recover(); r != nil {
		e.panics.Inc()
		*err = fmt.Errorf("%w: %v", ErrInternal, r)
		span.Fail(*err)
		span.End()
	}
}

// finish caches one model answer and returns its event.
func (e *Engine) finish(p *pendingJob, sec float64, inst *installed) ServeEvent {
	if e.cache != nil {
		// Tagged with the execution's generation: if a Swap landed since its
		// snapshot load this entry is already stale and will never be
		// served. Filed under the epoch read beside the features, so a
		// regime shift during the forward cannot put an old-features answer
		// under the new epoch.
		key := p.key
		key.epoch = p.epoch
		e.cache.put(key, sec, inst.gen, e.now())
	}
	ev := p.end(inst, nil)
	ev.Seconds, ev.SnapshotID = sec, inst.snap.ID
	return ev
}

// Close stops admission, waits for every admitted request — queued, in a
// batch or on its caller's goroutine — to be answered, and stops the
// workers. Do returns ErrClosed afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.wake)
	e.mu.Unlock()
	e.wg.Wait()
}
