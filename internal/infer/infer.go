// Package infer is the inference engine between the HTTP surface
// (internal/serve) and the DeepOD model (internal/core) — the layer that
// turns the paper's cheap online estimation (Algorithm 1: OD encoder +
// estimator MLP only) into a production serving path:
//
//   - Admission control: Workers execution slots behind a bounded queue. A
//     miss that finds a slot free and nothing queued is served on the
//     caller's own goroutine; otherwise it queues for the worker pool. When
//     the queue is full the request is shed immediately (ErrOverloaded →
//     429); when it waits longer than QueueTimeout it is abandoned
//     (ErrQueueTimeout → 503). Requests never hang.
//   - Draining: a worker takes up to MaxBatch queued requests per slot
//     hand-over and serves them one after another against a single
//     snapshot load, so a backlog clears without a hand-over per request and
//     a hot reload can never split one batch across two models. Every
//     request, drained or caller-run, is served by the same function.
//   - Containment: a panic out of map matching, the traffic source or the
//     model fails the request it was serving (ErrInternal → 500) and
//     nothing else.
//   - Caching: a sharded LRU+TTL cache keyed by the request itself — the
//     bits of its endpoints and departure, its external bundle's weather
//     and speed matrix, and the traffic epoch — so a hit returns the bits
//     an uncached engine would compute. The TTL bounds live-traffic drift
//     within one epoch.
//   - Hot reload: the model lives behind an atomic snapshot pointer. SwapCtx
//     installs a new checkpoint without dropping a single in-flight
//     request; generation tags make every cached estimate from the old
//     model invisible the moment the swap lands.
//   - Observation: every Do call — answered, shed or failed — ends in one
//     ServeEvent handed to each of Config.Observers on the caller's
//     goroutine once the answer is final, its grid cells and time slot
//     quantized once for all of them: quality.Monitor stamps the
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
//	tte_infer_requests_total         counter, valid requests (the shed rule's denominator)
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

	"deepod/internal/core"
	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// The engine's stages. A miss runs infer.cache, infer.queue and
// infer.batch back to back under the request, and infer.match then
// infer.model back to back under infer.batch: each hands over to the next
// with Span.Next where they abut.
var (
	stageCache  = obs.NewStage("infer.cache")
	stageQueue  = obs.NewStage("infer.queue")
	stageBatch  = obs.NewStage("infer.batch")
	stageMatch  = obs.NewStage("infer.match")
	stageModel  = obs.NewStage("infer.model")
	stageReload = obs.NewStage("infer.reload")

	stageSnapshotLoad = obs.NewStage("infer.snapshot_load")
)

// Sentinel errors mapped to HTTP statuses by internal/serve.
var (
	// ErrOverloaded means the admission queue was full (serve → 429).
	ErrOverloaded = errors.New("infer: admission queue full")
	// ErrQueueTimeout means the request waited longer than QueueTimeout
	// for a worker (serve → 503).
	ErrQueueTimeout = errors.New("infer: timed out waiting for a worker")
	// ErrInvalidInput means the OD input had non-finite coordinates or a
	// departure time with no slot: negative or past the int range (serve →
	// 400).
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

// Quantizer maps a point onto a stable coarse spatial cell: the grid the
// observers' events are stamped on. Implemented by roadnet.EdgeIndex; stubs
// suffice for tests.
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
	// OriginCell, DestCell and Slot quantize OD under Config.Cells and
	// Config.Slotter: the grid cells and time slot the observers aggregate
	// by. -1 for a rejected input and without the quantizer.
	OriginCell, DestCell, Slot int
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
	// (mapmatch.Matcher.MatchPointCtx is read-only after construction). The
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
	// caching.
	CacheEntries int
	// CacheTTL bounds estimate staleness (default 5m). Live traffic drifts
	// within one epoch, so entries expire even if their epoch is still
	// current.
	CacheTTL time.Duration
	// Cells quantizes origins/destinations for ServeEvent.OriginCell and
	// DestCell (optional; consulted only with Observers).
	Cells Quantizer
	// Slotter quantizes departure times for ServeEvent.Slot (optional;
	// consulted only with Observers).
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
	// Now overrides the clock of snapshot loads, latencies and queue
	// waits (tests); defaults to time.Now. The cache's TTL runs from its
	// lookup's infer.cache span start.
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

// job is one admitted request: the execution state serve works on, and the
// admission state the caller and the worker share. Do allocates it on a
// cache miss, the request's one allocation (Snapshot.Estimate is handed a
// pointer into it); a caller-run execution serves it without queueing it.
type job struct {
	pendingJob
	enqueued time.Time
	// qspan is the request's "infer.queue" span, started at admission. It is
	// the span's one copy, ended by whichever side resolves the job first:
	// the execution at pickup, or the caller on shed or abandon (End is
	// first-wins).
	qspan obs.Span
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
// SwapCtx, stop with Close.
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
	// (RecordReloadFailure); a successful SwapCtx clears it. /readyz reports
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
		e.cache = newEstimateCache(cfg.CacheEntries, cacheShards, cfg.CacheTTL, reg)
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

// SwapCtx atomically replaces the serving snapshot and returns the
// previous one. In-flight batches finish on the snapshot they loaded; cache
// entries produced by the previous model become invisible immediately
// (generation mismatch) and are dropped lazily on lookup. The reload is
// recorded under ctx as an "infer.reload" span carrying the old and new
// snapshot IDs. A successful swap clears any failed-reload state (see
// RecordReloadFailure).
func (e *Engine) SwapCtx(ctx context.Context, snap *Snapshot) (previous *Snapshot, err error) {
	_, span := e.reg.StartSpan(ctx, stageReload)
	defer span.End()
	if snap == nil || snap.Estimate == nil {
		err = fmt.Errorf("infer: SwapCtx needs a snapshot with an Estimate func")
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
// /readyz answers 503 until the next successful SwapCtx. Call it when a
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
// coordinates break map matching's distance math, a negative departure is
// before the dataset epoch (timeslot.Slotter panics on it by design), a
// departure whose slot index overflows an int under the model's slotter
// would make the model's week-slot lookup panic, and so would an external
// bundle core.ValidateExternal refuses.
func validate(od traj.ODInput, slots *timeslot.Slotter) error {
	for _, v := range [5]float64{od.Origin.X, od.Origin.Y, od.Dest.X, od.Dest.Y, od.DepartSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrInvalidInput
		}
	}
	if od.DepartSec < 0 || slots != nil && !slots.Representable(od.DepartSec) {
		return ErrInvalidInput
	}
	if od.External != nil && core.ValidateExternal(od.External) != nil {
		return ErrInvalidInput
	}
	return nil
}

// Validate is the check Do starts with, on the serving snapshot's slotter:
// ErrInvalidInput for an OD Do would refuse, else nil. A caller that builds
// part of the OD first (serve resolves its external bundle) calls it before
// that work, so a refused request costs none of it.
func (e *Engine) Validate(od traj.ODInput) error {
	return validate(od, e.cur.Load().snap.Slotter)
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
	inst := e.cur.Load()
	ev := ServeEvent{OD: od, Err: validate(od, inst.snap.Slotter)}
	if ev.Err != nil {
		return e.answer(ctx, start, &ev)
	}
	// The shed rule's denominator (deploy/alerts.rules.json):
	// tte_infer_shed_total over this is the fraction of valid requests
	// admission control turned away.
	e.requests.Inc()
	ev.Generation = inst.gen
	var key cacheKey
	var looked time.Time
	var cspan obs.Span
	if e.cache != nil {
		key = keyOf(od, e.trafficEpoch())
		ev.TrafficEpoch = key.epoch
		_, cspan = e.reg.StartSpan(ctx, stageCache)
		looked = cspan.Start()
		sec, ok := e.cache.get(key, gridOf(od.External), inst.gen, looked)
		cspan.SetBool("hit", ok)
		if ok {
			cspan.End()
			ev.Seconds, ev.Cached, ev.SnapshotID = sec, true, inst.snap.ID
			return e.answer(ctx, start, &ev)
		}
	} else {
		ev.TrafficEpoch = e.trafficEpoch()
	}

	j := &job{pendingJob: pendingJob{od: od, key: key, looked: looked, ctx: ctx}}
	if e.cache != nil {
		_, j.qspan = cspan.Next(ctx, stageQueue)
	} else {
		_, j.qspan = e.reg.StartSpan(ctx, stageQueue)
	}
	j.qspan.SetInt("queue_depth", len(e.queue))
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		j.qspan.Fail(ErrClosed)
		j.qspan.End()
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
			ev = e.serveInline(j)
			return e.answer(ctx, start, &ev)
		}
		// Queued work goes first. The worker its enqueuer woke is waiting
		// for this slot.
		<-e.slots
	default:
	}
	j.enqueued, j.done = e.now(), make(chan ServeEvent, 1)
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
		j.qspan.SetStr("shed", "queue_full")
		j.qspan.Fail(ErrOverloaded)
		j.qspan.End()
		ev.Err = ErrOverloaded
		return e.answer(ctx, start, &ev)
	}

	timer := time.NewTimer(e.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case ev = <-j.done:
	case <-ctx.Done():
		j.abandoned.Store(true)
		j.qspan.SetStr("shed", "abandoned")
		j.qspan.End()
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
		j.qspan.SetStr("shed", "queue_timeout")
		j.qspan.Fail(ErrQueueTimeout)
		j.qspan.End()
		ev.Err, ev.QueueWait = ErrQueueTimeout, e.cfg.QueueTimeout
	}
	return e.answer(ctx, start, &ev)
}

// answer ends a Do call: each observer sees its final event, in order, and
// the first prediction ID one returns is echoed to the caller. A caller that
// gave up, in the queue or during its own execution, gets its context error
// here, so no observer ever stamps an answer nobody received.
func (e *Engine) answer(ctx context.Context, start time.Time, ev *ServeEvent) (Result, error) {
	if ev.Err == nil {
		if err := ctx.Err(); err != nil {
			ev.Err, ev.Seconds = err, 0
		}
	}
	var id string
	if len(e.cfg.Observers) > 0 {
		ev.Latency = e.now().Sub(start)
		e.quantize(ev)
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

// quantize stamps ev's grid cells and slot, -1 for what it cannot
// quantize: a rejected input (Slotter.Slot panics on a negative departure,
// and only validate returns ErrInvalidInput) or a missing quantizer.
func (e *Engine) quantize(ev *ServeEvent) {
	ev.OriginCell, ev.DestCell, ev.Slot = -1, -1, -1
	if ev.Err == ErrInvalidInput {
		return
	}
	if e.cfg.Cells != nil {
		ev.OriginCell, ev.DestCell = e.cfg.Cells.CellIndex(ev.OD.Origin), e.cfg.Cells.CellIndex(ev.OD.Dest)
	}
	if e.cfg.Slotter != nil {
		ev.Slot = e.cfg.Slotter.Slot(ev.OD.DepartSec)
	}
}

// pendingJob is one request in execution: on the caller's goroutine, or as
// a member of a worker's batch.
type pendingJob struct {
	od traj.ODInput
	// key is the request's cache key, computed once in Do (zero with
	// caching off), and looked the clock reading its lookup missed at;
	// serve files the answer under key at the execution's epoch, its TTL
	// counted from looked.
	key    cacheKey
	looked time.Time
	// ctx is the requesting caller's context; it carries the trace so the
	// execution's batch/match/model spans join the request's tree.
	ctx     context.Context
	wait    time.Duration // admission to pickup; zero on the caller's goroutine
	matched traj.MatchedOD
	live    bool // the traffic source merged live speeds into matched
}

// serveInline answers the caller's own request on the caller's goroutine,
// under the slot Do took: the same snapshot load, spans and observations as
// a worker picking it up after no wait at all. Its infer.batch starts where
// infer.queue ends.
func (e *Engine) serveInline(j *job) ServeEvent {
	defer e.release()
	j.qspan.SetFloat("wait_ms", 0)
	bctx, bspan := j.qspan.Next(j.ctx, stageBatch)
	e.queueWait.Observe(0)
	e.batchSize.Observe(1)
	return e.serve(e.cur.Load(), &j.pendingJob, 1, bctx, &bspan)
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
				e.serveBatch(batch)
			}
			<-e.slots
			if len(batch) == 0 {
				break
			}
		}
	}
}

// serveBatch answers one drained batch, member by member. The snapshot is
// loaded once: every request in a batch is answered by the same model, and a
// concurrent SwapCtx only affects subsequent batches. Every member is picked
// up before the first is served, so its queue wait ends at the drain.
func (e *Engine) serveBatch(batch []*job) {
	e.depthGauge.Set(float64(len(e.queue)))
	e.batchSize.Observe(float64(len(batch)))
	inst := e.cur.Load()
	now := e.now()
	for _, j := range batch {
		j.wait = now.Sub(j.enqueued)
		e.queueWait.Observe(j.wait.Seconds())
		j.qspan.SetFloat("wait_ms", float64(j.wait)/float64(time.Millisecond))
		j.qspan.End()
		j.picked.Store(true)
	}
	for _, j := range batch {
		if !j.abandoned.Load() { // else the caller already answered 503/ctx error
			bctx, bspan := e.reg.StartSpan(j.ctx, stageBatch)
			j.done <- e.serve(inst, &j.pendingJob, len(batch), bctx, &bspan)
		}
	}
}

// serve is the one execution of a request: map matching and the traffic
// override, the model's forward, and the cache fill, all under the
// request's infer.batch span bspan, which serve ends; bctx carries it.
func (e *Engine) serve(inst *installed, p *pendingJob, batchSize int, bctx context.Context, bspan *obs.Span) ServeEvent {
	defer bspan.End()
	bspan.SetInt("batch_size", batchSize)
	bspan.SetStr("snapshot", inst.snap.ID)
	// Read beside the features: the answer is filed under this epoch, so a
	// regime shift during the forward cannot put an old-features answer
	// under the new epoch.
	epoch := e.trafficEpoch()
	ev := ServeEvent{OD: p.od, Generation: inst.gen, TrafficEpoch: epoch, QueueWait: p.wait}
	ev.Seconds, ev.Err = e.execute(bctx, inst, p)
	ev.TrafficLive = p.live
	if ev.Err != nil {
		return ev
	}
	if e.cache != nil {
		// Tagged with the execution's generation: if a SwapCtx landed since
		// its snapshot load this entry is already stale and will never be
		// served.
		key := p.key
		key.epoch = epoch
		e.cache.put(key, gridOf(p.od.External), ev.Seconds, inst.gen, p.looked)
	}
	ev.SnapshotID = inst.snap.ID
	return ev
}

// execute runs the two stages that call out of the engine, back to back:
// infer.match (map matching, then the traffic source's override of the
// external features) and infer.model (the snapshot's forward). A panic in
// either fails the stage it happened in.
func (e *Engine) execute(ctx context.Context, inst *installed, p *pendingJob) (sec float64, err error) {
	mctx, span := e.reg.StartSpan(ctx, stageMatch)
	defer e.contained(&err, &span)
	if p.matched, err = e.cfg.Match(mctx, p.od); err != nil {
		span.Fail(err)
		span.End()
		return 0, &MatchError{Err: err}
	}
	if e.cfg.Traffic != nil {
		// The live view is authoritative at estimate time; it falls back to
		// the training-time prior internally when cold or stale, so matched
		// never loses its features entirely.
		p.matched.External, p.live = e.cfg.Traffic.External(p.od.DepartSec)
	}
	// span becomes infer.model: the span contained fails from here on.
	ectx, span := span.Next(ctx, stageModel)
	sec = inst.snap.Estimate(ectx, &p.matched)
	span.End()
	return sec, nil
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
