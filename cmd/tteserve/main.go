// Command tteserve exposes OD travel-time estimation over HTTP — the
// paper's "online estimation" stage (Algorithm 1) as a service. It either
// loads a model saved by ttetrain or trains one at startup, then routes
// all estimate traffic through the inference engine (internal/infer):
// bounded admission queue with load shedding, per-worker micro-batching,
// a sharded LRU+TTL estimate cache, and hot model reload.
//
//	tteserve -city chengdu-s -model model.gob -addr :8080
//
//	POST /estimate
//	{"origin":{"X":500,"Y":700},"dest":{"X":1900,"Y":2100},"depart_sec":36000}
//	→ {"travel_seconds":412.7,"travel_human":"6m52s","model":"8c7e12ab90ff"}
//
//	GET  /healthz      → {"status":"ok", ...} (liveness)
//	GET  /readyz       → 200 when serving, 503 while not ready (readiness)
//	GET  /version      → live model snapshot hash, engine config, build info
//	POST /reload       → re-read -model from disk and atomically swap it in
//	GET  /metrics      → Prometheus text exposition (see README "Observability")
//	GET  /debug/traces → tail-sampled request traces as JSON
//	GET  /debug/slo    → SLO status: per-objective SLI, error budget, burn rates
//	GET  /debug/alerts → firing alerts and transition history
//	POST /probes       → NDJSON GPS probe firehose feeding the live traffic store (with -traffic)
//	GET  /debug/traffic → live traffic pipeline state: probes, coverage, epoch (with -traffic)
//	GET  /debug/recorder → flight-recorder wide events + segment downloads (with -recorder)
//	GET  /debug/metrics/history → queryable in-process metric history (with -telemetry)
//
// With -telemetry (default on) a history sampler ticks the metrics
// registry every -telemetry-interval into per-series bounded rings (a raw
// tier plus a coarse long-horizon tier), queryable at
// /debug/metrics/history?series=...&range=...&agg=.... With -exemplars,
// histogram observations on traced requests carry their trace ID:
// /metrics?exemplars=1 exposes them in OpenMetrics exemplar syntax and
// /debug/metrics/history returns them next to each series, resolvable at
// /debug/traces?trace=<id>.
//
// The quality monitor (-quality) and the flight recorder (-recorder) are
// the engine's observers: every /estimate the engine handles ends in one
// event, which the monitor stamps with the prediction ID the response
// echoes (answers only) and the recorder offers to its capture policy.
//
// With -recorder, every served estimate is offered to the flight recorder:
// errors and shed requests are always captured, the slowest N per window
// and a -recorder-sample fraction of the rest ride along, and with
// -recorder-dir the captures append to rotating JSONL segment files that
// ttereplay can re-execute offline against a checkpoint.
//
// With -traffic, GPS probes posted to /probes stream through incremental
// map matching into a sharded per-edge speed store; the engine then reads
// the live speed field (merged over the training-time prior) at estimate
// time, falling back to the prior whenever the store is cold or the
// requested departure is far from the probe high-water mark
// (-traffic-stale-sec). The -traffic-* flags tune workers, windowing,
// decay, coverage and staleness.
//
// With -slo (default on) the SLO engine evaluates burn-rate alert rules
// over the built-in objectives (availability, latency, shed rate of
// /estimate) every -slo-interval; -slo-config swaps in custom objectives
// and rules, and -burn-fast tunes the default page rule. The quality
// monitor's drift alert routes through the same manager.
//
// Every request is traced: the trace ID is taken from X-Trace-Id (or
// generated), echoed in the response, stamped on every log line, and the
// slowest / errored traces are retained at /debug/traces. Logging is
// structured (log/slog): error responses always log, success access logs
// are sampled with -log-every.
//
// SIGHUP triggers the same reload as POST /reload. Errors are JSON:
// {"error": "..."}. With -debug-addr, net/http/pprof is served on a
// separate mux so profiling is never exposed on the public listener: that
// is where CPU, heap and goroutine profiles come from.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"deepod"
	"deepod/internal/core"
	"deepod/internal/infer"
	"deepod/internal/mapmatch"
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/recorder"
	"deepod/internal/roadnet"
	"deepod/internal/serve"
	"deepod/internal/slo"
	"deepod/internal/telemetry"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// modelEstimator adapts *core.Model to the Estimator interface for the
// startup-train reference-distribution pass.
type modelEstimator struct{ m *core.Model }

func (e *modelEstimator) Name() string                          { return "DeepOD" }
func (e *modelEstimator) Estimate(od *deepod.MatchedOD) float64 { return e.m.Estimate(od) }

// alertSinkOrNil keeps a nil *slo.Manager from becoming a non-nil
// AlertSink interface on the quality config.
func alertSinkOrNil(m *slo.Manager) quality.AlertSink {
	if m == nil {
		return nil
	}
	return m
}

func main() {
	var (
		city      = flag.String("city", "chengdu-s", "city preset")
		orders    = flag.Int("orders", 1200, "orders used if training at startup")
		seed      = flag.Int64("seed", 1, "random seed")
		modelPath = flag.String("model", "", "model saved by ttetrain (empty = train at startup)")
		trainWork = flag.Int("train-workers", runtime.GOMAXPROCS(0), "data-parallel workers for startup training; 1 = serial")
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		maxBody   = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "maximum /estimate body bytes")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown drain timeout")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logEvery  = flag.Int("log-every", 1, "sample success access logs: log every Nth 2xx/3xx request (errors always log)")
		logSpans  = flag.Bool("log-spans", false, "log every pipeline span (verbose)")

		workers      = flag.Int("workers", 0, "bound on concurrent engine executions, and the worker pool's size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 256, "engine admission queue depth (full queue sheds 429)")
		maxBatch     = flag.Int("batch", 16, "max requests per worker micro-batch; batches of 2+ are served by one fused [B×d] forward, bit-identical to per-request estimates")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max queue wait before shedding 503")
		cacheEntries = flag.Int("cache", 8192, "estimate cache capacity in entries (0 = disabled)")
		cacheTTL     = flag.Duration("cache-ttl", 5*time.Minute, "estimate cache entry lifetime")
		cacheCell    = flag.Float64("cache-cell", 250, "spatial quantization cell for cache keys, meters")

		trafficOn      = flag.Bool("traffic", false, "live traffic: POST /probes GPS firehose → incremental map matching → edge-speed store feeding serving-time features")
		trafficWorkers = flag.Int("traffic-workers", 1, "probe map-matching workers (vehicles are hash-partitioned across them)")
		trafficWindowS = flag.Float64("traffic-window-sec", 60, "edge-speed aggregation window, sim seconds")
		trafficWindows = flag.Int("traffic-windows", 5, "speed windows retained per edge (ring)")
		trafficDecay   = flag.Float64("traffic-decay", 0.7, "age-decay multiplier applied per window of staleness")
		trafficStaleS  = flag.Float64("traffic-stale-sec", 600, "live speeds further than this from the requested departure fall back to the training-time prior")
		trafficMinCov  = flag.Float64("traffic-min-coverage", 0.02, "edge-coverage fraction below which estimates keep using the prior")
		trafficCell    = flag.Float64("traffic-cell", 250, "live feature grid cell, meters (must match the model's speed grid)")
		trafficTTLS    = flag.Float64("traffic-session-ttl-sec", 300, "idle vehicle-session eviction TTL, sim seconds")
		trafficMaxBody = flag.Int64("traffic-max-body", serve.DefaultProbeMaxBodyBytes, "maximum /probes body bytes")

		traceCap     = flag.Int("trace-capacity", 512, "retained trace ring-buffer size")
		traceSlowest = flag.Int("trace-slowest", 16, "always retain the slowest N traces per window")
		traceWindow  = flag.Duration("trace-window", 10*time.Second, "slowest-N rotation window")
		traceSample  = flag.Float64("trace-sample", 0.01, "probability of retaining a normal (non-error, non-slow) trace")

		runtimeEvery = flag.Duration("runtime-stats", 10*time.Second, "runtime stats (goroutines, heap, GC) sampling period; 0 disables")

		qualityOn      = flag.Bool("quality", true, "online model-quality monitoring: stamp predictions, accept POST /feedback, serve GET /debug/quality")
		qualityWindow  = flag.Duration("quality-window", time.Minute, "quality metric aggregation window")
		pendingTTL     = flag.Duration("pending-ttl", 10*time.Minute, "how long a stamped prediction waits for feedback before expiring")
		driftThreshold = flag.Float64("drift-threshold", 0.2, "PSI above which the error distribution counts as drifted")

		recorderOn        = flag.Bool("recorder", false, "flight recorder: capture a wide event per served estimate, GET /debug/recorder")
		recorderDir       = flag.String("recorder-dir", "", "mirror captured wide events to JSONL segment files in this directory (empty = in-memory only)")
		recorderSample    = flag.Float64("recorder-sample", 0.01, "probability of capturing a normal (non-error, non-slow) estimate; errors and shed requests are always captured")
		recorderCap       = flag.Int("recorder-capacity", 4096, "in-memory wide-event ring size, events")
		recorderSlowest   = flag.Int("recorder-slowest", 16, "always capture the slowest N estimates per capture window")
		recorderSegEvents = flag.Int("recorder-segment-events", 4096, "rotate the on-disk segment file after this many events")
		recorderSegments  = flag.Int("recorder-segments", 8, "segment files retained on disk (oldest deleted beyond this)")

		telemetryOn       = flag.Bool("telemetry", true, "history sampler: in-process metric history at /debug/metrics/history")
		telemetryInterval = flag.Duration("telemetry-interval", 10*time.Second, "history sampling period (raw tier)")
		exemplarsOn       = flag.Bool("exemplars", false, "attach trace-ID exemplars to histogram observations (exposed at /metrics?exemplars=1 and in /debug/metrics/history)")

		sloOn       = flag.Bool("slo", true, "SLO engine: burn-rate alerting over the built-in objectives, GET /debug/slo and /debug/alerts")
		sloConfig   = flag.String("slo-config", "", "JSON file with custom SLO objectives and burn rules (empty = built-in defaults)")
		sloInterval = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation period (a -slo-config interval_sec overrides)")
		burnFast    = flag.Float64("burn-fast", 14.4, "fast-window burn-rate threshold for the default page rule")
	)
	flag.Parse()

	// Structured logging: every line carries trace_id when the context
	// does, which is how a log line is joined to its /debug/traces entry.
	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(obs.NewTraceHandler(h)).With("app", "tteserve")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	c, err := deepod.BuildCity(*city, deepod.CityOptions{Orders: *orders, Seed: *seed})
	if err != nil {
		fatal("building city", err)
	}
	var snap *infer.Snapshot
	if *modelPath != "" {
		snap, err = infer.LoadCheckpoint(*modelPath, c.Graph)
		if err != nil {
			fatal("loading checkpoint", err)
		}
		logger.Info("model loaded", "model", snap.ID, "path", *modelPath)
	} else {
		logger.Info("training model at startup", "orders", *orders, "train_workers", *trainWork)
		cfg := deepod.SmallConfig()
		cfg.TrainWorkers = *trainWork
		m, err := deepod.Train(cfg, c, nil)
		if err != nil {
			fatal("startup training", err)
		}
		// A startup-trained model has no checkpoint to carry a drift
		// reference, so record its test-split error distribution here.
		m.SetRefDist(deepod.ErrorRefDist(&modelEstimator{m}, c.Split.Test))
		snap = infer.ModelSnapshot(fmt.Sprintf("startup-train-seed%d", *seed), m)
	}
	// tte_build_info: constant-1 gauge whose labels identify this binary
	// and the checkpoint it serves — dashboards join it to split any panel
	// by deploy. The same fields appear in GET /version.
	obs.RegisterBuildInfo(nil, "model", snap.ID, "city", c.Name)

	matcher, err := deepod.NewMatcher(c.Graph)
	if err != nil {
		fatal("building matcher", err)
	}
	match := func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
		return deepod.MatchODCtx(ctx, matcher, od)
	}

	if *logSpans {
		obs.SetSpanLogger(func(name, parent string, d time.Duration) {
			if parent != "" {
				name = parent + ">" + name
			}
			logger.Debug("span", "span", name, "dur", d.Round(time.Microsecond))
		})
		// Span logging is Debug-level; re-build the logger so it shows.
		opts := &slog.HandlerOptions{Level: slog.LevelDebug}
		if *logJSON {
			h = slog.NewJSONHandler(os.Stderr, opts)
		} else {
			h = slog.NewTextHandler(os.Stderr, opts)
		}
		logger = slog.New(obs.NewTraceHandler(h)).With("app", "tteserve")
	}

	if *runtimeEvery > 0 {
		stopRuntime := obs.StartRuntimeStats(nil, *runtimeEvery)
		defer stopRuntime()
	}
	traces := obs.NewTraceStore(nil, obs.TraceStoreConfig{
		Capacity:   *traceCap,
		SlowestN:   *traceSlowest,
		Window:     *traceWindow,
		SampleRate: *traceSample,
	})

	// Telemetry history: the sampler ticks the default registry into
	// bounded per-series rings. Exemplars are process-global: once on,
	// traced requests stamp their trace ID onto histogram observations.
	obs.SetExemplars(*exemplarsOn)
	var history *telemetry.History
	if *telemetryOn {
		history, err = telemetry.NewHistory(telemetry.Config{
			Interval: *telemetryInterval,
			Logger:   logger,
		})
		if err != nil {
			fatal("building telemetry history", err)
		}
		history.Start()
		defer history.Close()
	}

	// The SLO/alerting layer is assembled before the engine branch so the
	// quality monitor can route its drift alert through the same manager.
	var (
		alertMgr *slo.Manager
		sloEval  *slo.Evaluator
	)
	if *sloOn {
		alertMgr = slo.NewManager(slo.ManagerConfig{Logger: logger})
		objectives := slo.DefaultObjectives()
		rules := slo.DefaultRules(*burnFast)
		interval := *sloInterval
		if *sloConfig != "" {
			var cfgInterval time.Duration
			objectives, rules, cfgInterval, err = slo.LoadConfig(*sloConfig)
			if err != nil {
				fatal("loading SLO config", err)
			}
			if cfgInterval > 0 {
				interval = cfgInterval
			}
		}
		sloEval, err = slo.New(slo.Config{
			Objectives: objectives,
			Rules:      rules,
			Interval:   interval,
			Manager:    alertMgr,
			Logger:     logger,
		})
		if err != nil {
			fatal("building SLO evaluator", err)
		}
		sloEval.Start()
		defer sloEval.Close()
	}

	bounds := c.Graph.Bounds()
	scfg := serve.Config{
		City:   c.Name,
		Bounds: &bounds,
		Health: map[string]any{
			"edges": c.Graph.NumEdges(),
			"model": snap.ID,
		},
		MaxBodyBytes:   *maxBody,
		Logger:         logger,
		AccessLogEvery: *logEvery,
		Traces:         traces,
		SLO:            sloEval,
		Alerts:         alertMgr,
		History:        history,
	}

	scfg.External = c.Grid.External
	cells, err := roadnet.NewEdgeIndex(c.Graph, *cacheCell)
	if err != nil {
		fatal("building cache quantizer", err)
	}
	var mon *quality.Monitor
	if *qualityOn {
		mon = quality.New(quality.Config{
			Window:         *qualityWindow,
			PendingTTL:     *pendingTTL,
			DriftThreshold: *driftThreshold,
			Reference:      snap.RefDist,
			ReferenceModel: snap.ID,
			Cells:          cells, // same quantizer as the estimate cache
			Slotter:        snap.Slotter,
			Logger:         logger,
			Alerts:         alertSinkOrNil(alertMgr),
		})
		if snap.RefDist == nil {
			logger.Info("quality: no reference error distribution in the model; drift detection off until a reload provides one")
		}
	}
	// Live traffic pipeline: probes posted to /probes flow through
	// incremental map matching into the edge-speed store; the engine
	// reads the merged live/prior speed field at estimate time.
	var liveTraffic *traffic.FeatureSource
	if *trafficOn {
		store, err := traffic.NewStore(c.Graph, traffic.StoreConfig{
			WindowSec: *trafficWindowS,
			Windows:   *trafficWindows,
			Decay:     *trafficDecay,
		})
		if err != nil {
			fatal("building traffic store", err)
		}
		ing, err := traffic.NewIngestor(matcher, store, traffic.IngestConfig{
			Workers: *trafficWorkers,
			Tracker: mapmatch.TrackerConfig{SessionTTLSec: *trafficTTLS},
		})
		if err != nil {
			fatal("building traffic ingestor", err)
		}
		defer ing.Close()
		liveTraffic, err = traffic.NewFeatureSource(c.Graph, store, c.Grid.External, traffic.FeatureConfig{
			CellMeters:    *trafficCell,
			MinCoverage:   *trafficMinCov,
			StaleAfterSec: *trafficStaleS,
		})
		if err != nil {
			fatal("building traffic feature source", err)
		}
		scfg.Probes = ing
		scfg.TrafficStatus = ing.Status
		scfg.ProbeMaxBodyBytes = *trafficMaxBody
		logger.Info("live traffic ingestion on",
			"workers", *trafficWorkers,
			"window_sec", *trafficWindowS,
			"windows", *trafficWindows,
			"stale_sec", *trafficStaleS,
			"min_coverage", *trafficMinCov,
		)
	}
	// Flight recorder: one wide event per served estimate, policy-
	// sampled, mirrored to disk with -recorder-dir so a recorded
	// session can be replayed offline by ttereplay.
	var flight *recorder.Recorder
	if *recorderOn {
		flight, err = recorder.New(recorder.Config{
			Capacity:      *recorderCap,
			SlowestN:      *recorderSlowest,
			SampleRate:    *recorderSample,
			Cells:         cells, // same quantizer as the estimate cache
			Slotter:       snap.Slotter,
			Dir:           *recorderDir,
			SegmentEvents: *recorderSegEvents,
			MaxSegments:   *recorderSegments,
			Meta:          map[string]string{"city": c.Name, "model": snap.ID},
		})
		if err != nil {
			fatal("building flight recorder", err)
		}
		defer flight.Close()
		scfg.Recorder = flight
		logger.Info("flight recorder on",
			"sample", *recorderSample,
			"capacity", *recorderCap,
			"dir", *recorderDir,
		)
	}
	engCfg := infer.Config{
		Match:        match,
		Snapshot:     snap,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		MaxBatch:     *maxBatch,
		QueueTimeout: *queueTimeout,
		CacheEntries: *cacheEntries,
		CacheTTL:     *cacheTTL,
		Cells:        cells,
		Slotter:      snap.Slotter,
	}
	// The monitor goes first: it stamps the answer before the recorder
	// captures the same event. Appended only when built, so a nil pointer
	// never becomes a non-nil Observer.
	if mon != nil {
		engCfg.Observers = append(engCfg.Observers, mon)
	}
	if flight != nil {
		engCfg.Observers = append(engCfg.Observers, flight)
	}
	if liveTraffic != nil {
		// Assigned conditionally so a nil *FeatureSource never becomes
		// a non-nil TrafficSource interface.
		engCfg.Traffic = liveTraffic
	}
	eng, err := infer.New(engCfg)
	if err != nil {
		fatal("building engine", err)
	}
	defer eng.Close()
	scfg.Infer = eng.Do
	scfg.Version = eng.Version
	scfg.Ready = eng.Readiness
	scfg.Quality = mon

	reload := func(ctx context.Context) (map[string]any, error) {
		if *modelPath == "" {
			return nil, fmt.Errorf("server was started without -model; nothing to reload from")
		}
		next, err := infer.LoadCheckpointCtx(ctx, *modelPath, c.Graph)
		if err != nil {
			eng.RecordReloadFailure(err)
			return nil, err
		}
		prev, err := eng.SwapCtx(ctx, next)
		if err != nil {
			eng.RecordReloadFailure(err)
			return nil, err
		}
		if mon != nil {
			// Pending predictions from the old model still join (their
			// entries carry the old generation); only the drift baseline
			// follows the new checkpoint.
			mon.SetReference(next.RefDist, next.ID)
		}
		logger.InfoContext(ctx, "model reloaded", "model", next.ID, "previous", prev.ID)
		return map[string]any{"model": next.ID, "previous": prev.ID}, nil
	}
	scfg.Reload = reload

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, err := reload(context.Background()); err != nil {
				logger.Error("SIGHUP reload failed", "err", err)
			}
		}
	}()
	logger.Info("engine ready",
		"workers", eng.Version()["workers"],
		"queue", *queueDepth,
		"batch", *maxBatch,
		"cache_entries", *cacheEntries,
		"cache_ttl", *cacheTTL,
		"cache_cell_m", *cacheCell,
	)

	srv, err := serve.New(scfg)
	if err != nil {
		fatal("building server", err)
	}

	if *debugAddr != "" {
		go func() {
			dmux := http.NewServeMux()
			dmux.HandleFunc("/debug/pprof/", pprof.Index)
			dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
			logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", *debugAddr))
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hsrv := serve.NewHTTPServer(*addr, srv.Handler())
	logger.Info("serving", "city", *city, "addr", *addr, "metrics", "/metrics", "traces", "/debug/traces")
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	if err := serve.ListenAndServe(ctx, hsrv, *grace, logf); err != nil {
		fatal("server", err)
	}
	logger.Info("bye")
}
