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
//	POST /probes       → NDJSON GPS probe firehose feeding the live traffic store (with -traffic)
//	GET  /debug/traffic → live traffic pipeline state: probes, coverage, epoch (with -traffic)
//	GET  /debug/recorder → flight-recorder wide events + segment downloads (with -recorder)
//
// /metrics reads the runtime gauges when it is scraped; no goroutine
// samples the process between scrapes. With
// -exemplars, histogram observations on traced requests carry their trace
// ID: /metrics?exemplars=1 exposes them in OpenMetrics exemplar syntax,
// resolvable at /debug/traces?trace=<id>.
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
// requested departure is far from the probe high-water mark. Only the
// worker count is a flag (-traffic-workers): windowing, decay, coverage,
// staleness and the session TTL are internal/traffic's and
// internal/mapmatch's defaults, and the live grid is the city's speed grid.
//
// The process evaluates no alert. The service-level objectives
// (availability, latency and shed rate of /estimate) and the quality
// monitor's drift are Prometheus rules over /metrics, committed in
// deploy/alerts.rules.json.
//
// Every request is traced: the trace ID is taken from X-Trace-Id (or
// generated), echoed in the response, stamped on every log line, and the
// slowest / errored traces and a -trace-sample fraction of the rest are
// retained at /debug/traces. Logging is structured (log/slog): every
// request logs its access line, errors at Warn or Error.
//
// A flag exists only where deployments differ: what is served and where
// (-city -orders -seed -model -train-workers -addr -debug-addr
// -recorder-dir -log-json -grace), which subsystems run
// (-traffic -quality -recorder -exemplars), and the sizes
// and rates fitted to the host or the traffic (-workers -cache
// -traffic-workers -trace-sample -recorder-sample).
// Every other setting is the default of the package that applies it.
//
// SIGHUP triggers the same reload as POST /reload. Errors are JSON:
// {"error": "..."}. With -debug-addr, net/http/pprof is served on a
// separate mux so profiling is never exposed on the public listener: that
// is where CPU, heap and goroutine profiles come from.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/recorder"
	"deepod/internal/roadnet"
	"deepod/internal/serve"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// gridCellMeters is the grid cell the engine stamps each request's
// endpoints on for its observers: the quality monitor's heatmap and the
// flight recorder's event cells.
const gridCellMeters = 250

// trainAtStartup trains the model tteserve serves when no -model is given
// and refuses a collapsed one, as ttetrain refuses to save it: a model that
// answers about one number for every OD is not worth serving.
func trainAtStartup(cfg deepod.Config, c *deepod.City, seed int64) (*infer.Snapshot, error) {
	m, stats, err := deepod.TrainWithStats(cfg, c, nil)
	if err != nil {
		return nil, err
	}
	if err := stats.CollapseError(); err != nil {
		return nil, err
	}
	// A startup-trained model has no checkpoint to carry a drift
	// reference, so record its test-split error distribution here.
	m.SetRefDist(deepod.ErrorRefDist(&modelEstimator{m}, c.Split.Test))
	return infer.ModelSnapshot(fmt.Sprintf("startup-train-seed%d", seed), m), nil
}

// modelEstimator adapts *core.Model to the Estimator interface for the
// startup-train reference-distribution pass.
type modelEstimator struct{ m *core.Model }

func (e *modelEstimator) Name() string                          { return "DeepOD" }
func (e *modelEstimator) Estimate(od *deepod.MatchedOD) float64 { return e.m.Estimate(od) }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, serves until ctx is cancelled and returns the exit
// status: 0 after a clean drain (or -h), 1 when set-up or serving fails,
// 2 on a bad command line. Logs go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("tteserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		city      = fs.String("city", "chengdu-s", "city preset")
		orders    = fs.Int("orders", 1200, "orders used if training at startup")
		seed      = fs.Int64("seed", 1, "random seed")
		modelPath = fs.String("model", "", "model saved by ttetrain (empty = train at startup)")
		trainWork = fs.Int("train-workers", runtime.GOMAXPROCS(0), "data-parallel workers for startup training; 1 = serial")
		addr      = fs.String("addr", ":8080", "listen address")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		grace     = fs.Duration("grace", 10*time.Second, "shutdown drain timeout (fit it inside the orchestrator's kill timeout)")
		logJSON   = fs.Bool("log-json", false, "emit logs as JSON instead of text")

		workers      = fs.Int("workers", 0, "bound on concurrent engine executions, and the worker pool's size (0 = GOMAXPROCS)")
		cacheEntries = fs.Int("cache", 8192, "estimate cache capacity in entries (0 = disabled)")

		trafficOn      = fs.Bool("traffic", false, "live traffic: POST /probes GPS firehose → incremental map matching → edge-speed store feeding serving-time features")
		trafficWorkers = fs.Int("traffic-workers", 1, "probe map-matching workers (vehicles are hash-partitioned across them)")

		traceSample = fs.Float64("trace-sample", 0.01, "probability of retaining a normal (non-error, non-slow) trace")

		qualityOn = fs.Bool("quality", true, "online model-quality monitoring: stamp predictions, accept POST /feedback, serve GET /debug/quality")

		recorderOn     = fs.Bool("recorder", false, "flight recorder: capture a wide event per served estimate, GET /debug/recorder")
		recorderDir    = fs.String("recorder-dir", "", "mirror captured wide events to JSONL segment files in this directory (empty = in-memory only)")
		recorderSample = fs.Float64("recorder-sample", 0.01, "probability of capturing a normal (non-error, non-slow) estimate; errors and shed requests are always captured")

		exemplarsOn = fs.Bool("exemplars", false, "attach trace-ID exemplars to histogram observations (exposed at /metrics?exemplars=1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Structured logging: every line carries trace_id when the context
	// does, which is how a log line is joined to its /debug/traces entry.
	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(stderr, nil)
	} else {
		h = slog.NewTextHandler(stderr, nil)
	}
	logger := slog.New(obs.NewTraceHandler(h)).With("app", "tteserve")
	fail := func(msg string, err error) int {
		logger.Error(msg, "err", err)
		return 1
	}

	c, err := deepod.BuildCity(*city, deepod.CityOptions{Orders: *orders, Seed: *seed})
	if err != nil {
		return fail("building city", err)
	}
	var snap *infer.Snapshot
	if *modelPath != "" {
		snap, err = infer.LoadCheckpoint(*modelPath, c.Graph)
		if err != nil {
			return fail("loading checkpoint", err)
		}
		logger.Info("model loaded", "model", snap.ID, "path", *modelPath)
	} else {
		logger.Info("training model at startup", "orders", *orders, "train_workers", *trainWork)
		cfg := deepod.SmallConfig()
		cfg.TrainWorkers = *trainWork
		snap, err = trainAtStartup(cfg, c, *seed)
		if err != nil {
			return fail("startup training", err)
		}
	}
	// tte_build_info: constant-1 gauge whose labels identify this binary
	// and the checkpoint it serves — dashboards join it to split any panel
	// by deploy. The same fields appear in GET /version.
	obs.RegisterBuildInfo(nil, "model", snap.ID, "city", c.Name)

	matcher, err := deepod.NewMatcher(c.Graph)
	if err != nil {
		return fail("building matcher", err)
	}
	match := func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
		return deepod.MatchODCtx(ctx, matcher, od)
	}

	traces := obs.NewTraceStore(nil, obs.TraceStoreConfig{SampleRate: *traceSample})

	// Exemplars are process-global: once on, traced requests stamp their
	// trace ID onto histogram observations.
	obs.SetExemplars(*exemplarsOn)

	bounds := c.Graph.Bounds()
	scfg := serve.Config{
		City:   c.Name,
		Bounds: &bounds,
		Health: map[string]any{
			"edges": c.Graph.NumEdges(),
			"model": snap.ID,
		},
		Logger: logger,
		Traces: traces,
	}

	scfg.External = c.Grid.External
	cells, err := roadnet.NewEdgeIndex(c.Graph, gridCellMeters)
	if err != nil {
		return fail("building the event grid", err)
	}
	var mon *quality.Monitor
	if *qualityOn {
		mon = quality.New(quality.Config{
			Reference:      snap.RefDist,
			ReferenceModel: snap.ID,
			Logger:         logger,
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
		store, err := traffic.NewStore(c.Graph, traffic.StoreConfig{})
		if err != nil {
			return fail("building traffic store", err)
		}
		ing, err := traffic.NewIngestor(matcher, store, traffic.IngestConfig{Workers: *trafficWorkers})
		if err != nil {
			return fail("building traffic ingestor", err)
		}
		defer ing.Close()
		liveTraffic, err = traffic.NewFeatureSource(c.Graph, store, c.Grid.External, traffic.FeatureConfig{})
		if err != nil {
			return fail("building traffic feature source", err)
		}
		scfg.Probes = ing
		scfg.TrafficStatus = ing.Status
		logger.Info("live traffic ingestion on", "workers", *trafficWorkers)
	}
	// Flight recorder: one wide event per served estimate, policy-
	// sampled, mirrored to disk with -recorder-dir so a recorded
	// session can be replayed offline by ttereplay.
	var flight *recorder.Recorder
	if *recorderOn {
		flight, err = recorder.New(recorder.Config{
			SampleRate: *recorderSample,
			Dir:        *recorderDir,
			Meta:       map[string]string{"city": c.Name, "model": snap.ID},
		})
		if err != nil {
			return fail("building flight recorder", err)
		}
		defer flight.Close()
		scfg.Recorder = flight
		logger.Info("flight recorder on", "sample", *recorderSample, "dir", *recorderDir)
	}
	engCfg := infer.Config{
		Match:        match,
		Snapshot:     snap,
		Workers:      *workers,
		CacheEntries: *cacheEntries,
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
		return fail("building engine", err)
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
	defer signal.Stop(hup)
	hupCtx, stopHup := context.WithCancel(ctx)
	defer stopHup()
	go func() {
		for {
			select {
			case <-hup:
				if _, err := reload(hupCtx); err != nil {
					logger.Error("SIGHUP reload failed", "err", err)
				}
			case <-hupCtx.Done():
				return
			}
		}
	}()
	v := eng.Version()
	logger.Info("engine ready",
		"workers", v["workers"],
		"queue", v["queue_depth"],
		"batch", v["max_batch"],
		"cache_entries", v["cache_entries"],
		"cache_ttl", v["cache_ttl"],
	)

	srv, err := serve.New(scfg)
	if err != nil {
		return fail("building server", err)
	}

	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		defer dsrv.Close()
		go func() {
			logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", *debugAddr))
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	hsrv := serve.NewHTTPServer(*addr, srv.Handler())
	logger.Info("serving", "city", *city, "addr", *addr, "metrics", "/metrics", "traces", "/debug/traces")
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	if err := serve.ListenAndServe(ctx, hsrv, *grace, logf); err != nil {
		return fail("server", err)
	}
	logger.Info("bye")
	return 0
}
