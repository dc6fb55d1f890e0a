// Package serve implements the tteserve HTTP API — the paper's online
// estimation stage (Algorithm 1) as a long-lived service. It is split out
// of cmd/tteserve so the routes can be exercised with httptest against
// stubs: the Server answers /estimate through one callback, Config.Infer
// (infer.Engine.Do in tteserve and bench, a stub func in tests), never
// through a trained model of its own.
//
// Routes:
//
//	POST /estimate      JSON OD input → travel time estimate
//	POST /probes        NDJSON GPS probe firehose → live traffic state (when Config.Probes set)
//	POST /feedback      ground-truth travel time for a served prediction
//	GET  /healthz       liveness + model summary
//	GET  /readyz        readiness: 503 until a snapshot serves (k8s-style)
//	GET  /version       live model snapshot, engine config and build info
//	POST /reload        hot-swap the model checkpoint (when wired)
//	GET  /metrics       Prometheus text exposition of the obs registry, the
//	     runtime gauges (obs.CollectRuntime) read at scrape time
//	GET  /debug/traces  tail-sampled request traces (when Config.Traces set)
//	GET  /debug/quality model-quality state (when Config.Quality set)
//	GET  /debug/traffic live traffic-store state: probes, coverage, epoch
//	     (when Config.TrafficStatus set)
//	GET  /debug/recorder flight-recorder wide events (filters: generation,
//	     epoch, errors, minDur, limit); /debug/recorder/segments lists and
//	     /debug/recorder/segments/<name> downloads on-disk segments (when
//	     Config.Recorder set)
//
// Every /debug/* JSON response is wrapped by a shared envelope: a
// generated_at timestamp is spliced in as the first field, Content-Type is
// uniformly application/json, and errors share the {"error": "..."} shape.
// Non-JSON debug bodies (segment downloads) pass through verbatim.
//
// Every route is wrapped with obs.Middleware (request counters by status
// class, latency histograms, in-flight gauge, request logging), /estimate
// bodies are size-capped, and all errors are JSON: {"error": "..."}.
//
// When Config.Traces is set every request is traced: the trace ID comes
// from the X-Trace-Id header (or is generated) and is echoed in the
// response, handler stages become spans in the request's tree, and the
// finished trace is tail-sampled into the store behind /debug/traces.
// With Config.Logger set, requests are logged via slog — errors always,
// successes sampled — correlated to traces by trace_id.
//
// /estimate decodes and validates the body, then hands the OD to
// Config.Infer, whose errors map onto HTTP: ErrOverloaded → 429 and
// ErrQueueTimeout → 503 (both with Retry-After), MatchError → 422,
// ErrInvalidInput → 400, ErrInternal (a panic the engine contained) → 500.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/obs"
	"deepod/internal/quality"
	"deepod/internal/recorder"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// The handlers' stages, beside the engine's under each route's root span.
var (
	stageDecode = obs.NewStage("decode")
	stageIngest = obs.NewStage("ingest")
	stageJoin   = obs.NewStage("quality.join")
)

// DefaultMaxBodyBytes caps /estimate request bodies (1 MiB; a valid OD
// request is under 200 bytes).
const DefaultMaxBodyBytes = 1 << 20

// Config assembles a Server from its dependencies.
type Config struct {
	// City names the served city (reported by /healthz).
	City string
	// Infer answers one validated OD (infer.Engine.Do): matching, batching,
	// caching and admission control all live behind it. Required. The
	// context carries the request's trace.
	Infer func(ctx context.Context, od traj.ODInput) (infer.Result, error)
	// Bounds, when non-nil, rejects estimate requests whose origin or
	// destination falls outside the road network's bounding box with 400
	// before they reach map matching.
	Bounds *geo.Rect
	// Version adds live-model fields (snapshot ID, generation, engine
	// config — infer.Engine.Version) to the /version payload. Optional.
	Version func() map[string]any
	// Reload hot-swaps the serving model; its map is echoed in the
	// /reload response. Optional; when nil the route answers 501. The
	// context carries the request's trace so checkpoint-load and swap
	// spans land in the reload trace.
	Reload func(ctx context.Context) (map[string]any, error)
	// Ready reports whether the server should receive traffic, with a
	// detail payload for /readyz (infer.Engine.Readiness). Optional; when
	// nil /readyz always answers 200 (without an engine there is no
	// load/reload lifecycle to gate on).
	Ready func() (bool, map[string]any)
	// External resolves the external features (weather, speed grid) for a
	// departure time. Optional; nil means no external features.
	External func(departSec float64) *traj.ExternalFeatures
	// Validate checks an OD before External resolves its features
	// (infer.Engine.Validate): an OD it refuses answers as Infer's error
	// would, and builds or looks up no speed matrix. Optional.
	Validate func(od traj.ODInput) error
	// Health adds static fields to the /healthz payload (edge count,
	// weight count, ...). Optional.
	Health map[string]any
	// MaxBodyBytes caps /estimate bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Registry receives the HTTP metrics and serves /metrics (default
	// obs.Default()).
	Registry *obs.Registry
	// Logger, when non-nil, emits structured request logs (5xx at Error,
	// 4xx at Warn, 2xx/3xx at Info), correlated to traces when its handler
	// wraps obs.TraceHandler.
	Logger *slog.Logger
	// Traces, when non-nil, enables request tracing and mounts the store's
	// handler at /debug/traces.
	Traces *obs.TraceStore
	// Quality, when non-nil, accepts ground-truth feedback at POST
	// /feedback and serves the model-quality state at GET /debug/quality.
	// The prediction IDs feedback joins against are stamped at the engine,
	// where the monitor is one of infer.Config.Observers.
	Quality *quality.Monitor
	// Probes, when non-nil, accepts the GPS probe firehose at POST /probes
	// (NDJSON, one probe per line). Implemented by traffic.Ingestor. A nil
	// sink leaves the route answering 501 — ingestion disabled.
	Probes ProbeSink
	// ProbeMaxBodyBytes caps /probes bodies (default
	// DefaultProbeMaxBodyBytes; firehose bodies are much larger than OD
	// requests).
	ProbeMaxBodyBytes int64
	// TrafficStatus, when non-nil, reports the live traffic pipeline's
	// state: it is served raw at GET /debug/traffic and merged into the
	// /readyz payload under "traffic" — warm-up visibility that never flips
	// readiness (a replica without probes still serves from the prior).
	TrafficStatus func() map[string]any
	// Recorder, when non-nil, serves the flight recorder's wide events at
	// GET /debug/recorder and its on-disk segments at
	// /debug/recorder/segments[/<name>]. Capture itself is wired at the
	// engine (one of infer.Config.Observers); the server only exposes it.
	Recorder *recorder.Recorder
}

// ProbeSink ingests a parsed probe batch, returning how many probes were
// accepted vs shed by the bounded ingest queue. Must be safe for concurrent
// use, and must not keep batch past the call: the handler reuses it.
// Implemented by traffic.Ingestor.
type ProbeSink interface {
	Ingest(batch []traffic.Probe) (accepted, shed int)
}

// DefaultProbeMaxBodyBytes caps /probes request bodies (8 MiB ≈ 100k
// probes per POST).
const DefaultProbeMaxBodyBytes = 8 << 20

// Server is the assembled HTTP API.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux
}

// New validates cfg and builds the route table.
func New(cfg Config) (*Server, error) {
	if cfg.Infer == nil {
		return nil, fmt.Errorf("serve: Config.Infer is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.ProbeMaxBodyBytes <= 0 {
		cfg.ProbeMaxBodyBytes = DefaultProbeMaxBodyBytes
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	s := &Server{cfg: cfg, reg: cfg.Registry, mux: http.NewServeMux()}
	mw := obs.Middleware{Registry: s.reg, Logger: cfg.Logger, Traces: cfg.Traces}
	route := func(pattern string, h http.HandlerFunc) {
		s.mux.Handle(pattern, mw.Wrap(pattern, h))
	}
	route("/estimate", s.handleEstimate)
	route("/probes", s.handleProbes)
	route("/feedback", s.handleFeedback)
	route("/healthz", s.handleHealth)
	route("/readyz", s.handleReady)
	route("/version", s.handleVersion)
	route("/reload", s.handleReload)
	// The runtime gauges are read when scraped, as Prometheus's own Go
	// collector does: nothing refreshes them between scrapes.
	metrics := s.reg.Handler()
	s.mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.CollectRuntime(s.reg)
		metrics.ServeHTTP(w, r)
	}))
	// Debug routes are served outside the obs middleware — inspecting the
	// process should not show up in request metrics or create traces — but
	// wrapped in envelope() so every JSON response carries generated_at and
	// the uniform error shape. Raw bodies (segment downloads) pass through
	// the envelope untouched.
	if cfg.Traces != nil {
		s.mux.Handle("/debug/traces", envelope(cfg.Traces.Handler()))
	}
	if cfg.Quality != nil {
		s.mux.Handle("/debug/quality", envelope(cfg.Quality.Handler()))
	}
	if cfg.TrafficStatus != nil {
		s.mux.Handle("/debug/traffic", envelope(http.HandlerFunc(s.handleTrafficDebug)))
	}
	if cfg.Recorder != nil {
		// The trailing-slash pattern also routes the segment paths
		// (/debug/recorder/segments/<name>) to the recorder.
		h := envelope(cfg.Recorder.Handler())
		s.mux.Handle("/debug/recorder", h)
		s.mux.Handle("/debug/recorder/", h)
	}
	return s, nil
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// EstimateRequest is the POST /estimate body.
type EstimateRequest struct {
	Origin    geo.Point `json:"origin"`
	Dest      geo.Point `json:"dest"`
	DepartSec float64   `json:"depart_sec"`
}

// EstimateResponse is the POST /estimate success body.
type EstimateResponse struct {
	TravelSeconds float64 `json:"travel_seconds"`
	TravelHuman   string  `json:"travel_human"`
	// Cached and Model report whether the answer came from the estimate
	// cache and which model snapshot produced it.
	Cached bool   `json:"cached,omitempty"`
	Model  string `json:"model,omitempty"`
	// PredictionID is set when quality monitoring is on: echo it back in
	// POST /feedback with the trip's actual travel time.
	PredictionID string `json:"prediction_id,omitempty"`
}

// validateRequest rejects inputs that must not reach map matching:
// non-finite coordinates or departure (their distance math is poison),
// negative departures, and — when the network bounds are known — points
// outside them. Returns a client-facing message, or "" when valid.
func (s *Server) validateRequest(req EstimateRequest) string {
	for _, c := range [...]struct {
		name string
		v    float64
	}{
		{"origin.X", req.Origin.X}, {"origin.Y", req.Origin.Y},
		{"dest.X", req.Dest.X}, {"dest.Y", req.Dest.Y},
		{"depart_sec", req.DepartSec},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Sprintf("%s must be a finite number", c.name)
		}
	}
	if req.DepartSec < 0 {
		return "depart_sec must be non-negative"
	}
	if s.cfg.Bounds != nil {
		if !s.cfg.Bounds.Contains(req.Origin) {
			return fmt.Sprintf("origin %+v is outside the road network bounds", req.Origin)
		}
		if !s.cfg.Bounds.Contains(req.Dest) {
			return fmt.Sprintf("dest %+v is outside the road network bounds", req.Dest)
		}
	}
	return ""
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	// Stages below span off the request context (which carries the trace
	// and the middleware's root span), not off each other: decode and the
	// engine stages are siblings under the route's root span.
	ctx := r.Context()
	scratch := codecBufs.Get().(*[]byte)
	defer codecBufs.Put(scratch)
	_, decodeSpan := s.reg.StartSpan(ctx, stageDecode)
	var req EstimateRequest
	err := decodeEstimate(r.Body, *scratch, &req)
	decodeSpan.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	if msg := s.validateRequest(req); msg != "" {
		writeError(w, http.StatusBadRequest, msg)
		return
	}

	od := traj.ODInput{
		Origin:    req.Origin,
		Dest:      req.Dest,
		DepartSec: req.DepartSec,
	}
	if s.cfg.Validate != nil {
		if err := s.cfg.Validate(od); err != nil {
			writeInferError(w, err)
			return
		}
	}
	if s.cfg.External != nil {
		od.External = s.cfg.External(req.DepartSec)
	}

	res, err := s.cfg.Infer(ctx, od)
	if err != nil {
		writeInferError(w, err)
		return
	}
	writeEstimate(w, scratch, &EstimateResponse{
		TravelSeconds: res.Seconds,
		TravelHuman:   humanDuration(res.Seconds),
		Cached:        res.Cached,
		Model:         res.SnapshotID,
		PredictionID:  res.PredictionID,
	})
}

// ProbesResponse is the POST /probes success body: how many probes the
// bounded ingest queue accepted vs shed. Shedding is not an error — the
// firehose is best-effort by design — but a fully shed batch answers 429 so
// well-behaved emitters back off.
type ProbesResponse struct {
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
}

// handleProbes ingests the GPS probe firehose: an NDJSON body, one
// traffic.Probe per line, decoded by decodeProbes. The whole body is parsed
// before ingestion — a malformed line rejects the batch with 400 rather than
// half-applying it — then handed to the sink in one call so the per-vehicle
// routing happens once. 501 until Config.Probes is wired.
func (s *Server) handleProbes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Probes == nil {
		writeError(w, http.StatusNotImplemented, "probe ingestion is not wired on this server")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.ProbeMaxBodyBytes)

	ctx := r.Context()
	_, decodeSpan := s.reg.StartSpan(ctx, stageDecode)
	ps := probeScratches.Get().(*probeScratch)
	defer ps.release()
	var err error
	ps.body, ps.batch, err = decodeProbes(r.Body, ps.body, ps.batch[:0])
	decodeSpan.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad probe at line %d: %v", len(ps.batch)+1, err))
		return
	}
	if len(ps.batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty probe batch")
		return
	}

	_, ingestSpan := s.reg.StartSpan(ctx, stageIngest)
	accepted, shed := s.cfg.Probes.Ingest(ps.batch)
	ingestSpan.SetBool("shed", shed > 0)
	ingestSpan.End()
	if accepted == 0 && shed > 0 {
		// The queue is saturated; tell the emitter to slow down rather
		// than silently eating its entire batch.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ProbesResponse{Accepted: accepted, Shed: shed})
		return
	}
	writeJSON(w, http.StatusOK, ProbesResponse{Accepted: accepted, Shed: shed})
}

// handleTrafficDebug serves the live traffic pipeline's state — probe
// counters, edge coverage, epoch, high-water sim time — for operators
// checking whether the real-time channel is warm.
func (s *Server) handleTrafficDebug(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.TrafficStatus())
}

// FeedbackRequest is the POST /feedback body: the prediction ID echoed by
// /estimate (trip_id is accepted as an alias — callers that key trips
// themselves can pass their own handle through) plus the trip's actual
// travel time once it completed.
type FeedbackRequest struct {
	PredictionID  string  `json:"prediction_id"`
	TripID        string  `json:"trip_id,omitempty"`
	ActualSeconds float64 `json:"actual_seconds"`
}

// FeedbackResponse is the POST /feedback success body.
type FeedbackResponse struct {
	// Joined reports whether the feedback matched a pending prediction.
	// False means the ID is unknown, already answered, or waited past the
	// pending TTL — all accepted (200) but counted as orphans.
	Joined bool `json:"joined"`
	// PredictedSeconds, AbsErrorSeconds and Model are set on a join.
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	AbsErrorSeconds  float64 `json:"abs_error_seconds,omitempty"`
	Model            string  `json:"model,omitempty"`
}

// handleFeedback ingests ground truth for a served prediction and feeds
// the quality monitor. 501 until Config.Quality is wired.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Quality == nil {
		writeError(w, http.StatusNotImplemented, "quality monitoring is not wired on this server")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	ctx := r.Context()
	_, decodeSpan := s.reg.StartSpan(ctx, stageDecode)
	var req FeedbackRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	decodeSpan.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	id := req.PredictionID
	if id == "" {
		id = req.TripID
	}
	if id == "" {
		writeError(w, http.StatusBadRequest, "prediction_id (or trip_id) is required")
		return
	}

	_, joinSpan := s.reg.StartSpan(ctx, stageJoin)
	res, err := s.cfg.Quality.Feedback(id, req.ActualSeconds)
	if err != nil {
		joinSpan.Fail(err)
		joinSpan.End()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	joinSpan.SetBool("joined", res.Joined)
	joinSpan.End()
	writeJSON(w, http.StatusOK, FeedbackResponse{
		Joined:           res.Joined,
		PredictedSeconds: res.PredictedSeconds,
		AbsErrorSeconds:  res.AbsErrorSeconds,
		Model:            res.Model,
	})
}

func humanDuration(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Second).String()
}

// writeInferError maps engine errors onto HTTP statuses. Shed requests get
// a Retry-After hint: queue-full is instantaneous back-pressure (retry
// right away against fresh capacity), queue-timeout means the pool is
// saturated (retry later).
func writeInferError(w http.ResponseWriter, err error) {
	var matchErr *infer.MatchError
	switch {
	case errors.Is(err, infer.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry shortly")
	case errors.Is(err, infer.ErrQueueTimeout):
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusServiceUnavailable, "timed out waiting for an estimation worker")
	case errors.As(err, &matchErr):
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("map matching failed: %v", matchErr.Err))
	case errors.Is(err, infer.ErrInvalidInput):
		writeError(w, http.StatusBadRequest, "invalid OD input")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status is for the access log.
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		// infer.ErrInternal — a panic the engine contained — and anything
		// unclassified.
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("estimation failed: %v", err))
	}
}

// handleVersion reports what is serving: build info resolved from the
// binary plus the live-model fields from Config.Version (snapshot hash,
// generation, engine tuning) — so operators can tell which checkpoint is
// live after a /reload or SIGHUP.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body := map[string]any{"city": s.cfg.City}
	// The same fields obs.RegisterBuildInfo publishes as tte_build_info
	// labels, so the metric and the endpoint never disagree.
	for k, v := range obs.BuildFields() {
		body[k] = v
	}
	if s.cfg.Version != nil {
		for k, v := range s.cfg.Version() {
			body[k] = v
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReload triggers a hot model swap via Config.Reload.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Reload == nil {
		writeError(w, http.StatusNotImplemented, "reload is not wired on this server")
		return
	}
	meta, err := s.cfg.Reload(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("reload failed: %v", err))
		return
	}
	body := map[string]any{"reloaded": true}
	for k, v := range meta {
		body[k] = v
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReady is the k8s-style readiness probe, distinct from /healthz
// (liveness): a live process may still be unable to serve — no snapshot
// loaded yet, engine closed, or stuck after a failed reload. Orchestrators
// route traffic on 200 and drain on 503; the payload carries the serving
// checkpoint hash and queue depth either way.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ready := true
	body := map[string]any{"city": s.cfg.City}
	if s.cfg.Ready != nil {
		ok, detail := s.cfg.Ready()
		ready = ok
		for k, v := range detail {
			body[k] = v
		}
	}
	if s.cfg.TrafficStatus != nil {
		// Warm-up visibility only: a cold traffic store never flips
		// readiness, because estimates fall back to the training-time
		// prior and are still correct answers.
		body["traffic"] = s.cfg.TrafficStatus()
	}
	body["ready"] = ready
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body := map[string]any{"status": "ok", "city": s.cfg.City}
	for k, v := range s.cfg.Health {
		body[k] = v
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError emits the API's uniform error shape: {"error": "..."}.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// NewHTTPServer wraps h in an http.Server with the serving timeouts the
// seed's bare ListenAndServe lacked: slowloris-resistant header reads,
// bounded request reads and writes, and idle-connection reaping.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe runs srv until it fails or ctx is cancelled, then drains
// in-flight requests for up to grace before forcing connections closed.
// It returns nil on a clean shutdown.
func ListenAndServe(ctx context.Context, srv *http.Server, grace time.Duration, logf obs.Logf) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if logf != nil {
		logf("shutting down (draining up to %s)...", grace)
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
