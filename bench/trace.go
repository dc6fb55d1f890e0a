package main

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"deepod/internal/infer"
	"deepod/internal/serve"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// Span names, one per layer boundary the harness can wrap from outside.
// spanParent gives the span that caused each: spans of one request share
// its request id, so (req, parent) identifies the causing span.
const (
	spanClient        = iota // harness: one operation as its caller saw it
	spanHandle               // serve: POST /estimate handler
	spanProbesHandle         // serve: POST /probes handler
	spanExternalPrior        // serve: Config.External (the prior speed grid)
	spanDo                   // infer: Engine.Do
	spanMatch                // mapmatch: Config.Match on a cache miss
	spanTrafficExt           // traffic: FeatureSource.External on a cache miss
	spanModel                // core: Snapshot.Estimate / EstimateBatch
	spanIngest               // traffic: Ingestor.Ingest called by the probes handler
	spanTrainEpoch           // core: one epoch of Model.Train, between two Progress callbacks
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client", "serve.handle", "serve.probes_handle", "serve.external_prior",
	"infer.do", "mapmatch.match_od", "traffic.external", "core.estimate", "traffic.ingest_call",
	"core.train_epoch",
}

var spanParent = [numSpanNames]int{
	spanClient:        -1,
	spanHandle:        spanClient,
	spanProbesHandle:  spanClient,
	spanExternalPrior: spanHandle,
	spanDo:            spanHandle, // the in-process second operation calls it from the client
	spanMatch:         spanDo,
	spanTrafficExt:    spanDo,
	spanModel:         spanDo,
	spanIngest:        spanProbesHandle,
	spanTrainEpoch:    -1,
}

// span is one recorded interval. req 0 means the boundary carries no
// request context (TrafficSource.External takes none). n is the number of
// requests the span served: above one only for a fused model batch, which
// is recorded once under the id of its first request.
type span struct {
	req   uint32
	name  uint8
	n     uint16
	start int64 // ns since the tracer was made
	dur   int64 // ns
}

// maxSpans bounds the in-memory span buffer (24 B each, pages untouched
// until used). A 60 s run at 30k requests/s records about 7M spans.
const maxSpans = 8 << 20

// tracer keeps spans in memory until the run ends. Recording is one atomic
// add and one store; it is off (and the wrappers pass straight through)
// outside the traced windows, so the clean window of a traced run measures
// what tracing costs.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

type reqIDKey struct{}

// reqHeader carries the client's request id to the outer handler.
const reqHeader = "X-Bench-Req"

func withReqID(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqIDFrom(ctx context.Context) uint32 {
	id, _ := ctx.Value(reqIDKey{}).(uint32)
	return id
}

func (t *tracer) record(name int, req uint32, n int, start time.Time, d time.Duration) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{req: req, name: uint8(name), n: uint16(n), start: int64(start.Sub(t.epoch)), dur: int64(d)}
}

// mark returns the index the next span will take, so a phase can later be
// aggregated over exactly the spans recorded while it ran.
func (t *tracer) mark() int {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return int(n)
}

// wrapHandler is the outer http.Handler: it moves the client's request id
// into the context the inner layers receive and spans the whole handler.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		// A request sent before the window opened carries no id and has no
		// client span to pair with; it is not part of the traced sample.
		id64, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 32)
		id := uint32(id64)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		name := spanHandle
		if r.URL.Path == "/probes" {
			name = spanProbesHandle
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withReqID(r.Context(), id)))
		t.record(name, id, 1, start, time.Since(start))
	})
}

func (t *tracer) wrapInfer(do func(context.Context, traj.ODInput) (infer.Result, error)) func(context.Context, traj.ODInput) (infer.Result, error) {
	return func(ctx context.Context, od traj.ODInput) (infer.Result, error) {
		if !t.on.Load() {
			return do(ctx, od)
		}
		start := time.Now()
		res, err := do(ctx, od)
		t.record(spanDo, reqIDFrom(ctx), 1, start, time.Since(start))
		return res, err
	}
}

// wrapPrior spans serve.Config.External. It has no context, so the span
// is recorded without a request id; the budget uses its mean.
func (t *tracer) wrapPrior(ext func(float64) *traj.ExternalFeatures) func(float64) *traj.ExternalFeatures {
	return func(sec float64) *traj.ExternalFeatures {
		if !t.on.Load() {
			return ext(sec)
		}
		start := time.Now()
		f := ext(sec)
		t.record(spanExternalPrior, 0, 1, start, time.Since(start))
		return f
	}
}

func (t *tracer) wrapMatch(match func(context.Context, traj.ODInput) (traj.MatchedOD, error)) func(context.Context, traj.ODInput) (traj.MatchedOD, error) {
	return func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
		if !t.on.Load() {
			return match(ctx, od)
		}
		start := time.Now()
		m, err := match(ctx, od)
		t.record(spanMatch, reqIDFrom(ctx), 1, start, time.Since(start))
		return m, err
	}
}

// wrapSnapshot spans both model entry points of a serving snapshot.
func (t *tracer) wrapSnapshot(s *infer.Snapshot) {
	est, batch := s.Estimate, s.EstimateBatch
	s.Estimate = func(ctx context.Context, od *traj.MatchedOD) float64 {
		if !t.on.Load() {
			return est(ctx, od)
		}
		start := time.Now()
		sec := est(ctx, od)
		t.record(spanModel, reqIDFrom(ctx), 1, start, time.Since(start))
		return sec
	}
	s.EstimateBatch = func(ctx context.Context, ods []traj.MatchedOD) []float64 {
		if !t.on.Load() {
			return batch(ctx, ods)
		}
		start := time.Now()
		secs := batch(ctx, ods)
		t.record(spanModel, reqIDFrom(ctx), len(ods), start, time.Since(start))
		return secs
	}
}

// tracedTraffic spans infer.Config.Traffic.
type tracedTraffic struct {
	t     *tracer
	inner infer.TrafficSource
}

func (tt tracedTraffic) Epoch() uint64 { return tt.inner.Epoch() }

func (tt tracedTraffic) External(sec float64) (*traj.ExternalFeatures, bool) {
	if !tt.t.on.Load() {
		return tt.inner.External(sec)
	}
	start := time.Now()
	f, live := tt.inner.External(sec)
	tt.t.record(spanTrafficExt, 0, 1, start, time.Since(start))
	return f, live
}

// tracedProbes spans serve.Config.Probes.
type tracedProbes struct {
	t     *tracer
	inner serve.ProbeSink
}

func (tp tracedProbes) Ingest(batch []traffic.Probe) (int, int) {
	if !tp.t.on.Load() {
		return tp.inner.Ingest(batch)
	}
	start := time.Now()
	a, s := tp.inner.Ingest(batch)
	tp.t.record(spanIngest, 0, len(batch), start, time.Since(start))
	return a, s
}

// spanSums aggregates the spans recorded in [from, to): per name, how many
// there were, their total duration, the requests they served (n summed),
// and the duration each of those requests experienced (dur × n summed — a
// fused batch of 8 holds all 8 callers for its whole duration).
type spanSums struct {
	count       [numSpanNames]int64
	totalNs     [numSpanNames]int64
	served      [numSpanNames]int64
	experienced [numSpanNames]int64
	// queueWaitNs sums, over cache misses, the time from the start of
	// Engine.Do to the start of that request's Match call.
	queueWaitNs int64
	// fusedServed counts requests answered by a model span with n >= 2.
	fusedServed int64
	// clientEstimateNs is the client time of everything but probe posts (a
	// client span is a probe post when serve.probes_handle shares its id).
	clientEstimateNs int64
}

func (t *tracer) sums(from, to int) spanSums {
	var s spanSums
	doStart := map[uint32]int64{}
	probePost := map[uint32]bool{}
	for i := from; i < to; i++ {
		sp := &t.spans[i]
		s.count[sp.name]++
		s.totalNs[sp.name] += sp.dur
		s.served[sp.name] += int64(sp.n)
		s.experienced[sp.name] += sp.dur * int64(sp.n)
		switch sp.name {
		case spanDo:
			doStart[sp.req] = sp.start
		case spanProbesHandle:
			probePost[sp.req] = true
		case spanModel:
			if sp.n >= 2 {
				s.fusedServed += int64(sp.n)
			}
		}
	}
	// Match ends (and is recorded) before the Do that waits on it, so the
	// joins need a first pass over every span.
	for i := from; i < to; i++ {
		sp := &t.spans[i]
		switch sp.name {
		case spanMatch:
			if ds, ok := doStart[sp.req]; ok {
				s.queueWaitNs += sp.start - ds
			}
		case spanClient:
			if !probePost[sp.req] {
				s.clientEstimateNs += sp.dur
			}
		}
	}
	return s
}

// maxSpansWritten caps the span file: the aggregates use every span, the
// file keeps the first ones recorded so a run leaves tens of megabytes
// behind, not hundreds.
const maxSpansWritten = 200_000

// write dumps the spans as JSON to bench/out/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	total := t.mark()
	n := total
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"workload":`...)
	buf = strconv.AppendQuote(buf, workload)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, seed, 10)
	buf = append(buf, `,"spans_recorded":`...)
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, `,"spans_dropped":`...)
	buf = strconv.AppendInt(buf, t.dropped.Load(), 10)
	buf = append(buf, `,"spans":[`...)
	w.Write(buf)
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"req\":"...)
		buf = strconv.AppendUint(buf, uint64(sp.req), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[sp.name]...)
		buf = append(buf, `","parent":"`...)
		if p := spanParent[sp.name]; p >= 0 {
			buf = append(buf, spanNames[p]...)
		}
		buf = append(buf, `","start_us":`...)
		buf = strconv.AppendFloat(buf, float64(sp.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur_us":`...)
		buf = strconv.AppendFloat(buf, float64(sp.dur)/1e3, 'f', 3, 64)
		buf = append(buf, `,"n":`...)
		buf = strconv.AppendUint(buf, uint64(sp.n), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
