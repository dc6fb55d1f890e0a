package main

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"deepod"
	"deepod/internal/geo"
	"deepod/internal/infer"
	"deepod/internal/mapmatch"
	"deepod/internal/traj"
)

// Correctness bounds of the estimate workloads.
const (
	coldMaxHitShare  = 0.05
	hotMinHitShare   = 0.99
	liveMinLiveShare = 0.9
	maxTravelSec     = 4 * 3600.0
	inProcCold       = 16 // in-process callers of the cold second operation
	// One caller on hot: a cache hit is under a microsecond, and a second
	// caller on the one P adds nothing but a goroutine switch now and then.
	inProcHot = 1
)

// warmFor is the warm-up run before a measured window: a tenth of it,
// between 0.2 s and 3 s. Caches and connections are already warm from the
// set-up's 2000 requests; this lets the loops reach their steady mix.
func warmFor(length time.Duration) time.Duration {
	w := length / 10
	if w < 200*time.Millisecond {
		w = 200 * time.Millisecond
	}
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// answer is one checked HTTP answer.
type answer struct {
	sec    float64
	cached bool
}

// estimateRun is the state of one estimate-* run.
type estimateRun struct {
	workload string
	st       *stack
	fx       *fixture
	tr       *tracer
	pr       *probe // nil on a traced run
	res      *result

	nextReq atomic.Uint32
	// nextBody is the shared position in the cold/hot body rotation.
	nextBody atomic.Int64
	// answers[c] are client c's first answers to the checked bodies.
	answers []map[int]answer
	checked []bool
	// liveNext[c] is loop c's next cycle; sent counts probes posted.
	liveNext  []int
	sent      atomic.Int64
	exhausted atomic.Bool
}

// parseEstimate pulls travel_seconds and the cached flag out of a POST
// /estimate answer without a reflective decode: the harness shares two
// cores with the server, and this runs once per request.
func parseEstimate(b []byte) (sec float64, cached, ok bool) {
	const key = `"travel_seconds":`
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false, false
	}
	rest := b[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false, false
	}
	sec, err := strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil {
		return 0, false, false
	}
	return sec, bytes.Contains(rest, []byte(`"cached":true`)), true
}

// parseProbes pulls the accepted and shed counts out of a POST /probes answer.
func parseProbes(b []byte) (accepted, shed int, ok bool) {
	field := func(key string) (int, bool) {
		i := bytes.Index(b, []byte(key))
		if i < 0 {
			return 0, false
		}
		rest := b[i+len(key):]
		j := bytes.IndexAny(rest, ",}")
		if j < 0 {
			return 0, false
		}
		n, err := strconv.Atoi(string(bytes.TrimSpace(rest[:j])))
		return n, err == nil
	}
	accepted, ok1 := field(`"accepted":`)
	shed, ok2 := field(`"shed":`)
	return accepted, shed, ok1 && ok2
}

// plausible is the per-answer check every workload applies: finite and
// within [0, 4 h]. Zero is allowed because the checkpoint is untrained and
// core clamps the rare negative output to 0.
func plausible(sec float64) bool {
	return !math.IsNaN(sec) && sec >= 0 && sec <= maxTravelSec
}

// reqID hands out request ids while the tracer records, 0 otherwise.
func (r *estimateRun) reqID() uint32 {
	if r.tr == nil || !r.tr.on.Load() {
		return 0
	}
	return r.nextReq.Add(1)
}

// postEstimate sends one estimate over HTTP, checks the answer and logs it
// as a first operation.
func (r *estimateRun) postEstimate(body []byte, buf *bytes.Buffer, log *clientLog, w *window) (answer, bool) {
	id := r.reqID()
	t0 := time.Now()
	err := r.st.post("/estimate", body, id, buf)
	t1 := time.Now()
	var a answer
	ok := err == nil
	if ok {
		a.sec, a.cached, ok = parseEstimate(buf.Bytes())
		ok = ok && plausible(a.sec)
	}
	log.observe(opFirst, w, t1, t1.Sub(t0), ok, 1)
	if id != 0 {
		r.tr.record(spanClient, id, 1, t0, t1.Sub(t0))
	}
	return a, ok
}

// httpLoop is the first operation of cold and hot. Every caller draws the
// next body from one shared sequence (starting past the bodies warm-up
// sent): the server then sees the 20 000 cold keys strictly in rotation
// however unevenly the callers progress. Giving each caller its own stride
// instead lets a caller whose share of the keys fits the cache run away on
// hits while the others queue on misses.
func (r *estimateRun) httpLoop(c int, log *clientLog, w *window) {
	var buf bytes.Buffer
	n := len(r.fx.estimates)
	for !w.done() {
		idx := int(r.nextBody.Add(1)-1) % n
		a, ok := r.postEstimate(r.fx.estimates[idx].body, &buf, log, w)
		if ok && r.checked[idx] {
			if _, seen := r.answers[c][idx]; !seen {
				r.answers[c][idx] = a
			}
		}
	}
}

// inProcLoop is the second operation of cold and hot: the same ODs through
// Engine.Do without HTTP. It resolves the prior features per call, as the
// handler does, so the difference from the first operation is transport,
// JSON and middleware only. One logged operation is lap consecutive calls,
// its latency their mean: 1 on cold; on hot a whole turn of the 64 ODs,
// because a cache hit takes about as long as the two clock reads and the
// log entry that would otherwise surround each one.
func (r *estimateRun) inProcLoop(lap int) func(int, *clientLog, *window) {
	prior := r.st.city.Grid.External
	return func(c int, log *clientLog, w *window) {
		n := len(r.fx.estimates)
		for !w.done() {
			ok := true
			first := r.reqID()
			t0 := time.Now()
			for i, id := 0, first; i < lap; i, id = i+1, r.reqID() {
				od := r.fx.estimates[int(r.nextBody.Add(1)-1)%n].od
				od.External = prior(od.DepartSec)
				ctx := context.Background()
				if id != 0 {
					ctx = withReqID(ctx, id)
				}
				res, err := r.st.do(ctx, od)
				ok = ok && err == nil && plausible(res.Seconds)
			}
			t1 := time.Now()
			log.observe(opSecond, w, t1, t1.Sub(t0)/time.Duration(lap), ok, lap)
			if first != 0 {
				r.tr.record(spanClient, first, lap, t0, t1.Sub(t0))
			}
		}
	}
}

// liveLoop is estimate-live's fixed mix: one probe body, then
// estimatesPerBody estimates departing at that body's newest probe.
func (r *estimateRun) liveLoop(c int, log *clientLog, w *window) {
	var buf bytes.Buffer
	var body []byte
	cycles := r.fx.loops[c]
	for ; !w.done(); r.liveNext[c]++ {
		if r.liveNext[c] >= len(cycles) {
			r.exhausted.Store(true)
			return
		}
		cy := &cycles[r.liveNext[c]]
		id := r.reqID()
		t0 := time.Now()
		err := r.st.post("/probes", cy.probes, id, &buf)
		t1 := time.Now()
		accepted, _, ok := 0, 0, err == nil
		if ok {
			accepted, _, ok = parseProbes(buf.Bytes())
		}
		r.sent.Add(probesPerBody)
		log.observe(opSecond, w, t1, t1.Sub(t0), ok, accepted)
		if id != 0 {
			r.tr.record(spanClient, id, 1, t0, t1.Sub(t0))
		}
		for _, p := range cy.pairs {
			body = appendEstimateBody(body[:0], r.fx.origins[p[0]], r.fx.dests[p[1]], cy.depart)
			r.postEstimate(body, &buf, log, w)
		}
	}
}

// counters is a snapshot of the program's own counters, taken when a
// window opens and closes so shares cover the window alone.
type counters struct {
	eng         infer.Stats
	live, prior uint64
	spanMark    int
}

func (r *estimateRun) snapshot() counters {
	c := counters{eng: r.st.eng.Stats()}
	c.live = r.st.reg.Counter("tte_traffic_features_total", "source", "live").Value()
	c.prior = r.st.reg.Counter("tte_traffic_features_total", "source", "prior").Value()
	if r.tr != nil {
		c.spanMark = r.tr.mark()
	}
	return c
}

// liveShare is the share of the window's feature requests that the live
// traffic view answered (the rest fell back to the prior).
func liveShare(from, to counters) float64 {
	live := to.live - from.live
	return share(live, live+to.prior-from.prior)
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// measured is what one window yields: the clients' log and the program's
// counters when it opened and closed.
type measured struct {
	log      windowLog
	from, to counters
}

// phase runs one window of the given length. A traced window turns
// the tracer on exactly while it is open, so warm-up is never recorded.
func (r *estimateRun) phase(callers int, length time.Duration, traced bool, loop func(int, *clientLog, *window)) measured {
	var m measured
	m.log = runWindow(callers, warmFor(length), length, loop,
		func() {
			if traced {
				r.tr.on.Store(true)
			}
			m.from = r.snapshot()
		},
		func() {
			m.to = r.snapshot()
			if traced {
				r.tr.on.Store(false)
			}
		})
	for kind := range m.log.attempted {
		r.res.attempted += m.log.attempted[kind]
		r.res.failed += m.log.failed[kind]
	}
	return m
}

// start points the run at the stack that serves it.
func (r *estimateRun) start(st *stack, fx *fixture) {
	r.st, r.fx = st, fx
	r.checked = make([]bool, len(fx.estimates))
	for _, i := range fx.checked {
		r.checked[i] = true
	}
	r.answers = make([]map[int]answer, clients)
	for c := range r.answers {
		r.answers[c] = map[int]answer{}
	}
	r.liveNext = make([]int, clients)
	for c := range r.liveNext {
		r.liveNext[c] = st.warmCycles
	}
	r.sent.Store(int64(st.warmCycles * len(fx.loops) * probesPerBody))
	r.nextBody.Store(warmRequests)
}

// runEstimate is the whole of an estimate-* run after flag parsing.
//
// An untraced run starts the probe, sets up setUpsPerRun times and measures
// the first operation for 70 % of -seconds and the second for 30 % (on live
// the one mix for all of it).
//
// A traced run sets up once and measures clean, the first operation
// untraced, then the same loop with spans recorded (the gap between the two
// rates is what tracing costs), then the second operation, traced. It runs
// no probe: a burst inside a span would be charged to that layer.
func runEstimate(workload string, seed int64, seconds float64, traced bool, res *result) (err error) {
	r := &estimateRun{workload: workload, res: res}
	n := setUpsPerRun
	if traced {
		r.tr, n = newTracer(maxSpans), 1
	} else {
		if r.pr, err = startProbe(); err != nil {
			return err
		}
		defer func() {
			if perr := r.pr.finish(); err == nil {
				err = perr
			}
		}()
	}
	var fx renderedFixture
	u := &setUps{probe: r.pr, log: res.logf, build: func() (*stack, error) {
		return setUp(workload, seed, seconds, &fx, r.tr)
	}}
	st, err := u.run(n)
	if err != nil {
		return err
	}
	defer st.close()
	r.start(st, fx.fixture)

	live := workload == "estimate-live"
	first, second, callers := r.httpLoop, r.inProcLoop(1), inProcCold
	switch {
	case live:
		first, second, callers = r.liveLoop, r.liveLoop, clients
	case workload == "estimate-hot":
		second, callers = r.inProcLoop(hotBodies), inProcHot
	}
	var clean, trc, sec measured
	switch {
	case !traced && live:
		clean = r.phase(clients, secs(seconds), false, first)
		sec = clean
	case !traced:
		clean = r.phase(clients, secs(0.7*seconds), false, first)
		sec = r.phase(callers, secs(0.3*seconds), false, second)
	case live:
		clean = r.phase(clients, secs(0.4*seconds), false, first)
		trc = r.phase(clients, secs(0.6*seconds), true, first)
		sec = trc
	default:
		clean = r.phase(clients, secs(0.3*seconds), false, first)
		trc = r.phase(clients, secs(0.4*seconds), true, first)
		sec = r.phase(callers, secs(0.3*seconds), true, second)
	}
	r.check(clean.from, clean.to)
	if live {
		res.logf("probe pool: the loops used %v of %d cycles each", r.liveNext, len(r.fx.loops[0]))
	}
	p1, p2 := clean.log.stats(opFirst, r.pr), sec.log.stats(opSecond, r.pr)
	hit := share(clean.to.eng.CacheHits-clean.from.eng.CacheHits, clean.to.eng.Requests-clean.from.eng.Requests)
	av := r.pr.over(clean.log.iv)
	res.logf("%s seed %d: first %d ops (%d failed) %.0f/s mean %.4f ms (by the wall clock %.0f/s %.4f ms, p50 %.4f ms, p99 %.3f ms); second %d ops (%d failed) %.0f/s mean %.4f ms (%.0f/s %.4f ms, p50 %.4f ms); the first window was given %.3f of an undisturbed core (%d bursts: in-process units %.3f, loopback units %.3f); set-up %.3f s (median of %d), fixture %.3f s, hit share %.4f, slice IQR %.1f%%",
		workload, seed, p1.attempted, p1.failed, p1.rate, p1.meanMs, p1.rawRate, p1.rawMeanMs, p1.p50ms, p1.p99ms,
		p2.attempted, p2.failed, p2.rate, p2.meanMs, p2.rawRate, p2.rawMeanMs, p2.p50ms, av.share, av.bursts, av.kinds[refCPU], av.kinds[refNet],
		u.seconds(), len(u.times), fx.seconds, hit, p1.sliceIQRPct)

	m := res.metrics
	if !traced {
		m["setup_s"] = u.seconds()
		m["rate_per_s"] = p1.rate
		m["latency_ms"] = p1.meanMs
		m["second_rate_per_s"] = p2.rate
		m["second_latency_ms"] = p2.meanMs
		// Let the ingest queue empty and drop what only the harness holds (the
		// clients' logs, the fixture: tens of MB of probe bodies on live), so
		// the reading is the program's live heap with the server still up.
		if live {
			st.ing.Drain()
		}
		clean, sec, r.fx, fx.fixture = measured{}, measured{}, nil, nil
		m["heap_live_mb"] = heapLiveMB()
		return nil
	}

	for k, v := range u.stages {
		m[k] = v
	}
	m["harness.fixture_s"] = fx.seconds
	m["harness.first_p99_ms"] = p1.p99ms
	m["harness.second_p99_ms"] = p2.p99ms
	m["harness.slice_iqr_pct"] = p1.sliceIQRPct
	tracedRate := trc.log.stats(opFirst, nil).rate
	m["harness.trace_overhead_pct"] = 100 * (1 - tracedRate/p1.rate)
	sums := r.tr.sums(trc.from.spanMark, trc.to.spanMark)
	clientMean := r.layerMetrics(sums, trc, sec)
	if live {
		r.liveLayerMetrics(sums, trc)
	}
	r.modelMicro()
	if d := r.tr.dropped.Load(); d > 0 {
		res.fail("trace buffer overflowed: %d spans dropped", d)
	}
	path, err := r.tr.write(outDir, workload, seed)
	if err != nil {
		return err
	}
	res.logf("%s seed %d traced: %.0f/s against %.0f/s clean (overhead %.1f%%); client mean %.1f us = transport %.1f + serve self %.1f + prior %.1f + infer.do %.1f; spans in %s",
		workload, seed, tracedRate, p1.rate, m["harness.trace_overhead_pct"], clientMean,
		m["serve.transport_us"], m["serve.self_us"], m["serve.external_prior_us"], m["infer.do_us"], path)
	return nil
}

// heapLiveMB is HeapAlloc after two forced collections (the second frees
// what the first one's finalizers released).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// layerMetrics turns the spans of the traced windows into the serve, infer
// and mapmatch budget lines, and returns the traced client mean they sum
// to. Every line is a mean per estimate request of the first operation's
// traced window, in microseconds, so
//
//	client mean  = serve.transport + serve.handle
//	serve.handle = serve.self + serve.external_prior + infer.do
//	infer.do     = infer.self + infer.queue_wait + mapmatch.match_od
//	               + traffic.external + model
//
// hold exactly. model is the core.estimate span as each member of a fused
// batch experienced it; it is not printed, being what the other lines leave
// of infer.do. A line that only cache misses pay (match, model, wait) is
// therefore small on estimate-hot, not absent.
func (r *estimateRun) layerMetrics(s spanSums, trc, sec measured) (clientMean float64) {
	m := r.res.metrics
	from, to := trc.from, trc.to
	n := float64(s.count[spanHandle])
	if n == 0 {
		r.res.fail("traced window recorded no serve.handle span")
		return 0
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	clientMean = us(s.clientEstimateNs)
	m["serve.handle_us"] = us(s.totalNs[spanHandle])
	m["serve.transport_us"] = selfTime(clientMean, m["serve.handle_us"])
	m["serve.external_prior_us"] = us(s.totalNs[spanExternalPrior])
	m["infer.do_us"] = us(s.totalNs[spanDo])
	m["serve.self_us"] = selfTime(m["serve.handle_us"], m["serve.external_prior_us"], m["infer.do_us"])
	m["infer.queue_wait_us"] = us(s.queueWaitNs)
	m["mapmatch.match_od_us"] = us(s.totalNs[spanMatch])
	m["traffic.external_us"] = us(s.totalNs[spanTrafficExt])
	m["infer.self_us"] = selfTime(m["infer.do_us"], m["infer.queue_wait_us"], m["mapmatch.match_od_us"],
		m["traffic.external_us"], us(s.experienced[spanModel]))
	req := to.eng.Requests - from.eng.Requests
	m["infer.cache_hit_share"] = share(to.eng.CacheHits-from.eng.CacheHits, req)
	m["infer.shed_share"] = share(to.eng.Shed-from.eng.Shed, req)

	// Batching happens where callers outnumber workers: the in-process
	// second operation on cold and hot (on live that window is trc itself).
	if b := r.tr.sums(sec.from.spanMark, sec.to.spanMark); b.count[spanModel] > 0 {
		m["infer.batch_mean"] = float64(b.served[spanModel]) / float64(b.count[spanModel])
		m["infer.fused_share"] = float64(b.fusedServed) / float64(b.served[spanModel])
	}
	return clientMean
}

// liveLayerMetrics adds the lines only estimate-live has: the probe
// handler's budget, the ingest pipeline's counters and the Tracker replay.
func (r *estimateRun) liveLayerMetrics(s spanSums, trc measured) {
	m := r.res.metrics
	if n := float64(s.count[spanProbesHandle]); n > 0 {
		m["serve.probes_handle_us"] = float64(s.totalNs[spanProbesHandle]) / 1e3 / n
		m["traffic.ingest_call_us"] = float64(s.totalNs[spanIngest]) / 1e3 / n
		m["serve.probes_self_us"] = selfTime(m["serve.probes_handle_us"], m["traffic.ingest_call_us"])
	}
	m["traffic.live_share"] = liveShare(trc.from, trc.to)

	start := time.Now()
	r.st.ing.Drain()
	m["traffic.drain_s"] = time.Since(start).Seconds()
	ig, ss := r.st.ing.Stats(), r.st.store.Stats()
	m["traffic.probe_shed_share"] = share(ig.Shed, ig.Accepted+ig.Shed)
	m["traffic.out_of_order_share"] = share(ig.OutOfOrder, ig.Accepted)
	m["traffic.epochs"] = float64(ss.Epoch)
	m["traffic.coverage"] = ss.Coverage

	// The incremental matcher alone: the head of the probe pool through a
	// fresh Tracker on this goroutine, the server idle.
	tk := r.st.matcher.NewTracker(mapmatch.TrackerConfig{})
	start = time.Now()
	for i := range r.fx.replay {
		p := &r.fx.replay[i]
		_, _ = tk.Advance(p.Vehicle, traj.GPSPoint{Pos: geo.Point{X: p.X, Y: p.Y}, T: p.T}) // drops are counted by the ingest share above
	}
	m["mapmatch.advance_us_per_probe"] = float64(time.Since(start)) / 1e3 / float64(len(r.fx.replay))
}

// modelMicro times the model alone on matched ODs of the fixture, the
// server idle: per estimate with and without the external features (the
// difference is the traffic CNN + weather head every request pays), and
// per OD through the fused batch forward at the engine's MaxBatch.
func (r *estimateRun) modelMicro() {
	const n = 2048
	m := r.res.metrics
	c := r.st.city
	ods := make([]traj.MatchedOD, 0, n)
	for i := 0; len(ods) < n; i++ {
		od := r.fx.estimates[i%len(r.fx.estimates)].od
		od.External = c.Grid.External(od.DepartSec)
		matched, err := deepod.MatchOD(r.st.matcher, od)
		if err != nil {
			r.res.fail("model micro: matching OD %d: %v", i, err)
			return
		}
		ods = append(ods, matched)
	}
	timeEach := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start)) / 1e3 / n
	}
	var sink float64
	m["core.estimate_us"] = timeEach(func() {
		for i := range ods {
			sink += r.st.model.Estimate(&ods[i])
		}
	})
	m["core.fused_us_per_od"] = timeEach(func() {
		for i := 0; i < n; i += maxBatch {
			sink += r.st.model.EstimateBatchFused(ods[i : i+maxBatch])[0]
		}
	})
	for i := range ods {
		ods[i].External = nil
	}
	m["core.estimate_noext_us"] = timeEach(func() {
		for i := range ods {
			sink += r.st.model.Estimate(&ods[i])
		}
	})
	m["core.external_head_us"] = m["core.estimate_us"] - m["core.estimate_noext_us"]
	if math.IsNaN(sink) {
		r.res.fail("model micro: NaN estimate")
	}
}

// check is the workload's correctness check over its clean first window.
func (r *estimateRun) check(from, to counters) {
	res := r.res
	hit := share(to.eng.CacheHits-from.eng.CacheHits, to.eng.Requests-from.eng.Requests)
	switch r.workload {
	case "estimate-cold":
		if hit > coldMaxHitShare {
			res.fail("cache hit share %.4f above %.2f", hit, coldMaxHitShare)
		}
		r.checkAnswers(false)
	case "estimate-hot":
		if hit < hotMinHitShare {
			res.fail("cache hit share %.4f below %.2f", hit, hotMinHitShare)
		}
		r.checkAnswers(true)
	case "estimate-live":
		if r.exhausted.Load() {
			res.fail("probe pool exhausted: a loop ran more than %.1f times as fast as the set-up's warm-up client", liveHeadroom)
		}
		if ls := liveShare(from, to); ls < liveMinLiveShare {
			res.fail("live share %.4f below %.2f", ls, liveMinLiveShare)
		}
		ig := r.st.ing.Stats()
		if got, want := int64(ig.Accepted+ig.Shed), r.sent.Load(); got != want {
			res.fail("ingest accounted for %d probes, %d were sent", got, want)
		}
		if ep := r.st.store.Stats().Epoch; ep < 1 {
			res.fail("traffic epoch %d, want >= 1", ep)
		}
	}
	if shed := to.eng.Shed - from.eng.Shed; shed > 0 {
		res.fail("engine shed %d requests", shed)
	}
}

// checkAnswers compares the checked HTTP answers, bit for bit, with
// Model.Estimate(MatchOD(od + prior External)) computed here. A cached
// answer on cold may be a cell-mate's (same cells and slot, other exact
// point), so there only computed answers are compared; hot's fixture gives
// every body its own cache key, so there a hit is that body's own answer.
func (r *estimateRun) checkAnswers(includeCached bool) {
	res := r.res
	compared := 0
	for c := range r.answers {
		for idx, a := range r.answers[c] {
			if a.cached && !includeCached {
				continue
			}
			od := r.fx.estimates[idx].od
			od.External = r.st.city.Grid.External(od.DepartSec)
			matched, err := deepod.MatchOD(r.st.matcher, od)
			if err != nil {
				res.fail("checked answer %d: %v", idx, err)
				continue
			}
			want := r.st.model.Estimate(&matched)
			if math.Float64bits(want) != math.Float64bits(a.sec) {
				res.fail("checked answer %d: HTTP said %v, model says %v", idx, a.sec, want)
			}
			compared++
		}
	}
	if want := len(r.fx.checked) / 2; compared < want {
		res.fail("only %d answers compared with the model, want at least %d", compared, want)
	}
}
