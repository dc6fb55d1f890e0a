package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"deepod"
	"deepod/internal/core"
	"deepod/internal/infer"
	"deepod/internal/mapmatch"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/serve"
	"deepod/internal/traffic"
	"deepod/internal/traj"
)

// Wiring constants: tteserve's flag defaults, so the stack the benchmark
// measures is the one `tteserve -model m.bin -traffic` would start, minus
// the ops hooks (quality, recorder, trace store, SLO and telemetry
// tickers), which are off as in servebench's engine mode.
const (
	cityName     = "beijing-s"
	serveOrders  = 2000
	trainOrders  = 4000
	citySeed     = 1
	queueDepth   = 256
	maxBatch     = 16
	cacheEntries = 8192
	cacheTTL     = 5 * time.Minute
	cacheCell    = 250.0
	outDir       = "bench/out"
	warmChunk    = 250 // warm-up requests per stretch the warm-up client is timed over
)

// clients is the number of closed-loop HTTP clients, one connection each:
// one per core the program runs on, and a run executes on one (see run in
// main.go), so there is one caller and the program always has a request.
const clients = 1

// setUpsPerRun is how many complete set-ups an untraced run performs; it
// reports their median and serves the run from the last.
const setUpsPerRun = 3

// stageTimes are the set-up stages in seconds, by per-layer metric name.
type stageTimes map[string]float64

// stack is one complete serving set-up: city, matcher, model checkpoint,
// engine, optional live-traffic pipeline, and a real listener.
type stack struct {
	city    *deepod.City
	model   *core.Model // the weights the checkpoint holds, for the direct reference
	matcher *mapmatch.Matcher
	cells   *roadnet.EdgeIndex
	eng     *infer.Engine
	// do is eng.Do, behind the tracer's wrapper on a traced stack: what
	// both serve and the in-process operation call.
	do  func(context.Context, traj.ODInput) (infer.Result, error)
	reg *obs.Registry

	store *traffic.Store
	ing   *traffic.Ingestor
	// warmCycles is how many cycles of every live loop the set-up posted to
	// warm the traffic store; the loops start after them.
	warmCycles int

	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	// stages are the set-up's stages by the wall clock, timed the stretches
	// they ran over: the whole set-up less the harness's own work (rendering
	// the fixture).
	stages stageTimes
	timed  []interval
}

// time runs f as part of the named set-up stage.
func (s *stack) time(stage string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	s.stages[stage] += end.Sub(start).Seconds()
	s.timed = append(s.timed, interval{start, end})
	return err
}

// buildCity is the first half of every set-up, shared with `train`.
// Materialising every grid period matters for correctness, not only for
// timing: citysim.SpeedGridder memoises matrices in an unsynchronised map,
// and serve's External hook (tteserve's own wiring) reads it from every
// connection goroutine. A period first touched under concurrent traffic is
// a concurrent map write. See "defects found" in bench/README.md.
func (s *stack) buildCity(orders int, materialise bool) error {
	err := s.time("roadnet.build_city_s", func() (err error) {
		s.city, err = deepod.BuildCity(cityName, deepod.CityOptions{Orders: orders, Seed: citySeed})
		return err
	})
	if err != nil || !materialise {
		return err
	}
	return s.time("citysim.grid_s", func() error {
		g := s.city.Grid
		for sec := 0.0; sec < s.city.Traffic.Horizon(); sec += g.PeriodSec {
			g.MatrixAt(sec)
		}
		return nil
	})
}

// renderedFixture holds a run's fixture once the first set-up has rendered
// it, and how long rendering took (harness time, outside setup_s).
type renderedFixture struct {
	*fixture
	seconds float64
}

// setUp builds one serving stack. The fixture is rendered (untimed) during
// the first set-up and reused by later ones; tr, when non-nil, wraps every
// closure the harness owns.
func setUp(workload string, seed int64, seconds float64, fx *renderedFixture, tr *tracer) (st *stack, err error) {
	s := &stack{stages: stageTimes{}, reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := s.buildCity(serveOrders, true); err != nil {
		return nil, err
	}
	c := s.city
	err = s.time("mapmatch.new_s", func() (err error) {
		if s.matcher, err = deepod.NewMatcher(c.Graph); err != nil {
			return err
		}
		s.cells, err = roadnet.NewEdgeIndex(c.Graph, cacheCell)
		return err
	})
	if err != nil {
		return nil, err
	}
	if fx.fixture == nil {
		start := time.Now()
		if fx.fixture, err = buildFixture(workload, c, s.cells, seed); err != nil {
			return nil, err
		}
		fx.seconds = time.Since(start).Seconds()
	}

	var snap *infer.Snapshot
	err = s.time("core.load_checkpoint_s", func() (err error) {
		if s.model, err = core.New(deepod.SmallConfig(), c.Graph); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, workload+".model.bin")
		defer os.Remove(path)
		var buf bytes.Buffer
		if err := s.model.Save(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		snap, err = infer.LoadCheckpoint(path, c.Graph)
		return err
	})
	if err != nil {
		return nil, err
	}

	match := func(ctx context.Context, od traj.ODInput) (traj.MatchedOD, error) {
		return deepod.MatchODCtx(ctx, s.matcher, od)
	}
	prior := c.Grid.External
	engCfg := infer.Config{
		Match:        match,
		Snapshot:     snap,
		Workers:      runtime.GOMAXPROCS(0),
		QueueDepth:   queueDepth,
		MaxBatch:     maxBatch,
		CacheEntries: cacheEntries,
		CacheTTL:     cacheTTL,
		Cells:        s.cells,
		Slotter:      snap.Slotter,
		Registry:     s.reg,
	}
	bounds := c.Graph.Bounds()
	scfg := serve.Config{City: c.Name, Bounds: &bounds, External: prior, Registry: s.reg}
	if tr != nil {
		engCfg.Match = tr.wrapMatch(match)
		tr.wrapSnapshot(snap)
		scfg.External = tr.wrapPrior(prior)
	}

	if workload == "estimate-live" {
		// The traffic pipeline the engine binds to is part of building it.
		err = s.time("infer.new_s", func() (err error) {
			if s.store, err = traffic.NewStore(c.Graph, traffic.StoreConfig{Registry: s.reg}); err != nil {
				return err
			}
			s.ing, err = traffic.NewIngestor(s.matcher, s.store, traffic.IngestConfig{Workers: 1, Registry: s.reg})
			if err != nil {
				return err
			}
			fs, err := traffic.NewFeatureSource(c.Graph, s.store, prior, traffic.FeatureConfig{Registry: s.reg})
			if err != nil {
				return err
			}
			engCfg.Traffic, scfg.Probes = fs, s.ing
			if tr != nil {
				engCfg.Traffic = tracedTraffic{tr, fs}
				scfg.Probes = tracedProbes{tr, s.ing}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	err = s.time("infer.new_s", func() (err error) {
		s.eng, err = infer.New(engCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.do = s.eng.Do
	if tr != nil {
		s.do = tr.wrapInfer(s.eng.Do)
	}
	scfg.Infer = s.do

	var warmRate float64
	err = s.time("serve.warm_s", func() error {
		api, err := serve.New(scfg)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		h := api.Handler()
		if tr != nil {
			h = tr.wrapHandler(h)
		}
		s.srv = serve.NewHTTPServer(ln.Addr().String(), h)
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		s.url = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute,
		}}
		// warmRate is the estimates per second of the fastest stretch of
		// warmChunk requests: what this one sequential client can do when the
		// box lets it.
		var buf bytes.Buffer
		chunk := time.Now()
		for i, body := range fx.warm {
			if err := s.post("/estimate", body, 0, &buf); err != nil {
				return fmt.Errorf("warm-up request %d: %w", i, err)
			}
			if (i+1)%warmChunk == 0 {
				now := time.Now()
				warmRate = math.Max(warmRate, warmChunk/now.Sub(chunk).Seconds())
				chunk = now
			}
		}
		return nil
	})
	if err != nil || s.ing == nil {
		return s, err
	}
	if fx.loops == nil {
		// The probe pool must outlast the run without wrapping (a wrapped pool
		// is all out-of-order probes), so it is cut for the speed this very
		// machine and program just showed: one sequential client at its best
		// is an upper bound on what a loop sharing the cores with the others
		// can do.
		start := time.Now()
		if err := fx.renderLive(c, seed, clients, liveCycles(warmRate, seconds)); err != nil {
			return nil, err
		}
		fx.seconds += time.Since(start).Seconds()
	}
	return s, s.time("serve.warm_s", func() error {
		var buf bytes.Buffer
		return s.warmTraffic(fx.fixture, &buf)
	})
}

// warmTraffic posts the head of every loop's probe bodies, in step, until
// the store covers liveWarmCoverage of the edges. How many that takes
// depends on the probes alone, not on the machine's speed.
func (s *stack) warmTraffic(fx *fixture, buf *bytes.Buffer) error {
	for ; ; s.warmCycles++ {
		if s.warmCycles%8 == 0 {
			s.ing.Drain() // also publishes a snapshot
			if s.store.Stats().Coverage >= liveWarmCoverage {
				return nil
			}
		}
		for l, loop := range fx.loops {
			if s.warmCycles >= len(loop) {
				return fmt.Errorf("warm-up: loop %d's %d probe bodies left coverage at %.3f", l, len(loop), s.store.Stats().Coverage)
			}
			if err := s.post("/probes", loop[s.warmCycles].probes, 0, buf); err != nil {
				return fmt.Errorf("warm-up probes: %w", err)
			}
		}
	}
}

// post sends one body over the keep-alive client and reads the whole
// answer into buf. Any transport error or non-200 status is an error.
func (s *stack) post(path string, body []byte, reqID uint32, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(uint64(reqID), 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// close tears the stack down: listener and connections first, then the
// engine's and the ingestor's goroutines.
func (s *stack) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // the listener is local and idle by now; Close below is the fallback
		cancel()
		s.srv.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.ing != nil {
		s.ing.Close()
	}
}

// setUps performs a run's complete set-ups, one after the other, and keeps
// their times. A set-up's time is the program's own time over its stages
// (see avail.own), so a set-up the neighbours interrupted reads like one
// they left alone; the run reports the median.
type setUps struct {
	build func() (*stack, error)
	probe *probe
	log   func(format string, args ...any)
	times []float64
	// stages are the last set-up's stages, by the wall clock.
	stages stageTimes
}

// run performs n set-ups, each from a collected heap so that it does not
// pay for the garbage of the one before, tears down all but the last and
// returns that one.
func (u *setUps) run(n int) (*stack, error) {
	for i := 1; ; i++ {
		runtime.GC()
		s, err := u.build()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		av := u.probe.over(s.timed...)
		u.times = append(u.times, av.own().Seconds())
		u.stages = s.stages
		u.log("set-up %d: %.4f s (%.4f s by the wall clock, given %.3f of an undisturbed core)", i, av.own().Seconds(), av.wall.Seconds(), av.share)
		if i == n {
			return s, nil
		}
		s.close()
	}
}

// seconds is the median set-up.
func (u *setUps) seconds() float64 { return median(u.times) }
