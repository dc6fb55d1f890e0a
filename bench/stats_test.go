package main

import (
	"math"
	"os"
	"testing"
	"time"

	"deepod/internal/infer"
)

// The harness resolves BENCHMARK.json and bench/out against the repository
// root, where `go run ./bench` runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileCeilNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.99, 10}, {0.90, 9}, {0.91, 10}, {0, 1}, {1, 10},
	} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) on the same lists.
	for _, c := range []struct {
		vs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}, 11.75, 10.375, 13.25},
	} {
		if got := median(c.vs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.vs, got, c.med)
		}
		q1, q3 := quartiles(c.vs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// A window the neighbours took a third of: every operation counts towards
// the rate and the mean latency, which are taken over the program's own time.
func TestSummariseOverOwnTime(t *testing.T) {
	const window = 10 * time.Second
	var samples []sample
	for k := 0; k < 10; k++ {
		n, lat := 1000, 100*time.Microsecond
		if k >= 7 {
			n, lat = 200, 900*time.Microsecond // a starved second
		}
		for i := 0; i < n; i++ {
			end := time.Duration(k)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			samples = append(samples, sample{end: end, lat: lat, units: 1})
		}
	}
	samples = append(samples, sample{end: window + time.Millisecond, lat: time.Second, units: 1}) // closed window: dropped
	// The probe's bursts took 1 s of the 10 and were given 2/3 of a core: the
	// program's own time is 9 s × 2/3 = 6 s, six tenths of the wall clock.
	av := undisturbed(window)
	av.probeWall, av.share = time.Second, 2.0/3
	st := summarise(samples, av)
	if !near(st.rawRate, 760) || !near(st.rate, 7600/6.0) {
		t.Errorf("rate = %v/s by the wall clock, %v/s of own time; want 760 and %v", st.rawRate, st.rate, 7600/6.0)
	}
	wantMean := (7000*0.1 + 600*0.9) / 7600
	if !near(st.rawMeanMs, wantMean) || !near(st.meanMs, 0.6*wantMean) {
		t.Errorf("mean = %v ms by the wall clock, %v ms of own time; want %v and %v", st.rawMeanMs, st.meanMs, wantMean, 0.6*wantMean)
	}
	if !near(st.p50ms, 0.1) || !near(st.p99ms, 0.9) {
		t.Errorf("p50 %v ms, p99 %v ms; want 0.1 and 0.9", st.p50ms, st.p99ms)
	}
	// 50 slices, 35 at 1000/s and 15 at 200/s: quartiles 200 and 1000.
	if !near(st.sliceIQRPct, 80) {
		t.Errorf("slice IQR = %v%%, want 80", st.sliceIQRPct)
	}
}

// What the probe saw over some intervals: only bursts that began inside
// them count; per kind of unit the share is units at reference speed over
// the time they took, and the yardstick is their geometric mean.
func TestProbeOver(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cpu := time.Duration(probeUnits) * refUnit[refCPU] // the timed units of a burst nothing interrupted
	net := time.Duration(probeUnits) * refUnit[refNet]
	mk := func(ms int, cpuSlow, netSlow time.Duration) burst {
		return burst{start: at(ms), wall: cpuSlow*cpu + netSlow*net, units: probeUnits,
			timed: [numRefs]time.Duration{cpuSlow * cpu, netSlow * net}}
	}
	p := &probe{bursts: []burst{
		mk(5, 1, 1),
		mk(15, 3, 1), // two thirds of the in-process units' time stolen
		mk(25, 9, 9), // outside both intervals
		mk(35, 2, 8),
		mk(45, 2, 6),
	}}
	a := p.over(interval{at(0), at(20)}, interval{at(30), at(50)})
	if a.wall != 40*time.Millisecond || a.probeWall != 8*cpu+16*net || a.bursts != 4 {
		t.Errorf("wall %v, probe %v, %d bursts; want 40ms, %v, 4", a.wall, a.probeWall, a.bursts, 8*cpu+16*net)
	}
	if !near(a.kinds[refCPU], 0.5) || !near(a.kinds[refNet], 0.25) || !near(a.share, math.Sqrt(0.125)) {
		t.Errorf("kinds %v, share %v; want 0.5, 0.25 and their geometric mean", a.kinds, a.share)
	}
	if want := time.Duration(float64(40*time.Millisecond-8*cpu-16*net) * math.Sqrt(0.125)); a.own() != want {
		t.Errorf("own time %v, want %v", a.own(), want)
	}
	// Without a probe, or without a burst, the wall clock stands.
	for _, a := range []avail{(*probe)(nil).over(interval{at(0), at(20)}), p.over(interval{at(26), at(30)})} {
		if a.share != 1 || a.own() != a.wall {
			t.Errorf("no burst: share %v, own %v of %v", a.share, a.own(), a.wall)
		}
	}
}

// A unit must not allocate: a unit that did would wait for, and work for,
// the program's garbage collector, and read slow whenever the program
// allocates much.
func TestProbeUnitsAllocateNothing(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.finish(); err != nil { // the unit's scratch is now this goroutine's alone
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, p.cpuUnit); n != 0 {
		t.Errorf("a CPU unit allocates %v times", n)
	}
}

// The probe itself: bursts at the set pace, each a plausible length.
func TestProbeRuns(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	time.Sleep(300 * time.Millisecond)
	end := time.Now()
	if err := p.finish(); err != nil {
		t.Fatal(err)
	}
	a := p.over(interval{start, end})
	if a.bursts < 5 || a.share <= 0 || a.share > 3 || a.own() <= 0 || a.own() > a.wall*3 {
		t.Errorf("after 300 ms: %+v", a)
	}
}

func TestSummariseCountsUnits(t *testing.T) {
	// 25 slices of 200 ms, one probe body of 32 accepted probes each 10 ms.
	var samples []sample
	for i := 0; i < 500; i++ {
		samples = append(samples, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: time.Millisecond, units: 32})
	}
	if st := summarise(samples, undisturbed(5*time.Second)); st.rate != 3200 {
		t.Errorf("rate = %v probes/s, want 3200", st.rate)
	}
}

func TestSliceWindow(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		n      int
	}{{14 * time.Second, 70}, {700 * time.Millisecond, 5}, {6 * time.Second, 30}} {
		n, each := sliceWindow(c.window)
		if n != c.n || each != c.window/time.Duration(c.n) {
			t.Errorf("sliceWindow(%v) = %d × %v, want %d slices", c.window, n, each, c.n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, 30, 25.5); !near(got, 44.5) {
		t.Errorf("selfTime = %v, want 44.5", got)
	}
	if got := selfTime(10); got != 10 {
		t.Errorf("selfTime without children = %v, want 10", got)
	}
}

// Synthetic spans of three requests — a cache hit, a lone miss and two
// misses answered by one fused batch — must come out as budget lines that
// sum, level by level, to the client mean.
func TestBudgetLinesSumToClientMean(t *testing.T) {
	tr := &tracer{epoch: time.Now(), spans: make([]span, 64)}
	us := func(v int64) int64 { return v * 1000 }
	add := func(name int, req uint32, n int, start, dur int64) {
		tr.record(name, req, n, tr.epoch.Add(time.Duration(us(start))), time.Duration(us(dur)))
	}
	// req 1: hit. client 50 = transport 20 + handle 30; handle = prior 1 + do 9 + self 20.
	add(spanExternalPrior, 0, 1, 11, 1)
	add(spanDo, 1, 1, 13, 9)
	add(spanHandle, 1, 1, 10, 30)
	add(spanClient, 1, 1, 0, 50)
	// req 2: lone miss. do 60 = wait 5 + match 10 + model 40 + self 5.
	add(spanExternalPrior, 0, 1, 101, 1)
	add(spanMatch, 2, 1, 108, 10)
	add(spanModel, 2, 1, 119, 40)
	add(spanDo, 2, 1, 103, 60)
	add(spanHandle, 2, 1, 100, 80)
	add(spanClient, 2, 1, 90, 100)
	// req 3 and 4: one fused batch of two (recorded under req 3), 30 us.
	add(spanExternalPrior, 0, 1, 201, 1)
	add(spanExternalPrior, 0, 1, 202, 1)
	add(spanMatch, 3, 1, 210, 10) // wait 7 from do start 203
	add(spanMatch, 4, 1, 220, 10) // wait 16 from do start 204
	add(spanModel, 3, 2, 231, 30)
	add(spanDo, 3, 1, 203, 60)
	add(spanDo, 4, 1, 204, 60)
	add(spanHandle, 3, 1, 200, 70)
	add(spanHandle, 4, 1, 200, 72)
	add(spanClient, 3, 1, 190, 95)
	add(spanClient, 4, 1, 190, 99)

	res := &result{correct: true, metrics: map[string]float64{}, log: os.Stderr}
	r := &estimateRun{tr: tr, res: res}
	win := measured{to: counters{spanMark: tr.mark(), eng: infer.Stats{Requests: 4, CacheHits: 1}}}
	clientMean := r.layerMetrics(tr.sums(0, tr.mark()), win, win)
	m := res.metrics
	if !res.correct {
		t.Fatal("layerMetrics failed the run")
	}
	for name, want := range map[string]float64{
		"serve.handle_us":         (30 + 80 + 70 + 72) / 4.0,
		"serve.external_prior_us": 1,
		"infer.do_us":             (9 + 60 + 60 + 60) / 4.0,
		"infer.queue_wait_us":     (5 + 7 + 16) / 4.0,
		"mapmatch.match_od_us":    30 / 4.0,
		"infer.batch_mean":        1.5,
		"infer.fused_share":       2.0 / 3,
		"infer.cache_hit_share":   0.25,
	} {
		if !near(m[name], want) {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if want := (50 + 100 + 95 + 99) / 4.0; !near(clientMean, want) {
		t.Errorf("client mean = %v, want %v", clientMean, want)
	}
	client := m["serve.transport_us"] + m["serve.self_us"] + m["serve.external_prior_us"] + m["infer.do_us"]
	if !near(client, clientMean) {
		t.Errorf("transport + serve.self + prior + infer.do = %v, client mean = %v", client, clientMean)
	}
	// The model span as the requests experienced it: 40 alone, and both
	// members of the fused batch wait its whole 30.
	model := (40 + 2*30) / 4.0
	do := m["infer.self_us"] + m["infer.queue_wait_us"] + m["mapmatch.match_od_us"] + m["traffic.external_us"] + model
	if !near(do, m["infer.do_us"]) {
		t.Errorf("infer lines and the model span sum to %v, infer.do = %v", do, m["infer.do_us"])
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 130, 90, 110, 65, 135, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", steady, steady, true, verdictOK},
		{"latency up 5% within 10%", steady, shift(steady, 1.05), true, verdictOK},
		{"latency up 15%", steady, shift(steady, 1.15), true, verdictWorse},
		{"rate down 15%", steady, shift(steady, 0.85), false, verdictWorse},
		{"rate up 15% is not worse", steady, shift(steady, 1.15), false, verdictOK},
		{"spread wider than the bound", noisy, noisy, true, verdictUnresolved},
		{"noisy but every run better", noisy, shift(noisy, 0.3), true, verdictOK},
	} {
		if got := judge(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
