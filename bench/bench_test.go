package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deepod"
	"deepod/internal/roadnet"
)

var (
	testCityOnce sync.Once
	testCity     *deepod.City
	testCells    *roadnet.EdgeIndex
)

// fixtureCity builds the serving city once for the fixture tests.
func fixtureCity(t *testing.T) (*deepod.City, *roadnet.EdgeIndex) {
	t.Helper()
	testCityOnce.Do(func() {
		c, err := deepod.BuildCity(cityName, deepod.CityOptions{Orders: serveOrders, Seed: citySeed})
		if err != nil {
			t.Fatal(err)
		}
		cells, err := roadnet.NewEdgeIndex(c.Graph, cacheCell)
		if err != nil {
			t.Fatal(err)
		}
		testCity, testCells = c, cells
	})
	if testCity == nil {
		t.Fatal("city did not build")
	}
	return testCity, testCells
}

// flatten renders everything a fixture would put on the wire, in order.
func flatten(fx *fixture) []byte {
	var b bytes.Buffer
	for _, e := range fx.estimates {
		b.Write(e.body)
	}
	for _, w := range fx.warm {
		b.Write(w)
	}
	for _, loop := range fx.loops {
		for i := range loop {
			cy := &loop[i]
			b.Write(cy.probes)
			for _, p := range cy.pairs {
				b.Write(appendEstimateBody(nil, fx.origins[p[0]], fx.dests[p[1]], cy.depart))
			}
		}
	}
	return b.Bytes()
}

// liveTestCycles sizes the small probe pools the fixture tests render.
const liveTestCycles = 40

// testFixture renders a workload's whole fixture, the live pool included.
func testFixture(t *testing.T, wl string, seed int64, cycles int) *fixture {
	t.Helper()
	c, cells := fixtureCity(t)
	fx, err := buildFixture(wl, c, cells, seed)
	if err == nil && wl == "estimate-live" {
		err = fx.renderLive(c, seed, clients, cycles)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", wl, seed, err)
	}
	return fx
}

// Every body is a pure function of the seed: the same seed renders the
// same bytes, another seed renders others.
func TestFixtureDeterministic(t *testing.T) {
	for _, wl := range []string{"estimate-cold", "estimate-hot", "estimate-live"} {
		build := func(seed int64) []byte { return flatten(testFixture(t, wl, seed, liveTestCycles)) }
		a, again, b := build(1), build(1), build(2)
		if len(a) == 0 {
			t.Fatalf("%s: empty fixture", wl)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 rendered two different fixtures", wl)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 rendered the same fixture", wl)
		}
	}
}

// How long the live probe pool is depends on the machine's speed; what a
// loop sends first must not. A longer pool is the shorter one continued.
func TestLivePoolIsAPrefixOfALongerOne(t *testing.T) {
	short := testFixture(t, "estimate-live", 1, liveTestCycles)
	long := testFixture(t, "estimate-live", 1, 4*liveTestCycles)
	for l := range short.loops {
		if len(short.loops[l]) != liveTestCycles || len(long.loops[l]) != 4*liveTestCycles {
			t.Fatalf("loop %d: %d and %d cycles, want %d and %d", l, len(short.loops[l]), len(long.loops[l]), liveTestCycles, 4*liveTestCycles)
		}
		long.loops[l] = long.loops[l][:liveTestCycles]
	}
	if !bytes.Equal(flatten(short), flatten(long)) {
		t.Error("the first cycles of a longer pool differ from the shorter pool")
	}
}

func TestFixtureShapes(t *testing.T) {
	_, cells := fixtureCity(t)
	cold := testFixture(t, "estimate-cold", 1, 0)
	if len(cold.estimates) != coldBodies || len(cold.warm) != warmRequests || len(cold.checked) != checkedAnswers {
		t.Errorf("cold: %d bodies, %d warm, %d checked", len(cold.estimates), len(cold.warm), len(cold.checked))
	}
	// A body must be what serve decodes back into the OD the harness keeps.
	var req struct {
		Origin, Dest struct{ X, Y float64 }
		DepartSec    float64 `json:"depart_sec"`
	}
	e := cold.estimates[0]
	if err := json.Unmarshal(e.body, &req); err != nil {
		t.Fatalf("body %s: %v", e.body, err)
	}
	if req.Origin.X != e.od.Origin.X || req.Dest.Y != e.od.Dest.Y || req.DepartSec != e.od.DepartSec {
		t.Errorf("body %s does not round-trip to %+v", e.body, e.od)
	}

	hot := testFixture(t, "estimate-hot", 1, 0)
	seen := map[[2]int]bool{}
	for _, e := range hot.estimates {
		k := [2]int{cells.CellIndex(e.od.Origin), cells.CellIndex(e.od.Dest)}
		if seen[k] {
			t.Errorf("hot: two bodies share cache cells %v", k)
		}
		seen[k] = true
	}
	if len(hot.estimates) != hotBodies {
		t.Errorf("hot: %d bodies, want %d", len(hot.estimates), hotBodies)
	}

	live := testFixture(t, "estimate-live", 1, liveTestCycles)
	if len(live.loops) != clients {
		t.Fatalf("live: %d loops, want %d", len(live.loops), clients)
	}
	lastSeen := map[string]float64{}
	owner := map[string]int{}
	for l, loop := range live.loops {
		for _, cy := range loop {
			lines := strings.Split(strings.TrimSpace(string(cy.probes)), "\n")
			if len(lines) != probesPerBody {
				t.Fatalf("live: body of %d probes, want %d", len(lines), probesPerBody)
			}
			for _, ln := range lines {
				var p struct {
					Vehicle string
					T       float64
				}
				if err := json.Unmarshal([]byte(ln), &p); err != nil {
					t.Fatalf("probe %s: %v", ln, err)
				}
				// A vehicle belongs to one loop, and its time only runs forward
				// there: whatever the loops' relative progress, the server
				// never sees one of its probes out of order.
				if o, ok := owner[p.Vehicle]; ok && o != l {
					t.Fatalf("live: vehicle %s is in loops %d and %d", p.Vehicle, o, l)
				}
				owner[p.Vehicle] = l
				if prev, ok := lastSeen[p.Vehicle]; ok && p.T <= prev {
					t.Fatalf("live: loop %d vehicle %s goes from t=%v to t=%v", l, p.Vehicle, prev, p.T)
				}
				lastSeen[p.Vehicle] = p.T
				if depart, err := strconv.ParseFloat(string(cy.depart), 64); err != nil || p.T > depart {
					t.Fatalf("live: probe at %v, body departs at %s (%v)", p.T, cy.depart, err)
				}
			}
		}
	}
}

// Each workload, for one second, through the same run() main calls: the
// last stdout line must parse, be correct, have no failed operation, and
// carry every metric BENCHMARK.json names for that mode, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each; skipped with -short")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(endToEnd) != len(endToEndMetrics) || len(perLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the program reports %d+%d",
			len(endToEnd), len(perLayer), len(endToEndMetrics), len(perLayerMetrics))
	}

	type mode struct {
		workload string
		trace    string
		want     map[string]string
	}
	var modes []mode
	for _, wl := range bf.Workloads {
		modes = append(modes, mode{wl.Name, "0", endToEnd})
	}
	// Every workload prints the whole per-layer list; one serving and the
	// training traced run cover both code paths that fill it.
	modes = append(modes, mode{"estimate-live", "1", perLayer}, mode{"train", "1", perLayer})
	for _, md := range modes {
		md := md
		t.Run(md.workload+"/trace"+md.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", md.workload, "--seed", "1", "--seconds", "1", "--trace", md.trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out line
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, stderr.String())
			}
			if len(out.Metrics) != len(md.want) {
				t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(out.Metrics), len(md.want))
			}
			for name, unit := range md.want {
				got, ok := out.Metrics[name]
				switch {
				case !ok:
					t.Errorf("metric %s not printed", name)
				case got.Unit != unit:
					t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, got.Unit, unit)
				case md.trace == "0" && got.Value <= 0:
					t.Errorf("end-to-end metric %s = %v, must be positive", name, got.Value)
				}
			}
			if md.trace == "1" {
				if _, err := os.Stat(outDir + "/" + md.workload + ".trace.json"); err != nil {
					t.Errorf("traced run left no span file: %v", err)
				}
			}
		})
	}
}

func TestCompareReadsResultLines(t *testing.T) {
	root := t.TempDir()
	write := func(name string, scale float64) string {
		dir := root + "/" + name
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads {
			var file bytes.Buffer
			for seed := 1; seed <= 4; seed++ {
				l := line{Correct: true, Attempted: 1, Metrics: map[string]reported{}}
				for _, m := range endToEndMetrics {
					v := 100 + float64(seed)
					if m.name == "latency_ms" {
						v *= scale
					}
					l.Metrics[m.name] = reported{Value: v, Unit: m.unit}
				}
				b, err := json.Marshal(l)
				if err != nil {
					t.Fatal(err)
				}
				file.Write(append(b, '\n'))
			}
			if err := os.WriteFile(dir+"/"+wl+".jsonl", file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	a, same, slow := write("a", 1), write("same", 1), write("slow", 1.5)
	var out bytes.Buffer
	if err := runCompare(a, same, &out); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 2+len(workloads)*len(endToEndMetrics) {
		t.Errorf("%d lines, want a header, a summary and one row per workload and metric\n%s", rows, out.String())
	}
	out.Reset()
	if err := runCompare(a, slow, &out); err == nil {
		t.Errorf("latency up 50%% passed\n%s", out.String())
	}
	if got := strings.Count(out.String(), verdictWorse+"\n"); got != len(workloads) {
		t.Errorf("%d rows worse, want latency_ms on each of %d workloads\n%s", got, len(workloads), out.String())
	}
}
