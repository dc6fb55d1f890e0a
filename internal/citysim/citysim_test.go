package citysim

import (
	"math"
	"sync"
	"testing"

	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
)

func testCity(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.SmallCity("sim", 2))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testTraffic(t testing.TB) *Traffic {
	t.Helper()
	tf, err := NewTraffic(testCity(t), 14*timeslot.SecondsPerDay, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestTrafficValidation(t *testing.T) {
	if _, err := NewTraffic(testCity(t), 0, 1); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestCongestionBounds(t *testing.T) {
	tf := testTraffic(t)
	g := tf.Graph()
	for e := 0; e < g.NumEdges(); e += 7 {
		for h := 0.0; h < 48; h += 1.5 {
			c := tf.Congestion(roadnet.EdgeID(e), h*3600)
			if c <= 0 || c > 1 {
				t.Fatalf("congestion out of (0,1]: %v at edge %d hour %.1f", c, e, h)
			}
		}
	}
}

func TestRushHourSlowsTraffic(t *testing.T) {
	tf := testTraffic(t)
	g := tf.Graph()
	// Average across edges: 8:30 weekday must be slower than 3:00.
	var rush, night float64
	for e := 0; e < g.NumEdges(); e++ {
		rush += tf.Speed(roadnet.EdgeID(e), 8.5*3600)
		night += tf.Speed(roadnet.EdgeID(e), 3*3600)
	}
	if rush >= night {
		t.Fatalf("rush-hour speed %.1f not below night speed %.1f", rush, night)
	}
}

func TestWeeklyPeriodicity(t *testing.T) {
	tf := testTraffic(t)
	e := roadnet.EdgeID(3)
	// Tuesday 8:30 of week 1 vs week 2 should be similar (same weekday
	// profile, modulo weather and ripple); Tuesday vs Sunday must differ
	// more on average over edges.
	var sameDiff, crossDiff float64
	g := tf.Graph()
	for id := 0; id < g.NumEdges(); id += 3 {
		e = roadnet.EdgeID(id)
		tue1 := tf.Congestion(e, (1*24+8.5)*3600)
		tue2 := tf.Congestion(e, ((7+1)*24+8.5)*3600)
		sun1 := tf.Congestion(e, (6*24+8.5)*3600)
		sameDiff += math.Abs(tue1 - tue2)
		crossDiff += math.Abs(tue1 - sun1)
	}
	if sameDiff >= crossDiff {
		t.Fatalf("weekly periodicity absent: same-day diff %.3f >= cross-day diff %.3f", sameDiff, crossDiff)
	}
}

func TestWeatherDeterministicAndBounded(t *testing.T) {
	tf := testTraffic(t)
	for h := 0; h < 14*24; h += 5 {
		w := tf.Weather(float64(h) * 3600)
		if w < 0 || w >= WeatherTypes {
			t.Fatalf("weather %d out of range", w)
		}
		if w2 := tf.Weather(float64(h) * 3600); w2 != w {
			t.Fatal("weather not deterministic")
		}
	}
}

func TestEntryWaitPositiveAndRushSensitive(t *testing.T) {
	tf := testTraffic(t)
	e := roadnet.EdgeID(5)
	night := tf.EntryWait(e, 3*3600)
	rush := tf.EntryWait(e, 8.5*3600)
	if night <= 0 {
		t.Fatalf("night entry wait %v", night)
	}
	if rush <= night {
		t.Fatalf("rush wait %v not above night wait %v", rush, night)
	}
}

func TestTraverseTimeMatchesSpeed(t *testing.T) {
	tf := testTraffic(t)
	g := tf.Graph()
	e := roadnet.EdgeID(0)
	// At constant conditions (short traversal) time ≈ length/speed.
	at := 3 * 3600.0
	got := tf.TraverseTime(e, 0, 1, at)
	want := g.Edges[e].Length / tf.Speed(e, at)
	if math.Abs(got-want) > want*0.2 {
		t.Fatalf("TraverseTime %v, naive %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards span accepted")
		}
	}()
	tf.TraverseTime(e, 0.8, 0.2, at)
}

func TestSpeedGridder(t *testing.T) {
	tf := testTraffic(t)
	sg, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	if sg.grid.Rows <= 0 || sg.grid.Cols <= 0 {
		t.Fatal("degenerate grid")
	}
	m := sg.MatrixAt(10 * 3600)
	if len(m) != sg.grid.Rows*sg.grid.Cols {
		t.Fatalf("matrix size %d, want %d", len(m), sg.grid.Rows*sg.grid.Cols)
	}
	var positive int
	for _, v := range m {
		if v < 0 {
			t.Fatalf("negative speed %v", v)
		}
		if v > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("speed matrix is all zeros")
	}
	// Same period → cached, identical slice.
	m2 := sg.MatrixAt(10*3600 + 100)
	if &m[0] != &m2[0] {
		t.Fatal("matrix not cached within a period")
	}
	ext := sg.External(10 * 3600)
	if ext.GridRows != sg.grid.Rows || ext.GridCols != sg.grid.Cols || len(ext.SpeedGrid) != len(m) {
		t.Fatalf("external features inconsistent: %+v", ext)
	}
	if _, err := NewSpeedGridder(tf, 300, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewSpeedGridder(tf, 300, 1000); err == nil {
		t.Fatal("period that does not divide a week accepted")
	}
}

// TestSpeedGridderBoundedPastHorizon: past the weather horizon the field
// repeats every week, so a departure there gets the matrix of its period of
// the week after the horizon, with the values of the field at its own time,
// and no stream of distinct far-future departures (a client's depart_sec)
// grows the cache past one week of periods beyond the horizon.
func TestSpeedGridderBoundedPastHorizon(t *testing.T) {
	tf := testTraffic(t)
	sg, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	week := float64(timeslot.SecondsPerWeek)
	base := tf.Horizon() + 7.5*3600 + 100 // past the horizon's last weather hour
	m := sg.MatrixAt(base)
	for k := 1.0; k <= 3; k++ {
		far := base + k*week
		if got := sg.MatrixAt(far); &got[0] != &m[0] {
			t.Fatalf("%v weeks on: a matrix of its own, want its period of the first week past the horizon", k)
		}
		start := math.Floor(far/sg.PeriodSec) * sg.PeriodSec
		for ci, edges := range sg.cellEdges {
			if len(edges) == 0 {
				continue
			}
			var want float64
			for _, e := range edges {
				want += tf.Speed(e, start)
			}
			want /= float64(len(edges))
			if math.Abs(m[ci]-want) > 1e-9*want {
				t.Fatalf("%v weeks on, cell %d: %v, the field there gives %v", k, ci, m[ci], want)
			}
		}
	}
	for i := 0; i < 20000; i++ {
		sg.MatrixAt(base + 3163*float64(i)*week + 37*float64(i))
	}
	sg.MatrixAt(1e300)
	horizon := int(math.Ceil(tf.Horizon()/sg.PeriodSec)) + int(math.Ceil(3600/sg.PeriodSec))
	if n, bound := len(sg.cache), horizon+int(week/sg.PeriodSec); n > bound {
		t.Fatalf("%d cached matrices after far-future departures, want at most %d", n, bound)
	}
}

// TestSpeedGridderConcurrent is the -race test of MatrixAt: goroutines that
// start on distinct departures and walk every period race on first touches
// (serve's External hook does this from every connection goroutine), and
// must all converge on one slice per period — the identity the traffic-code
// memo and traffic.mergedEntry key on — with the sequential values.
func TestSpeedGridderConcurrent(t *testing.T) {
	tf := testTraffic(t)
	sg, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, periods = 8, 96
	got := make([][]*float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*float64, periods)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < periods; i++ {
				p := (i + g*periods/goroutines) % periods
				got[g][p] = &sg.External(float64(p)*sg.PeriodSec + float64(g)).SpeedGrid[0]
			}
		}(g)
	}
	wg.Wait()
	for p := 0; p < periods; p++ {
		m := sg.MatrixAt(float64(p) * sg.PeriodSec)
		for g := range got {
			if got[g][p] != &m[0] {
				t.Fatalf("period %d: goroutine %d got a different slice", p, g)
			}
		}
		for i, v := range ref.MatrixAt(float64(p) * sg.PeriodSec) {
			if math.Float64bits(v) != math.Float64bits(m[i]) {
				t.Fatalf("period %d cell %d: %v under contention, %v alone", p, i, m[i], v)
			}
		}
	}
}

// TestFieldConcurrent is the -race test of the field's two caches: the
// per-period scratch of a MatrixAt first touch and the time memo of a
// TravelCost closure. Goroutines interleave first touches of one shared
// gridder with two closures of their own each, read at repeated and fresh
// times and through time-dependent Dijkstra, and must return the bits the
// same calls return one goroutine at a time.
func TestFieldConcurrent(t *testing.T) {
	tf := testTraffic(t)
	g := tf.Graph()
	work := func(sg *SpeedGridder, w int) []uint64 {
		var out []uint64
		put := func(v float64) { out = append(out, math.Float64bits(v)) }
		c1, c2 := tf.TravelCost(), tf.TravelCost()
		for i := 0; i < 48; i++ {
			sec := float64((w*48+i*5)%(14*96)) * sg.PeriodSec
			for _, v := range sg.MatrixAt(sec) {
				put(v)
			}
			for k := 0; k < 6; k++ {
				e := roadnet.EdgeID((w*131 + i*17 + k*7) % g.NumEdges())
				put(c1(e, sec+float64(k/2)))
				put(c2(e, sec+float64(k)))
			}
			src := roadnet.VertexID((w*7 + i) % g.NumVertices())
			dst := roadnet.VertexID((w*13 + i*3 + 1) % g.NumVertices())
			if p, err := roadnet.ShortestPath(g, src, dst, sec, c1); err == nil {
				put(p.Cost)
			}
		}
		return out
	}

	const workers = 6
	want := make([][]uint64, workers)
	seq, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	for w := range want {
		want[w] = work(seq, w)
	}

	sg, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = work(sg, w)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != len(want[w]) {
			t.Fatalf("goroutine %d: %d values concurrently, %d alone", w, len(got[w]), len(want[w]))
		}
		for i := range got[w] {
			if got[w][i] != want[w][i] {
				t.Fatalf("goroutine %d value %d: %#x concurrently, %#x alone", w, i, got[w][i], want[w][i])
			}
		}
	}
}

func TestGenerateOrders(t *testing.T) {
	tf := testTraffic(t)
	sg, err := NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(tf, sg, DefaultOrderConfig(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 60 {
		t.Fatalf("generated %d records, want 60", len(recs))
	}
	g := tf.Graph()
	for i := range recs {
		r := &recs[i]
		if err := r.Trajectory.Validate(g); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.TravelSec <= 0 || r.TravelSec > 3*3600 {
			t.Fatalf("record %d travel time %v", i, r.TravelSec)
		}
		path := r.Trajectory.Path
		if d := path[len(path)-1].Exit - path[0].Enter; math.Abs(d-r.TravelSec) > 1e-6 {
			t.Fatalf("record %d: trajectory duration %v != travel time %v", i, d, r.TravelSec)
		}
		if r.Matched.OriginEdge != r.Trajectory.Path[0].Edge {
			t.Fatalf("record %d: matched origin edge mismatch", i)
		}
		if r.OD.External == nil || len(r.OD.External.SpeedGrid) == 0 {
			t.Fatalf("record %d missing external features", i)
		}
		if r.RawPoints < 2 {
			t.Fatalf("record %d has %d GPS points", i, r.RawPoints)
		}
		if i > 0 && recs[i].OD.DepartSec < recs[i-1].OD.DepartSec {
			t.Fatal("records not sorted by departure")
		}
		if r.Trajectory.Length(g) < gen.cfg.MinTripMeters {
			t.Fatalf("record %d shorter than MinTripMeters", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tf := testTraffic(t)
	gen1, err := NewGenerator(tf, nil, DefaultOrderConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := gen1.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := NewGenerator(tf, nil, DefaultOrderConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gen2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].TravelSec != r2[i].TravelSec || r1[i].OD.DepartSec != r2[i].OD.DepartSec {
			t.Fatalf("generation not deterministic at record %d", i)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	tf := testTraffic(t)
	bad := DefaultOrderConfig(0, 1)
	if _, err := NewGenerator(tf, nil, bad); err == nil {
		t.Fatal("zero orders accepted")
	}
	bad = DefaultOrderConfig(5, 1)
	bad.GPSPeriodSec = 0
	if _, err := NewGenerator(tf, nil, bad); err == nil {
		t.Fatal("zero GPS period accepted")
	}
}
