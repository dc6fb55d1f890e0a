package traffic

import (
	"reflect"
	"testing"

	"deepod/internal/citysim"
	"deepod/internal/geo"
	"deepod/internal/obs"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// testPrior builds a constant prior matrix matching the source's grid dims.
func testPrior(g *roadnet.Graph, cellMeters, speed float64) (PriorFunc, int) {
	grid, err := geo.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		panic(err)
	}
	n := grid.NumCells()
	mat := make([]float64, n)
	for i := range mat {
		mat[i] = speed
	}
	return func(sec float64) *traj.ExternalFeatures {
		return &traj.ExternalFeatures{
			Weather:   int(sec) % 3,
			SpeedGrid: mat,
			GridRows:  grid.Rows,
			GridCols:  grid.Cols,
		}
	}, n
}

func featureFixture(t *testing.T, cfg FeatureConfig) (*FeatureSource, *Store, *roadnet.Graph) {
	t.Helper()
	g := testGraph(t)
	s, err := NewStore(g, StoreConfig{WindowSec: 60, Windows: 4, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	prior, _ := testPrior(g, 250, 8)
	fs, err := NewFeatureSource(g, s, prior, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, s, g
}

func TestFeatureSourceColdServesPrior(t *testing.T) {
	fs, _, _ := featureFixture(t, FeatureConfig{})
	ext, live := fs.External(100)
	if ext == nil {
		t.Fatal("nil features")
	}
	if live {
		t.Fatal("cold source reported live features")
	}
	for _, v := range ext.SpeedGrid {
		if v != 8 {
			t.Fatalf("cold source altered the prior: cell = %v", v)
		}
	}
	if fs.Epoch() != 0 {
		t.Fatalf("cold epoch = %d, want 0", fs.Epoch())
	}
}

func TestFeatureSourceMergesLiveSpeeds(t *testing.T) {
	fs, s, g := featureFixture(t, FeatureConfig{MinCoverage: 1e-9})
	// Saturate edge 0 with slow traffic (2 m/s) around sim-time 100.
	s.Record(0, 120, 60, 100)
	s.Publish(100)
	ext, live := fs.External(100)
	if !live {
		t.Fatal("merged features not reported as live")
	}
	// The cells crossed by edge 0 must now read below the 8 m/s prior.
	changed := 0
	for ci, edges := range fs.cellEdges {
		touches := false
		for _, e := range edges {
			if e == 0 {
				touches = true
			}
		}
		v := ext.SpeedGrid[ci]
		if touches && v < 8 {
			changed++
		}
		if !touches && v != 8 {
			// Cells whose edges have no data keep the prior.
			for _, e := range edges {
				if _, has := s.Snapshot().Speed(e); has {
					touches = true
				}
			}
			if !touches {
				t.Fatalf("cell %d without live data changed: %v", ci, v)
			}
		}
	}
	if changed == 0 {
		t.Fatal("no cell picked up the live slowdown")
	}
	if fs.Epoch() == 0 {
		t.Fatal("live epoch still 0")
	}
	_ = g
}

func TestFeatureSourceStaleFallsBack(t *testing.T) {
	fs, s, _ := featureFixture(t, FeatureConfig{MinCoverage: 1e-9, StaleAfterSec: 120})
	s.Record(0, 120, 60, 100)
	s.Publish(100)
	// Departure 1h after the newest probe: live layer says nothing.
	ext, liveFlag := fs.External(100 + 3600)
	if liveFlag {
		t.Fatal("stale source reported live features")
	}
	for _, v := range ext.SpeedGrid {
		if v != 8 {
			t.Fatalf("stale source altered the prior: cell = %v", v)
		}
	}
	// A departure near the data still merges.
	ext, liveFlag = fs.External(150)
	if !liveFlag {
		t.Fatal("fresh departure not reported as live")
	}
	live := false
	for _, v := range ext.SpeedGrid {
		if v != 8 {
			live = true
		}
	}
	if !live {
		t.Fatal("fresh departure did not merge live data")
	}
}

func TestFeatureSourceLowCoverageFallsBack(t *testing.T) {
	fs, s, _ := featureFixture(t, FeatureConfig{MinCoverage: 0.99})
	s.Record(0, 120, 60, 100)
	s.Publish(100)
	ext, live := fs.External(100)
	if live {
		t.Fatal("sub-coverage source reported live features")
	}
	for _, v := range ext.SpeedGrid {
		if v != 8 {
			t.Fatalf("sub-coverage source altered the prior: cell = %v", v)
		}
	}
}

func TestFeatureSourceMergeCached(t *testing.T) {
	fs, s, _ := featureFixture(t, FeatureConfig{MinCoverage: 1e-9, Registry: obs.NewRegistry()})
	s.Record(0, 120, 60, 100)
	s.Publish(100)
	a, _ := fs.External(100)
	b, _ := fs.External(101)
	if &a.SpeedGrid[0] != &b.SpeedGrid[0] {
		t.Fatal("same snapshot + prior produced two merge allocations")
	}
	// Weather must still track the request, not the cached matrix.
	if a.Weather == b.Weather {
		t.Fatalf("weather frozen by the merge cache: %d vs %d", a.Weather, b.Weather)
	}
	// A new snapshot invalidates the cached matrix.
	s.Record(0, 600, 60, 110)
	s.Publish(110)
	c, _ := fs.External(110)
	if &c.SpeedGrid[0] == &a.SpeedGrid[0] {
		t.Fatal("stale merged matrix served after a new snapshot")
	}
}

// TestFeatureSourceLiveAllocs: on an unchanged snapshot and prior matrix,
// a live answer is the cached bundle itself, so it allocates nothing; a
// prior with another weather gets its own weather on the same matrix.
func TestFeatureSourceLiveAllocs(t *testing.T) {
	g := testGraph(t)
	s, err := NewStore(g, StoreConfig{WindowSec: 60, Windows: 4, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	perSec, _ := testPrior(g, cellMeters, 8)
	prior := perSec(0) // one bundle for every departure, like a touched gridder period
	fs, err := NewFeatureSource(g, s, func(float64) *traj.ExternalFeatures { return prior }, FeatureConfig{MinCoverage: 1e-9, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(0, 120, 60, 100)
	s.Publish(100)
	first, live := fs.External(100)
	if !live {
		t.Fatal("merged features not reported as live")
	}
	if a := testing.AllocsPerRun(1000, func() {
		if ext, _ := fs.External(101); ext != first {
			t.Fatal("an unchanged snapshot answered another bundle")
		}
	}); a != 0 {
		t.Fatalf("live External on an unchanged snapshot: %v allocs, want 0", a)
	}
	other := *prior
	other.Weather = prior.Weather + 1
	fs.prior = func(float64) *traj.ExternalFeatures { return &other }
	ext, _ := fs.External(102)
	if ext.Weather != other.Weather || &ext.SpeedGrid[0] != &first.SpeedGrid[0] || first.Weather != prior.Weather {
		t.Fatalf("weather %d on matrix %p, want %d on the cached %p (the cached bundle's weather %d)",
			ext.Weather, &ext.SpeedGrid[0], other.Weather, &first.SpeedGrid[0], first.Weather)
	}
}

// TestNewFeatureSourceRejectsMismatchedPrior: a prior built on another
// speed-grid cell would make every estimate fall back to it, so building
// the source over it must fail instead of serving the prior in silence.
func TestNewFeatureSourceRejectsMismatchedPrior(t *testing.T) {
	g := testGraph(t)
	s, err := NewStore(g, StoreConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	live, err := geo.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []float64{200, 400} {
		prior, n := testPrior(g, cell, 8)
		if n == live.NumCells() {
			t.Fatalf("a %v m grid has the live grid's %d cells: pick another cell", cell, n)
		}
		if _, err := NewFeatureSource(g, s, prior, FeatureConfig{Registry: obs.NewRegistry()}); err == nil {
			t.Errorf("a prior on a %v m grid was accepted", cell)
		}
	}
	none := func(float64) *traj.ExternalFeatures { return nil }
	if _, err := NewFeatureSource(g, s, none, FeatureConfig{Registry: obs.NewRegistry()}); err == nil {
		t.Error("a prior with no matrix was accepted")
	}
	prior, _ := testPrior(g, cellMeters, 8)
	if _, err := NewFeatureSource(g, s, prior, FeatureConfig{Registry: obs.NewRegistry()}); err != nil {
		t.Errorf("a prior on the live grid was rejected: %v", err)
	}
}

// TestFeatureSourceCellsMatchSpeedGridder holds the live layer's per-cell
// edge lists to the speed gridder's on chengdu-s: a live cell must average
// the edges of the prior cell it replaces, in the same order.
func TestFeatureSourceCellsMatchSpeedGridder(t *testing.T) {
	ccfg, err := roadnet.CityPreset("chengdu-s")
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := citysim.NewTraffic(g, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	gridder, err := citysim.NewSpeedGridder(sim, cellMeters, 300)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(g, StoreConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFeatureSource(g, s, gridder.External, FeatureConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// The gridder's lists are unexported in its own package; reflect reads
	// them without widening its API.
	want := reflect.ValueOf(gridder).Elem().FieldByName("cellEdges")
	if want.Len() != len(fs.cellEdges) {
		t.Fatalf("gridder has %d cells, feature source %d", want.Len(), len(fs.cellEdges))
	}
	listed := 0
	for ci, got := range fs.cellEdges {
		w := want.Index(ci)
		if w.Len() != len(got) {
			t.Fatalf("cell %d: gridder lists %d edges, feature source %d", ci, w.Len(), len(got))
		}
		for j, e := range got {
			if w.Index(j).Int() != int64(e) {
				t.Fatalf("cell %d entry %d: gridder edge %d, feature source edge %d", ci, j, w.Index(j).Int(), e)
			}
		}
		listed += len(got)
	}
	if listed < g.NumEdges() {
		t.Fatalf("only %d cell entries for %d edges", listed, g.NumEdges())
	}
}
