package core

import (
	"math"
	"testing"
	"time"

	"deepod/internal/citysim"
	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// testWorld builds a small deterministic city + orders for reuse by tests.
func testWorld(t testing.TB, numOrders int) (*roadnet.Graph, []traj.TripRecord) {
	t.Helper()
	cfg := roadnet.SmallCity("test", 5)
	cfg.Rows, cfg.Cols = 6, 6
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatalf("GenerateCity: %v", err)
	}
	tf, err := citysim.NewTraffic(g, 14*24*3600, 5)
	if err != nil {
		t.Fatalf("NewTraffic: %v", err)
	}
	grid, err := citysim.NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatalf("NewSpeedGridder: %v", err)
	}
	ocfg := citysim.DefaultOrderConfig(numOrders, 5)
	gen, err := citysim.NewGenerator(tf, grid, ocfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g, recs
}

func tinyConfig() Config {
	c := SmallConfig()
	c.Ds, c.Dt = 8, 8
	c.D1m, c.D2m, c.D3m, c.D4m = 16, 8, 16, 8
	c.D5m, c.D6m, c.D7m, c.D9m = 16, 8, 16, 16
	c.Dh, c.Dtraf = 16, 8
	c.SlotDelta = 30 * time.Minute
	c.BatchSize = 32
	c.Epochs = 4
	c.EmbedWalks, c.EmbedEpochs = 4, 2
	return c
}

func TestConfigValidation(t *testing.T) {
	good := SmallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("SmallConfig invalid: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	bad := good
	bad.Ds = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero Ds accepted")
	}
	bad = good
	bad.AuxWeight = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("AuxWeight > 1 accepted")
	}
	bad = good
	bad.TimeInit = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("bad TimeInit accepted")
	}
	if good.D8m() != good.D4m {
		t.Fatal("D8m must equal D4m")
	}
}

func TestNewRejectsContradictoryAblation(t *testing.T) {
	g, _ := testWorld(t, 5)
	c := tinyConfig()
	c.NoSpatial, c.NoTemporal = true, true
	if _, err := New(c, g); err == nil {
		t.Fatal("N-sp + N-tp without NoTrajectory should be rejected")
	}
}

// TestTrainImprovesOverMean is the core end-to-end check: a briefly trained
// DeepOD must clearly beat the predict-the-training-mean baseline on held
// out data.
func TestTrainImprovesOverMean(t *testing.T) {
	g, recs := testWorld(t, 700)
	split, err := dataset.PaperSplit(recs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(split.Train, split.Valid, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 || len(stats.Curve) == 0 {
		t.Fatalf("no training happened: %+v", stats)
	}

	var meanTrain float64
	for i := range split.Train {
		meanTrain += split.Train[i].TravelSec
	}
	meanTrain /= float64(len(split.Train))

	actual := make([]float64, len(split.Test))
	pred := make([]float64, len(split.Test))
	constPred := make([]float64, len(split.Test))
	for i := range split.Test {
		actual[i] = split.Test[i].TravelSec
		pred[i] = m.Estimate(&split.Test[i].Matched)
		constPred[i] = meanTrain
	}
	modelMAE := metrics.MAE(actual, pred)
	constMAE := metrics.MAE(actual, constPred)
	if modelMAE >= constMAE*0.9 {
		t.Fatalf("DeepOD MAE %.1f not clearly better than mean baseline %.1f", modelMAE, constMAE)
	}
	for _, p := range pred {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("invalid prediction %v", p)
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	g, recs := testWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	od := &split.Test[0].Matched
	a, b := m.Estimate(od), m.Estimate(od)
	if a != b {
		t.Fatalf("Estimate not deterministic: %v vs %v", a, b)
	}
}

func TestTrainingDeterministicAcrossRuns(t *testing.T) {
	g, recs := testWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		cfg := tinyConfig()
		cfg.Epochs = 1
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(split.Train, split.Valid, TrainOptions{}); err != nil {
			t.Fatal(err)
		}
		return m.Estimate(&split.Test[0].Matched)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different models: %v vs %v", a, b)
	}
}

func TestAblationVariantsTrain(t *testing.T) {
	g, recs := testWorld(t, 100)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*Config){
		"N-st":    func(c *Config) { c.NoTrajectory = true },
		"N-sp":    func(c *Config) { c.NoSpatial = true },
		"N-tp":    func(c *Config) { c.NoTemporal = true },
		"N-other": func(c *Config) { c.NoExternal = true },
		"T-one":   func(c *Config) { c.TimeInit = TimeOneHot },
		"T-day":   func(c *Config) { c.TimeInit = TimeDayGraph },
		"T-stamp": func(c *Config) { c.TimeInit = TimeStamp },
		"R-one":   func(c *Config) { c.RoadInit = RoadOneHot },
	}
	for name, mod := range variants {
		mod := mod
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Epochs = 1
			mod(&cfg)
			m, err := New(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 3}); err != nil {
				t.Fatal(err)
			}
			y := m.Estimate(&split.Test[0].Matched)
			if math.IsNaN(y) || y < 0 {
				t.Fatalf("variant %s produced invalid estimate %v", name, y)
			}
		})
	}
}

func TestExternalFeaturesOptionalAtEstimate(t *testing.T) {
	g, recs := testWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 2}); err != nil {
		t.Fatal(err)
	}
	od := split.Test[0].Matched
	od.External = nil // estimation must still work without external data
	y := m.Estimate(&od)
	if math.IsNaN(y) || y < 0 {
		t.Fatalf("estimate without external features: %v", y)
	}
}

// TimeScale returns the target normalization constant in seconds, for the
// tests that compare it across trainings and checkpoints.
func (m *Model) TimeScale() float64 { return m.timeScale }

func TestTimeScaleGuards(t *testing.T) {
	g, _ := testWorld(t, 5)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeScale(120)
	if m.TimeScale() != 120 {
		t.Fatal("SetTimeScale did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive time scale accepted")
		}
	}()
	m.SetTimeScale(0)
}

func TestModelSizeReporting(t *testing.T) {
	g, _ := testWorld(t, 5)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumWeights() <= 0 {
		t.Fatal("model has no weights")
	}
	if m.Params().SizeBytes() != m.NumWeights()*8 {
		t.Fatal("size bytes mismatch")
	}
}
