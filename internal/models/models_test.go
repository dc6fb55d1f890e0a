package models

import (
	"math"
	"testing"
	"time"

	"deepod/internal/citysim"
	"deepod/internal/core"
	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// world builds a deterministic city + split shared by the baseline tests.
func world(t testing.TB, orders int) (*roadnet.Graph, dataset.Split) {
	t.Helper()
	cfg := roadnet.SmallCity("mdl", 6)
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := citysim.NewTraffic(g, 14*timeslot.SecondsPerDay, 6)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := citysim.NewSpeedGridder(tf, 300, 1800)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := citysim.NewGenerator(tf, grid, citysim.DefaultOrderConfig(orders, 6))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(recs)
	if err != nil {
		t.Fatal(err)
	}
	return g, split
}

// constMAE returns the mean-predictor MAE on test, the bar every baseline
// must clear.
func constMAE(train, test []traj.TripRecord) float64 {
	var mean float64
	for i := range train {
		mean += train[i].TravelSec
	}
	mean /= float64(len(train))
	actual := make([]float64, len(test))
	pred := make([]float64, len(test))
	for i := range test {
		actual[i] = test[i].TravelSec
		pred[i] = mean
	}
	return metrics.MAE(actual, pred)
}

func evalMAE(est Estimator, test []traj.TripRecord) float64 {
	actual := make([]float64, len(test))
	pred := make([]float64, len(test))
	for i := range test {
		actual[i] = test[i].TravelSec
		pred[i] = est.Estimate(&test[i].Matched)
	}
	return metrics.MAE(actual, pred)
}

func TestAllBaselinesBeatMeanPredictor(t *testing.T) {
	g, split := world(t, 700)
	bar := constMAE(split.Train, split.Test)
	builders := map[string]func() Trainable{
		"TEMP": func() Trainable { return NewTEMP(g) },
		"LR":   func() Trainable { return NewLinReg(g) },
		"GBM":  func() Trainable { return NewGBM(g) },
		"STNN": func() Trainable {
			m := NewSTNN(g)
			m.Epochs = 8
			m.BatchSize = 16
			m.LREvery = 4
			return m
		},
		"MURAT": func() Trainable {
			m := NewMURAT(g)
			m.Epochs = 8
			m.BatchSize = 16
			m.LREvery = 4
			m.EmbedWalks = 4
			return m
		},
	}
	for name, build := range builders {
		build := build
		t.Run(name, func(t *testing.T) {
			m := build()
			if m.Name() != name {
				t.Fatalf("Name() = %q, want %q", m.Name(), name)
			}
			if err := m.Train(split.Train, split.Valid); err != nil {
				t.Fatal(err)
			}
			mae := evalMAE(m, split.Test)
			if mae >= bar {
				t.Errorf("%s MAE %.1f does not beat mean predictor %.1f", name, mae, bar)
			}
			if m.SizeBytes() <= 0 {
				t.Errorf("%s reports zero size", name)
			}
			if m.TrainTime() < 0 {
				t.Errorf("%s reports negative training time", name)
			}
			// Every prediction must be finite and non-negative.
			for i := range split.Test {
				y := m.Estimate(&split.Test[i].Matched)
				if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
					t.Fatalf("%s produced invalid estimate %v", name, y)
				}
			}
		})
	}
}

func TestTEMPWidensSearch(t *testing.T) {
	g, split := world(t, 120)
	m := NewTEMP(g)
	m.RadiusMeters = 1 // absurdly tight: forces widening
	if err := m.Train(split.Train, nil); err != nil {
		t.Fatal(err)
	}
	y := m.Estimate(&split.Test[0].Matched)
	if y <= 0 {
		t.Fatalf("TEMP fallback produced %v", y)
	}
}

func TestTEMPSizeProportionalToData(t *testing.T) {
	g, split := world(t, 200)
	small := NewTEMP(g)
	if err := small.Train(split.Train[:50], nil); err != nil {
		t.Fatal(err)
	}
	big := NewTEMP(g)
	if err := big.Train(split.Train, nil); err != nil {
		t.Fatal(err)
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("TEMP size should grow with stored trips")
	}
}

func TestLinRegErrors(t *testing.T) {
	g, split := world(t, 120)
	m := NewLinReg(g)
	if err := m.Train(split.Train[:3], nil); err == nil {
		t.Fatal("LR trained on 3 records")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("untrained LR did not panic on Estimate")
		}
	}()
	NewLinReg(g).Estimate(&split.Test[0].Matched)
}

func TestLinRegRecoversLinearFunction(t *testing.T) {
	// On synthetic records whose travel time is exactly linear in the basic
	// features, LR must fit near-perfectly.
	g, split := world(t, 260)
	feat := NewFeaturizer(g)
	recs := append([]traj.TripRecord(nil), split.Train...)
	target := func(r *traj.TripRecord) float64 {
		fs := feat.BasicFeatures(&r.Matched)
		return 100 + 400*fs[0] + 250*fs[3] + 60*fs[4]
	}
	for i := range recs {
		recs[i].TravelSec = target(&recs[i])
	}
	m := NewLinReg(g)
	if err := m.Train(recs, nil); err != nil {
		t.Fatal(err)
	}
	for i := range recs[:40] {
		want := target(&recs[i])
		got := m.Estimate(&recs[i].Matched)
		if math.Abs(got-want) > 1 {
			t.Fatalf("LR misfits a linear target: got %v want %v", got, want)
		}
	}
}

func TestGBMImprovesWithTrees(t *testing.T) {
	g, split := world(t, 400)
	few := NewGBM(g)
	few.NumTrees = 2
	if err := few.Train(split.Train, nil); err != nil {
		t.Fatal(err)
	}
	many := NewGBM(g)
	many.NumTrees = 60
	if err := many.Train(split.Train, nil); err != nil {
		t.Fatal(err)
	}
	// On TRAINING data more trees always fit better (boosting monotonicity).
	fewMAE := evalMAE(few, split.Train)
	manyMAE := evalMAE(many, split.Train)
	if manyMAE >= fewMAE {
		t.Fatalf("more trees did not reduce training error: %v vs %v", manyMAE, fewMAE)
	}
}

func TestGBMValidation(t *testing.T) {
	g, split := world(t, 120)
	m := NewGBM(g)
	if err := m.Train(split.Train[:5], nil); err == nil {
		t.Fatal("GBM trained on 5 records")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("untrained GBM did not panic")
		}
	}()
	NewGBM(g).Estimate(&split.Test[0].Matched)
}

// TestDeepBaselineStats holds ST-NN, MURAT and DeepOD to the one clock of
// core.Fit: it starts at Train entry, so pre-training (MURAT's DeepWalk,
// DeepOD's node2vec) is inside Elapsed and before the first StepPoint;
// every StepPoint's At is measured, monotone and within Elapsed;
// ConvergedStep is the first point within 2 % of the best validation MAE
// and ConvergedAt is that point's At; a baseline's TrainTime is Elapsed.
func TestDeepBaselineStats(t *testing.T) {
	g, split := world(t, 300)
	s := NewSTNN(g)
	s.Epochs = 2
	s.EvalEvery = 2
	mu := NewMURAT(g)
	mu.Epochs = 2
	mu.EvalEvery = 3
	mu.EmbedWalks = 2
	cfg := core.SmallConfig()
	cfg.Epochs = 2
	cfg.EmbedWalks, cfg.EmbedEpochs = 2, 1
	deep, err := core.New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name      string
		train     func() (*core.TrainStats, error)
		pretrains bool // whether Train pre-trains embeddings before its first step
	}
	baseline := func(m interface {
		Trainable
		Stats() *core.TrainStats
	}) func() (*core.TrainStats, error) {
		return func() (*core.TrainStats, error) {
			if m.Stats() != nil || m.TrainTime() != 0 {
				t.Fatalf("%s reports a run before Train", m.Name())
			}
			err := m.Train(split.Train, split.Valid)
			if err == nil && m.TrainTime() != m.Stats().Elapsed {
				t.Errorf("%s TrainTime %v, Elapsed %v", m.Name(), m.TrainTime(), m.Stats().Elapsed)
			}
			return m.Stats(), err
		}
	}
	runs := []run{
		{"STNN", baseline(s), false},
		{"MURAT", baseline(mu), true},
		{"DeepOD", func() (*core.TrainStats, error) {
			return deep.Train(split.Train, split.Valid, core.TrainOptions{EvalEvery: 4})
		}, true},
	}
	for _, r := range runs {
		before := time.Now()
		st, err := r.train()
		wall := time.Since(before)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if st == nil || st.Steps == 0 || len(st.Curve) < 2 {
			t.Fatalf("%s stats missing: %+v", r.name, st)
		}
		if st.EmbedElapsed <= 0 || st.Elapsed > wall {
			t.Errorf("%s: EmbedElapsed %v, Elapsed %v of a %v Train call", r.name, st.EmbedElapsed, st.Elapsed, wall)
		}
		if r.pretrains && wall-st.Elapsed >= st.EmbedElapsed {
			t.Errorf("%s: Elapsed %v of a %v Train call leaves out at least the %v of pre-training", r.name, st.Elapsed, wall, st.EmbedElapsed)
		}
		best := math.Inf(1)
		prev := core.StepPoint{At: st.EmbedElapsed}
		for i, p := range st.Curve {
			if math.IsNaN(p.ValMAE) || p.Step < prev.Step || p.Step > st.Steps || p.At <= prev.At || p.At > st.Elapsed {
				t.Fatalf("%s curve[%d] = %+v after %+v (Steps %d, Elapsed %v)", r.name, i, p, prev, st.Steps, st.Elapsed)
			}
			best = math.Min(best, p.ValMAE)
			prev = p
		}
		if st.FinalValMAE != prev.ValMAE {
			t.Errorf("%s FinalValMAE %v, last point %v", r.name, st.FinalValMAE, prev.ValMAE)
		}
		for _, p := range st.Curve {
			if p.ValMAE <= best*1.02 {
				if st.ConvergedStep != p.Step || st.ConvergedAt != p.At {
					t.Errorf("%s converged at step %d, %v; the first point within 2%% of the best is step %d, %v",
						r.name, st.ConvergedStep, st.ConvergedAt, p.Step, p.At)
				}
				break
			}
		}
	}
}

// TestDeepBaselineNeedsValidation: the deep baselines measure their curve
// on valid, so an empty one is an error, as it is for DeepOD, and so is an
// empty train.
func TestDeepBaselineNeedsValidation(t *testing.T) {
	g, split := world(t, 120)
	for _, m := range []Trainable{NewSTNN(g), NewMURAT(g)} {
		if err := m.Train(split.Train, nil); err == nil {
			t.Errorf("%s trained without validation records", m.Name())
		}
		if err := m.Train(nil, split.Valid); err == nil {
			t.Errorf("%s trained without training records", m.Name())
		}
	}
}

func TestFeaturizer(t *testing.T) {
	g, split := world(t, 60)
	f := NewFeaturizer(g)
	od := &split.Test[0].Matched
	fs := f.Features(od)
	if len(fs) != NumFeatures {
		t.Fatalf("Features length %d, want %d", len(fs), NumFeatures)
	}
	bs := f.BasicFeatures(od)
	if len(bs) != NumBasicFeatures {
		t.Fatalf("BasicFeatures length %d, want %d", len(bs), NumBasicFeatures)
	}
	// Coordinates normalized, sin/cos bounded.
	for i := 0; i < 4; i++ {
		if fs[i] < -0.1 || fs[i] > 1.1 {
			t.Fatalf("coordinate feature %d = %v out of [0,1]", i, fs[i])
		}
	}
	if fs[6] < -1 || fs[6] > 1 || fs[7] < -1 || fs[7] > 1 {
		t.Fatalf("hour features out of range: %v %v", fs[6], fs[7])
	}
	// Distances non-negative, Manhattan ≥ Euclidean.
	if fs[4] < 0 || fs[5] < fs[4]-1e-9 {
		t.Fatalf("distance features inconsistent: euclid %v manhattan %v", fs[4], fs[5])
	}
	o, d := f.ODPoints(od)
	if o == d {
		t.Fatal("ODPoints returned identical points for a real trip")
	}
}

func TestRouteETA(t *testing.T) {
	g, split := world(t, 500)
	r := NewRouteETA(g)
	if err := r.Train(split.Train, nil); err != nil {
		t.Fatal(err)
	}
	if r.Name() != "RouteETA" {
		t.Fatalf("Name = %q", r.Name())
	}
	if r.Coverage() <= 0 || r.Coverage() > 1 {
		t.Fatalf("Coverage = %v", r.Coverage())
	}
	if r.SizeBytes() <= 0 {
		t.Fatal("zero size")
	}
	bar := constMAE(split.Train, split.Test)
	mae := evalMAE(r, split.Test)
	if mae >= bar {
		t.Errorf("RouteETA MAE %.1f does not beat mean predictor %.1f", mae, bar)
	}
	for i := range split.Test {
		y := r.Estimate(&split.Test[i].Matched)
		if y <= 0 || math.IsNaN(y) {
			t.Fatalf("invalid estimate %v", y)
		}
	}
}

func TestRouteETAValidation(t *testing.T) {
	g, split := world(t, 120)
	r := NewRouteETA(g)
	if err := r.Train(nil, nil); err == nil {
		t.Fatal("empty training accepted")
	}
	r.BinHours = 5 // does not divide 24
	if err := r.Train(split.Train, nil); err == nil {
		t.Fatal("BinHours=5 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("untrained RouteETA did not panic")
		}
	}()
	NewRouteETA(g).Estimate(&split.Test[0].Matched)
}
