package core

import (
	"math"
	"testing"

	"deepod/internal/dataset"
	"deepod/internal/nn"
	"deepod/internal/traj"
)

// TestTrainEvalForwardConsistency: the training tape (recording gradients)
// and the eval tape must compute identical forward values for M_O, M_E and
// M_T over a whole shard — a guard against eval-mode shortcuts diverging
// from training math.
func TestTrainEvalForwardConsistency(t *testing.T) {
	g, recs := testWorld(t, 100)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained weights suffice: consistency is a structural property.
	m.SetTimeScale(300)
	shard := make([]*traj.TripRecord, len(split.Test))
	for i := range split.Test {
		shard[i] = &split.Test[i]
	}
	codeT, stT, yT := m.shardForward(nn.NewTape(), shard, true)
	codeE, stE, yE := m.shardForward(nn.NewEvalTape(), shard, true)
	for name, pair := range map[string][2]*nn.Node{"code": {codeT, codeE}, "stcode": {stT, stE}, "yhat": {yT, yE}} {
		for k, v := range pair[0].Value.Data {
			if math.Float64bits(v) != math.Float64bits(pair[1].Value.Data[k]) {
				t.Fatalf("%s differs between train and eval tapes at %d", name, k)
			}
		}
	}
}

// TestCodeDimensionsTied: code and stcode must share a latent space
// (d8m == d4m, §4.6), verified on the actual encoder outputs.
func TestCodeDimensionsTied(t *testing.T) {
	g, recs := testWorld(t, 60)
	split, err := dataset.ChronoSplit(recs, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	code, stcode, _ := m.shardForward(nn.NewEvalTape(), []*traj.TripRecord{&split.Train[0]}, true)
	if !code.Value.SameShape(stcode.Value) {
		t.Fatalf("code shape %v != stcode shape %v", code.Value.Shape, stcode.Value.Shape)
	}
	if code.Value.Shape[1] != m.cfg.D8m() {
		t.Fatalf("code width %d != D8m %d", code.Value.Shape[1], m.cfg.D8m())
	}
}

// TestTimeIntervalEncoderSpans: Δd follows Formula 4 and long intervals are
// clamped without panicking.
func TestTimeIntervalEncoderSpans(t *testing.T) {
	g, _ := testWorld(t, 5)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	steps := []*traj.Step{
		{Enter: 60, Exit: 120},      // within one slot
		{Enter: 0, Exit: 10 * 3600}, // across many slots (clamped)
	}
	v := m.encodeTimeIntervals(nn.NewEvalTape(), steps)
	if v.Value.Shape[0] != 2 || v.Value.Shape[1] != m.cfg.D2m {
		t.Fatalf("tcode shape %v, want [2 %d]", v.Value.Shape, m.cfg.D2m)
	}
	for _, x := range v.Value.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("tcode contains invalid values")
		}
	}
}

// TestEmbedMethodVariantsTrain exercises the §5 embedding-method knob.
func TestEmbedMethodVariantsTrain(t *testing.T) {
	g, recs := testWorld(t, 90)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"node2vec", "deepwalk", "line"} {
		cfg := tinyConfig()
		cfg.Epochs = 1
		cfg.EmbedMethod = method
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 2}); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	bad := tinyConfig()
	bad.EmbedMethod = "gnn"
	if _, err := New(bad, g); err == nil {
		t.Fatal("unknown embed method accepted")
	}
}

// TestAuxOneWayTrains exercises the one-way binding option.
func TestAuxOneWayTrains(t *testing.T) {
	g, recs := testWorld(t, 90)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 1
	cfg.AuxWeight = 0.3
	cfg.AuxOneWay = true
	m, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 3}); err != nil {
		t.Fatal(err)
	}
	if y := m.Estimate(&split.Test[0].Matched); math.IsNaN(y) || y < 0 {
		t.Fatalf("one-way model produced %v", y)
	}
}
