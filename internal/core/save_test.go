package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g, recs := testWorld(t, 120)
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
	if _, err := m.Train(split.Train, split.Valid, TrainOptions{MaxSteps: 3}); err != nil {
		t.Fatal(err)
	}
	ref := metrics.RefDistOf([]float64{5, 12, 40, 200}, nil)
	m.SetRefDist(ref)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range split.Test {
		od := &split.Test[i].Matched
		if a, b := m.Estimate(od), loaded.Estimate(od); a != b {
			t.Fatalf("loaded model diverges on record %d: %v vs %v", i, a, b)
		}
	}
	if loaded.TimeScale() != m.TimeScale() {
		t.Fatal("time scale not restored")
	}
	got := loaded.RefDist()
	if got == nil || got.Total() != ref.Total() || len(got.Uppers) != len(ref.Uppers) {
		t.Fatalf("reference error distribution not restored: %+v", got)
	}
}

// Checkpoints written before the RefDist field existed must still load —
// gob ignores absent fields — and report a nil reference.
func TestLoadWithoutRefDist(t *testing.T) {
	g, recs := testWorld(t, 120)
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
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil { // refDist never set → nil on disk
		t.Fatal(err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RefDist() != nil {
		t.Fatal("nil reference distribution round-tripped as non-nil")
	}
	// SetRefDist guards the checkpoint against invalid distributions.
	loaded.SetRefDist(&metrics.RefDist{Uppers: []float64{2, 1}, Counts: make([]uint64, 3)})
	if loaded.RefDist() != nil {
		t.Fatal("invalid reference distribution accepted")
	}
}

// Checkpoints written while the format carried a calibration OD set (a
// Calib field after RefDist) must keep loading and answer exactly as the
// model that was saved; what Save writes back no longer has the field.
func TestLoadCheckpointWithCalibField(t *testing.T) {
	m, recs := trainedTinyModel(t, 60)
	g := m.g
	m.SetRefDist(metrics.RefDistOf([]float64{5, 12, 40, 200}, nil))

	old := struct {
		Config    Config
		TimeScale float64
		NumEdges  int
		Params    nn.Snapshot
		RefDist   *metrics.RefDist
		Calib     []traj.MatchedOD
	}{m.cfg, m.timeScale, g.NumEdges(), m.ps.Save(), m.refDist, nil}
	for i := range recs[:16] {
		old.Calib = append(old.Calib, recs[i].Matched)
	}
	var oldBuf bytes.Buffer
	if err := gob.NewEncoder(&oldBuf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(oldBuf.Bytes(), []byte("Calib")) {
		t.Fatal("the old-format stream carries no calibration set; the test proves nothing")
	}
	loaded, err := Load(&oldBuf, g)
	if err != nil {
		t.Fatalf("old-format checkpoint refused: %v", err)
	}
	for i := range old.Calib {
		od := &old.Calib[i]
		if a, b := m.Estimate(od), loaded.Estimate(od); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("old-format checkpoint diverges on OD %d: %v vs %v", i, a, b)
		}
	}

	// Save → Load → Save is stable. The parameter map reaches gob in map
	// order, so the bytes themselves differ from run to run (they always
	// have); the length and the decoded content may not.
	var first, second bytes.Buffer
	if err := loaded.Save(&first); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(first.Bytes(), []byte("Calib")) {
		t.Fatal("Save still writes a Calib field")
	}
	reloaded, err := Load(bytes.NewReader(first.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if second.Len() != first.Len() {
		t.Fatalf("second save is %d bytes, first was %d", second.Len(), first.Len())
	}
	var a, b savedModel
	if err := gob.NewDecoder(&first).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&second).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Save → Load → Save changed the checkpoint's content")
	}
}

func TestLoadRejectsWrongNetwork(t *testing.T) {
	g, recs := testWorld(t, 120)
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
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	otherCfg := roadnet.SmallCity("other", 99)
	otherCfg.Rows, otherCfg.Cols = 4, 4
	other, err := roadnet.GenerateCity(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("loading onto a mismatched network accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g, _ := testWorld(t, 5)
	if _, err := Load(bytes.NewReader([]byte("not a model")), g); err == nil {
		t.Fatal("garbage accepted")
	}
}
