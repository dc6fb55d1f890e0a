package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
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
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{5, 12, 40, 200} {
		ref.Observe(v)
	}
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
	m, calib, oldBytes := calibCheckpoint(t)
	g := m.g
	if !bytes.Contains(oldBytes, []byte("Calib")) {
		t.Fatal("the old-format stream carries no calibration set; the test proves nothing")
	}
	loaded, err := Load(bytes.NewReader(oldBytes), g)
	if err != nil {
		t.Fatalf("old-format checkpoint refused: %v", err)
	}
	for i := range calib {
		od := &calib[i]
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

// calibCheckpoint trains a tiny model with a reference distribution and
// encodes it in the format that carried a calibration OD set: a Calib
// field after RefDist, holding the model's first 16 ODs, which it returns.
func calibCheckpoint(tb testing.TB) (*Model, []traj.MatchedOD, []byte) {
	tb.Helper()
	m, recs := trainedTinyModel(tb, 60)
	ref := metrics.NewRefDist(nil)
	for _, v := range []float64{5, 12, 40, 200} {
		ref.Observe(v)
	}
	m.SetRefDist(ref)
	old := struct {
		Config    Config
		TimeScale float64
		NumEdges  int
		Params    nn.Snapshot
		RefDist   *metrics.RefDist
		Calib     []traj.MatchedOD
	}{m.cfg, m.timeScale, m.g.NumEdges(), m.ps.Save(), m.refDist, nil}
	for i := range recs[:16] {
		old.Calib = append(old.Calib, recs[i].Matched)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		tb.Fatal(err)
	}
	return m, old.Calib, buf.Bytes()
}

// FuzzLoadCheckpoint feeds Load corrupted checkpoints, seeded with the
// old-format one TestLoadCheckpointWithCalibField loads and the current
// format. Load must return an error, or a model with a valid configuration
// and time scale that answers without panicking; a corrupt configuration
// must not make it allocate past what the file carries.
func FuzzLoadCheckpoint(f *testing.F) {
	m, ods, old := calibCheckpoint(f)
	f.Add(old)
	var cur bytes.Buffer
	if err := m.Save(&cur); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	f.Add(oversizedCheckpoint(f, m))
	g := m.g
	f.Fuzz(func(t *testing.T, b []byte) {
		loaded, err := Load(bytes.NewReader(b), g)
		if err != nil {
			if loaded != nil {
				t.Fatalf("Load returned a model with its error %v", err)
			}
			return
		}
		if err := loaded.cfg.Validate(); err != nil {
			t.Fatalf("loaded an invalid config: %v", err)
		}
		if !(loaded.timeScale > 0) || math.IsInf(loaded.timeScale, 1) {
			t.Fatalf("loaded the time scale %v", loaded.timeScale)
		}
		for i := range ods[:4] {
			loaded.Estimate(&ods[i])
		}
	})
}

// oversizedCheckpoint is m's checkpoint with a road-segment embedding size
// of 2⁴⁰: its Ws table alone would be far past what the file carries.
func oversizedCheckpoint(tb testing.TB, m *Model) []byte {
	tb.Helper()
	s := savedModel{Config: m.cfg, TimeScale: m.timeScale, NumEdges: m.g.NumEdges(), Params: m.ps.Save()}
	s.Config.Ds = 1 << 40
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A checkpoint whose config asks for layers its weights do not fill is
// refused before the model allocates them.
func TestLoadRejectsOversizedConfig(t *testing.T) {
	m, _ := trainedTinyModel(t, 60)
	_, err := Load(bytes.NewReader(oversizedCheckpoint(t, m)), m.g)
	if err == nil || !strings.Contains(err.Error(), `"Ws"`) {
		t.Fatalf("oversized config: err = %v, want a refusal naming Ws", err)
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

// TestLoadRejectsCorruptCheckpoint: a checkpoint with a NaN or infinite
// weight, or a time scale that is zero or NaN, fails Load with an error that
// names the parameter or the scale, instead of loading or panicking.
func TestLoadRejectsCorruptCheckpoint(t *testing.T) {
	g, _ := testWorld(t, 5)
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeScale(300)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good savedModel
	if err := gob.NewDecoder(&buf).Decode(&good); err != nil {
		t.Fatal(err)
	}
	params := m.Params().All()
	early, late := params[0].Name, params[len(params)-1].Name
	for _, tc := range []struct {
		name string
		edit func(s *savedModel)
		want string
	}{
		{"NaN weight", func(s *savedModel) { s.Params[late][0] = math.NaN() }, late},
		{"Inf weight", func(s *savedModel) { s.Params[early][1] = math.Inf(-1) }, early},
		{"zero scale", func(s *savedModel) { s.TimeScale = 0 }, "time scale 0 "},
		{"NaN scale", func(s *savedModel) { s.TimeScale = math.NaN() }, "time scale NaN "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			s.Params = make(nn.Snapshot, len(good.Params))
			for k, v := range good.Params {
				s.Params[k] = append([]float64(nil), v...)
			}
			tc.edit(&s)
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(&s); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&b, g)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error %v, want one naming %q", err, tc.want)
			}
		})
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&b, g); err != nil {
		t.Fatalf("the unedited checkpoint no longer loads: %v", err)
	}
}
