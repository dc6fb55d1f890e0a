package deepod

import (
	"math"
	"testing"
	"time"
)

func testCity(t testing.TB) *City {
	t.Helper()
	c, err := BuildCity("chengdu-s", CityOptions{Orders: 150, HorizonDays: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCityDefaultsAndValidation(t *testing.T) {
	c := testCity(t)
	if c.Graph.NumEdges() == 0 || len(c.Records) != 150 {
		t.Fatalf("city malformed: %d edges, %d records", c.Graph.NumEdges(), len(c.Records))
	}
	if len(c.Split.Train)+len(c.Split.Valid)+len(c.Split.Test) != 150 {
		t.Fatal("split loses records")
	}
	if _, err := BuildCity("gotham", CityOptions{}); err == nil {
		t.Fatal("unknown city accepted")
	}
	// Determinism across builds.
	c2, err := BuildCity("chengdu-s", CityOptions{Orders: 150, HorizonDays: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Records[0].TravelSec != c2.Records[0].TravelSec {
		t.Fatal("BuildCity not deterministic")
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	c := testCity(t)
	cfg := SmallConfig()
	cfg.Ds, cfg.Dt = 8, 8
	cfg.D1m, cfg.D2m, cfg.D3m, cfg.D4m = 16, 8, 16, 8
	cfg.D5m, cfg.D6m, cfg.D7m, cfg.D9m = 16, 8, 16, 16
	cfg.Dh, cfg.Dtraf = 16, 8
	cfg.Epochs = 1
	cfg.EmbedWalks, cfg.EmbedEpochs = 1, 1
	m, stats, err := TrainWithStats(cfg, c, &TrainOptions{MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 {
		t.Fatal("no steps recorded")
	}
	mae, mape, mare := Evaluate(apiEstimator{m}, c.Split.Test)
	if mae <= 0 || mape <= 0 || mare <= 0 {
		t.Fatalf("degenerate metrics: %v %v %v", mae, mape, mare)
	}
}

type apiEstimator struct{ m *Model }

func (e apiEstimator) Name() string                   { return "DeepOD" }
func (e apiEstimator) Estimate(od *MatchedOD) float64 { return e.m.Estimate(od) }

func TestBaselineFactory(t *testing.T) {
	c := testCity(t)
	for _, name := range []string{"TEMP", "LR", "GBM", "STNN", "MURAT"} {
		b, err := Baseline(name, c.Graph)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Baseline(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := Baseline("oracle", c.Graph); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestMatchODRoundTrip(t *testing.T) {
	c := testCity(t)
	matcher, err := NewMatcher(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Matching a record's own OD must land near the record's matched edges.
	rec := &c.Split.Test[0]
	matched, err := MatchOD(matcher, rec.OD)
	if err != nil {
		t.Fatal(err)
	}
	op := c.Graph.PointAlongEdge(matched.OriginEdge, matched.RStart)
	want := rec.OD.Origin
	if d := math.Hypot(op.X-want.X, op.Y-want.Y); d > 60 {
		t.Fatalf("matched origin %v m from true origin", d)
	}
	if matched.DepartSec != rec.OD.DepartSec {
		t.Fatal("departure time lost in matching")
	}
}

func TestCityOptionsDefaults(t *testing.T) {
	c, err := BuildCity("chengdu-s", CityOptions{Orders: 60, HorizonDays: 7, GridPeriod: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ext := c.Grid.External(3600)
	if ext == nil || len(ext.SpeedGrid) == 0 {
		t.Fatal("external features missing")
	}
}

func TestEvaluateAgainstKnownPredictor(t *testing.T) {
	c := testCity(t)
	// A constant predictor lets us verify the metric wiring end to end.
	constEst := fixedEstimator{value: 300}
	mae, mape, mare := Evaluate(constEst, c.Split.Test[:10])
	var wantMAE, sumAbs, sumAct float64
	for i := 0; i < 10; i++ {
		d := c.Split.Test[i].TravelSec - 300
		if d < 0 {
			d = -d
		}
		wantMAE += d / 10
		sumAbs += d
		sumAct += c.Split.Test[i].TravelSec
	}
	if math.Abs(mae-wantMAE) > 1e-9 {
		t.Fatalf("Evaluate MAE %v, want %v", mae, wantMAE)
	}
	if math.Abs(mare-sumAbs/sumAct) > 1e-9 {
		t.Fatalf("Evaluate MARE %v, want %v", mare, sumAbs/sumAct)
	}
	if mape <= 0 {
		t.Fatalf("MAPE %v", mape)
	}
}

type fixedEstimator struct{ value float64 }

func (f fixedEstimator) Name() string                { return "const" }
func (f fixedEstimator) Estimate(*MatchedOD) float64 { return f.value }

func TestScalesExposed(t *testing.T) {
	for name, sc := range map[string]func() interface{ CityList() []string }{
		"tiny":  func() interface{ CityList() []string } { return TinyScale() },
		"shape": func() interface{ CityList() []string } { return ShapeScale() },
		"small": func() interface{ CityList() []string } { return SmallScale() },
	} {
		if len(sc().CityList()) == 0 {
			t.Fatalf("scale %s has no cities", name)
		}
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	c := testCity(t)
	bad := SmallConfig()
	bad.Ds = 0
	if _, err := Train(bad, c, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, _, err := TrainWithStats(bad, c, nil); err == nil {
		t.Fatal("invalid config accepted by TrainWithStats")
	}
}

// TestMatchODAllocs: the request path's matching allocates its two
// mapmatch.point spans and nothing else — no candidate slice, no dedup map,
// no sort closure, no label strings.
func TestMatchODAllocs(t *testing.T) {
	c := testCity(t)
	matcher, err := NewMatcher(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	od := c.Split.Test[0].OD
	if a := testing.AllocsPerRun(200, func() {
		if _, err := MatchOD(matcher, od); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Fatalf("MatchOD allocates %v times per call, want <= 2", a)
	}
}
