// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) on the synthetic cities. Each experiment in
// Experiments runs on a Suite, which holds the worlds and the trained
// models they share, and returns its numbers as Rows, one value each in
// long format; its renderer lays the rows out as the paper's table or
// figure. cmd/ttebench runs and prints them.
//
// Absolute numbers differ from the paper (simulated city, CPU, reduced
// scale); the comparisons the paper draws — which method wins, the ablation
// ordering, the scalability and slot-size trends — are the reproduction
// target (see DESIGN.md §3).
package experiments

import (
	"time"

	"deepod/internal/core"
)

// Scale bundles the dataset and model sizes an experiment run uses. Tests,
// benchmarks and the ttebench CLI default to TinyScale.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// Orders per city preset.
	Orders map[string]int
	// HorizonDays is the simulated time span (the paper uses 61 days).
	HorizonDays int
	// Cfg is the DeepOD configuration template (per-experiment runs clone
	// and adjust it).
	Cfg core.Config
	// GridCellMeters / GridPeriod configure the traffic-condition grids.
	GridCellMeters float64
	GridPeriodSec  float64
	// EvalEvery is the validation cadence (steps) for convergence curves.
	EvalEvery int
	// Seed drives the world generation.
	Seed int64
	// CitySubset restricts experiments to these cities (nil = all three).
	CitySubset []string
}

// Cities returns the full preset list in report order.
func Cities() []string { return []string{"chengdu-s", "xian-s", "beijing-s"} }

// CityList returns the cities this scale covers (all presets when unset).
func (s Scale) CityList() []string {
	if len(s.CitySubset) > 0 {
		return s.CitySubset
	}
	return Cities()
}

// TinyScale runs every experiment in seconds. It checks plumbing, not
// learning quality: the datasets are far too small for the deep models to
// separate from the baselines (see ShapeScale for that).
func TinyScale() Scale {
	cfg := core.SmallConfig()
	cfg.Ds, cfg.Dt = 8, 8
	cfg.D1m, cfg.D2m, cfg.D3m, cfg.D4m = 16, 8, 16, 8
	cfg.D5m, cfg.D6m, cfg.D7m, cfg.D9m = 16, 8, 16, 16
	cfg.Dh, cfg.Dtraf = 16, 8
	cfg.SlotDelta = 30 * time.Minute
	cfg.BatchSize = 16
	cfg.Epochs = 2
	cfg.LREvery = 3
	cfg.EmbedWalks, cfg.EmbedEpochs = 2, 1
	return Scale{
		Name: "tiny",
		Orders: map[string]int{
			"chengdu-s": 300, "xian-s": 240, "beijing-s": 420,
		},
		HorizonDays:    14,
		Cfg:            cfg,
		GridCellMeters: 400,
		GridPeriodSec:  1800,
		EvalEvery:      8,
		Seed:           1,
	}
}

// ShapeScale is large enough for the deep models to beat the baselines on
// one city (chengdu-s): the scale the shape-assertion tests use.
func ShapeScale() Scale {
	cfg := core.SmallConfig()
	cfg.Ds, cfg.Dt = 8, 8
	cfg.D1m, cfg.D2m, cfg.D3m, cfg.D4m = 16, 8, 16, 8
	cfg.D5m, cfg.D6m, cfg.D7m, cfg.D9m = 16, 8, 16, 16
	cfg.Dh, cfg.Dtraf = 16, 8
	cfg.SlotDelta = 30 * time.Minute
	cfg.BatchSize = 32
	cfg.Epochs = 8
	cfg.LREvery = 4
	cfg.EmbedWalks, cfg.EmbedEpochs = 10, 5
	return Scale{
		Name: "shape",
		Orders: map[string]int{
			"chengdu-s": 3600,
		},
		HorizonDays:    35,
		Cfg:            cfg,
		GridCellMeters: 400,
		GridPeriodSec:  1800,
		EvalEvery:      16,
		Seed:           1,
		CitySubset:     []string{"chengdu-s"},
	}
}

// SmallScale is the full-strength three-city scale (ttebench -scale small):
// tens of minutes of total compute on one core, with the clearest
// separations between methods.
func SmallScale() Scale {
	cfg := core.SmallConfig()
	cfg.Epochs = 8
	cfg.LREvery = 4
	cfg.BatchSize = 64
	cfg.EmbedWalks, cfg.EmbedEpochs = 10, 5
	return Scale{
		Name: "small",
		Orders: map[string]int{
			"chengdu-s": 4500, "xian-s": 3500, "beijing-s": 6500,
		},
		HorizonDays:    42,
		Cfg:            cfg,
		GridCellMeters: 250,
		GridPeriodSec:  900,
		EvalEvery:      20,
		Seed:           1,
	}
}
