package core

import (
	"math"
	"testing"

	"deepod/internal/dataset"
)

// TestTrainDetectsCollapse pins the collapse floor on the two-way
// auxiliary binding at tinyConfig: w = 0.9 trains both encoders to one
// constant and answers one number for every OD (spread ratio 0), w = 0.1
// does not (≈ 0.56). 800 orders is the smallest world tried where the
// collapse is complete; at 500–750 the w = 0.9 ratio lands anywhere in
// 0.02–0.11, either side of the floor.
func TestTrainDetectsCollapse(t *testing.T) {
	g, recs := testWorld(t, 800)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w         float64
		collapsed bool
	}{{0.9, true}, {0.1, false}} {
		cfg := tinyConfig()
		cfg.AuxWeight = tc.w
		m, err := New(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Train(split.Train, split.Valid, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r := stats.PredSpreadRatio; math.IsNaN(r) || stats.Collapsed() != tc.collapsed {
			t.Errorf("w = %.1f: spread ratio %.4f, collapsed = %v, want %v (floor %v)",
				tc.w, r, stats.Collapsed(), tc.collapsed, CollapseFloor)
		}
	}
}
