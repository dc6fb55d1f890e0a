package core

import (
	"math"
	"testing"

	"deepod/internal/dataset"
	"deepod/internal/traj"
)

// fusedBitExact asserts EstimateBatchFused == EstimateBatch by Float64bits
// for every batch size in sizes, slicing ods from the front.
func fusedBitExact(t *testing.T, m *Model, ods []traj.MatchedOD, sizes []int) {
	t.Helper()
	for _, n := range sizes {
		if n > len(ods) {
			continue
		}
		batch := ods[:n]
		want := m.EstimateBatch(batch)
		got := m.EstimateBatchFused(batch)
		if len(got) != len(want) {
			t.Fatalf("B=%d: fused returned %d estimates, want %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("B=%d trip %d: fused %v (bits %x) != per-sample %v (bits %x)",
					n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

var fusedSizes = []int{0, 1, 2, 3, 5, 16, 33}

// TestEstimateBatchFusedBitExact pins the tentpole contract on a trained
// model: the fused [B×d] path must reproduce the per-sample path bit for
// bit at every batch size — including trips that carry External features,
// so the batched extMLP is exercised against the tape extMLP. Replay's
// zero-unexplained guarantee over fused-engine recordings rides on this.
func TestEstimateBatchFusedBitExact(t *testing.T) {
	g, recs := testWorld(t, 60)
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
	ods := make([]traj.MatchedOD, 0, len(recs))
	withExt := 0
	for i := range recs {
		ods = append(ods, recs[i].Matched)
		if recs[i].Matched.External != nil {
			withExt++
		}
	}
	if withExt == 0 {
		t.Fatal("no test trips carry External features; batched extMLP untested")
	}
	fusedBitExact(t, m, ods, fusedSizes)
}

// TestEstimateBatchFusedVariants covers the ablation configurations, which
// change the Z9 row layout: N-sp (coordinates instead of road embeddings),
// N-ex (no external code), and T-stamp (raw timestamp instead of slot
// embedding + remainder). Untrained weights suffice — bit-exactness is a
// property of the kernels, not the parameter values.
func TestEstimateBatchFusedVariants(t *testing.T) {
	g, recs := testWorld(t, 40)
	ods := make([]traj.MatchedOD, len(recs))
	for i := range recs {
		ods[i] = recs[i].Matched
	}
	for name, mut := range map[string]func(*Config){
		"NoSpatial":  func(c *Config) { c.NoSpatial = true },
		"NoExternal": func(c *Config) { c.NoExternal = true },
		"TimeStamp":  func(c *Config) { c.TimeInit = TimeStamp },
	} {
		mut := mut
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			mut(&cfg)
			m, err := New(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			fusedBitExact(t, m, ods, fusedSizes)
		})
	}
}
