package core

import (
	"fmt"
	"testing"

	"deepod/internal/nn"
	"deepod/internal/traj"
)

// referenceEstimate is the train/serve reference: the OD branch of the
// training forward over a batch of one (shardForward: encodeODs + estMLP,
// the traffic CNN on the tape, no memo). The eval forward shares no code
// with it above the tensor kernels, so bit-equality between the two is what
// says serving computes what training trained.
func referenceEstimate(m *Model, od *traj.MatchedOD) float64 {
	rec := &traj.TripRecord{Matched: *od}
	_, _, yhat := m.shardForward(nn.NewTape(), []*traj.TripRecord{rec}, false)
	sec := yhat.Value.Data[0] * m.timeScale
	if sec < 0 {
		sec = 0
	}
	return sec
}

// estimateEach is Estimate over ods one by one: the eval forward at B = 1.
func estimateEach(m *Model, ods []traj.MatchedOD) []float64 {
	out := make([]float64, len(ods))
	for i := range ods {
		out[i] = m.Estimate(&ods[i])
	}
	return out
}

// forwardBitExact asserts Estimate and EstimateBatchFused equal the
// training-tape reference by Float64bits at every batch size in sizes,
// slicing ods from the front, on a cold memo and again on the warm one.
func forwardBitExact(t *testing.T, m *Model, ods []traj.MatchedOD, sizes []int) {
	t.Helper()
	want := make([]float64, len(ods))
	for i := range ods {
		want[i] = referenceEstimate(m, &ods[i])
	}
	for _, n := range sizes {
		if n > len(ods) {
			t.Fatalf("B=%d wants more than the %d ODs of the test world", n, len(ods))
		}
		for _, memo := range []string{"cold", "warm"} {
			if memo == "cold" {
				m.traf.invalidate()
			}
			wantBits(t, fmt.Sprintf("EstimateBatchFused B=%d, %s memo", n, memo), m.EstimateBatchFused(ods[:n]), want[:n])
		}
	}
	m.traf.invalidate()
	wantBits(t, "Estimate, cold memo", estimateEach(m, ods), want)
	wantBits(t, "Estimate, warm memo", estimateEach(m, ods), want)
}

var fusedSizes = []int{0, 1, 2, 3, 5, 16, 33}

// TestEstimateBatchFusedBitExact pins the serving contract on a trained
// model: the one eval forward reproduces the training forward bit for bit
// at every batch size, over ODs whose External is a shared matrix, a matrix
// of their own, weather only, or nil — so the batched extMLP and the
// memoised traffic code are both held against the CNN on the tape. Replay's
// zero-unexplained guarantee over batched-engine recordings rides on this.
func TestEstimateBatchFusedBitExact(t *testing.T) {
	m, recs := trainedTinyModel(t, 60)
	forwardBitExact(t, m, mixedODs(t, recs), fusedSizes)
}

// TestEstimateBatchFusedVariants covers the ablation configurations, which
// change the Z9 row layout: N-sp (coordinates instead of road embeddings),
// N-ex (no external code), and T-stamp (raw timestamp instead of slot
// embedding + remainder). Untrained weights suffice — bit-exactness is a
// property of the kernels, not the parameter values.
func TestEstimateBatchFusedVariants(t *testing.T) {
	g, recs := memoWorld(t, 40)
	ods := mixedODs(t, recs)
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
			forwardBitExact(t, m, ods, fusedSizes)
		})
	}
}
