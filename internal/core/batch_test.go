package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepod/internal/citysim"
	"deepod/internal/dataset"
	"deepod/internal/nn"
	"deepod/internal/traj"
)

// forwardShard returns 32 records of recs, shuffled, covering the cases the
// batched training forward treats apart: the longest trajectory, a
// one-step trajectory, a step spanning two slots (Δd = 2), a nil External,
// a weather-only External and a speed matrix of another shape.
func forwardShard(t *testing.T, m *Model, recs []traj.TripRecord) []*traj.TripRecord {
	t.Helper()
	if len(recs) < 32 {
		t.Fatalf("%d records, want at least 32", len(recs))
	}
	shard := make([]traj.TripRecord, 32)
	copy(shard, recs)
	longest := 0
	for i := range recs {
		if len(recs[i].Trajectory.Path) > len(recs[longest].Trajectory.Path) {
			longest = i
		}
	}
	shard[0] = recs[longest]
	one := &shard[1].Trajectory
	one.Path = one.Path[:1:1]
	shard[2].Matched.External = nil
	shard[3].Matched.External = &traj.ExternalFeatures{Weather: 2 % citysim.WeatherTypes}
	shard[5].Matched.External = gridOf(8, 6, 1)
	// Stretch one step over a slot boundary (Δd = 2), on a copy of the path.
	shard[4].Trajectory.Path = append([]traj.Step(nil), shard[4].Trajectory.Path...)
	st := &shard[4].Trajectory.Path[0]
	st.Exit = (math.Floor(st.Enter/m.slotter.Delta) + 1.5) * m.slotter.Delta
	span2 := false
	for i := range shard {
		for _, s := range shard[i].Trajectory.Path {
			s1, _ := m.slotter.Split(s.Enter)
			s2, _ := m.slotter.Split(s.Exit)
			span2 = span2 || s2-s1 == 1
		}
	}
	if !span2 || len(shard[0].Trajectory.Path) < 4 {
		t.Fatalf("shard lacks a Δd = 2 step or a long trajectory (longest %d)", len(shard[0].Trajectory.Path))
	}
	out := make([]*traj.TripRecord, len(shard))
	for i, p := range rand.New(rand.NewSource(3)).Perm(len(shard)) {
		out[i] = &shard[p]
	}
	return out
}

// TestBatchedTrainForwardBitExact holds the batched training forward to the
// serving numbers at Float64bits: every record's code, stcode and ŷ rows in
// a shuffled 32-record shard equal the same record run as a batch of one,
// and its ŷ equals EstimateBatchFused's row for its OD. Under AuxOneWay the
// forward is the same graph; its loss must still build and run backward.
func TestBatchedTrainForwardBitExact(t *testing.T) {
	m, recs := trainedTinyModel(t, 80)
	for _, oneWay := range []bool{false, true} {
		t.Run(fmt.Sprintf("AuxOneWay=%v", oneWay), func(t *testing.T) {
			m.cfg.AuxOneWay = oneWay
			shard := forwardShard(t, m, recs)
			code, stcode, yhat := m.shardForward(nn.NewTape(), shard, true)
			ods := make([]traj.MatchedOD, len(shard))
			for i, rec := range shard {
				ods[i] = rec.Matched
			}
			served := m.EstimateBatchFused(ods)
			for r, rec := range shard {
				c1, s1, y1 := m.shardForward(nn.NewTape(), []*traj.TripRecord{rec}, true)
				for name, pair := range map[string][2]*nn.Node{"code": {code, c1}, "stcode": {stcode, s1}, "yhat": {yhat, y1}} {
					d := pair[1].Value.Shape[1]
					for j, v := range pair[1].Value.Data {
						if got := pair[0].Value.Data[r*d+j]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("record %d (%d steps) %s[%d]: %v in the shard, %v alone", r, len(rec.Trajectory.Path), name, j, got, v)
						}
					}
				}
				if got := m.seconds(yhat.Value.Data[r]); math.Float64bits(got) != math.Float64bits(served[r]) {
					t.Fatalf("record %d: trained forward %v s, EstimateBatchFused %v s", r, got, served[r])
				}
			}
			tp := nn.NewTape()
			tp.Backward(m.shardLoss(tp, shard, true, m.cfg.AuxWeight))
			m.ps.ZeroGrad()
		})
	}
}

// TestBatchedGradientWorkerCountsAgree: one mini-batch's gradient is the
// same sum whether one worker builds one graph over the batch, two workers
// build one each over half of it, or every record is its own shard (the
// per-sample graph); only the summation order differs, so they agree to
// 1e-12 of each parameter's largest gradient.
func TestBatchedGradientWorkerCountsAgree(t *testing.T) {
	g, recs := memoWorld(t, 80)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tinyConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeScale(600)
	batch := rand.New(rand.NewSource(5)).Perm(len(split.Train))[:32]
	grads := func(workers int) [][]float64 {
		pool := newTrainPool(m.ps, workers)
		defer pool.close()
		m.ps.ZeroGrad()
		batchGradient(pool, split.Train, batch, func(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node {
			return m.shardLoss(tp, recs, true, 0.3)
		})
		var out [][]float64
		for _, p := range m.ps.All() {
			out = append(out, append([]float64(nil), p.Grad.Data...))
		}
		return out
	}
	one := grads(1)
	scale := make([]float64, len(one))
	for k, gk := range one {
		for _, v := range gk {
			scale[k] = math.Max(scale[k], math.Abs(v))
		}
		if scale[k] == 0 {
			t.Fatalf("%s has a zero gradient; the test proves nothing about it", m.ps.All()[k].Name)
		}
	}
	for _, workers := range []int{2, len(batch)} {
		for k, gk := range grads(workers) {
			for i, v := range gk {
				if math.Abs(v-one[k][i]) > 1e-12*scale[k] {
					t.Fatalf("%d workers: %s grad[%d] = %v, one worker %v (largest %v)", workers, m.ps.All()[k].Name, i, v, one[k][i], scale[k])
				}
			}
		}
	}
}
