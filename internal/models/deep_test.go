package models

import (
	"math"
	"sync"
	"testing"

	"deepod/internal/nn"
	"deepod/internal/traj"
)

// trainedBaselines returns an ST-NN and a MURAT trained for one epoch on
// world(t, orders), and the world's split.
func trainedBaselines(t testing.TB, orders int) (*STNN, *MURAT, []traj.TripRecord) {
	t.Helper()
	g, split := world(t, orders)
	s := NewSTNN(g)
	s.Epochs = 1
	mu := NewMURAT(g)
	mu.Epochs = 1
	mu.EmbedWalks = 2
	for _, m := range []Trainable{s, mu} {
		if err := m.Train(split.Train, split.Valid); err != nil {
			t.Fatal(err)
		}
	}
	return s, mu, split.Test
}

// TestDeepBaselineBatchGradients: one shard's graph gives every parameter
// gradient bit for bit the sum of the records' one-row graphs run one after
// another — the equivalence the golden bits of the batched baselines rest
// on. Edge e is three records' origin or destination and both ends of one
// of them, so MURAT's road-embedding row e sums four contributions; only
// the one interleaved lookup adds them in the per-record order.
func TestDeepBaselineBatchGradients(t *testing.T) {
	s, mu, test := trainedBaselines(t, 300)
	shard := make([]*traj.TripRecord, 12)
	for i := range shard {
		rec := test[i]
		shard[i] = &rec
	}
	e := shard[0].Matched.OriginEdge
	shard[3].Matched.OriginEdge, shard[3].Matched.DestEdge = e, e
	shard[7].Matched.DestEdge = e
	cases := []struct {
		name string
		ps   *nn.ParamSet
		loss func(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node
	}{
		{"STNN", s.ps, s.shardLoss},
		{"MURAT", mu.ps, mu.shardLoss},
	}
	for _, c := range cases {
		grads := func(runs [][]*traj.TripRecord) [][]float64 {
			c.ps.ZeroGrad()
			for _, recs := range runs {
				tp := nn.NewTape()
				tp.Backward(c.loss(tp, recs))
			}
			var out [][]float64
			for _, p := range c.ps.All() {
				out = append(out, append([]float64(nil), p.Grad.Data...))
			}
			return out
		}
		perRecord := make([][]*traj.TripRecord, len(shard))
		for i, rec := range shard {
			perRecord[i] = []*traj.TripRecord{rec}
		}
		want := grads(perRecord)
		for k, gk := range grads([][]*traj.TripRecord{shard}) {
			p := c.ps.All()[k]
			for i, v := range gk {
				if math.Float64bits(v) != math.Float64bits(want[k][i]) {
					t.Fatalf("%s %s grad[%d] = %v batched, %v record by record", c.name, p.Name, i, v, want[k][i])
				}
			}
		}
	}
}

// TestDeepBaselineConcurrentEstimate: Estimate is safe for concurrent use
// (its eval tapes come from a shared pool) and every goroutine's answers
// are the serial ones, bit for bit. Run under -race.
func TestDeepBaselineConcurrentEstimate(t *testing.T) {
	s, mu, test := trainedBaselines(t, 300)
	for _, est := range []Estimator{s, mu} {
		want := make([]float64, len(test))
		for i := range test {
			want[i] = est.Estimate(&test[i].Matched)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := range test {
					i := (n + w*len(test)/4) % len(test)
					if got := est.Estimate(&test[i].Matched); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s goroutine %d: test[%d] = %v, serial %v", est.Name(), w, i, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkDeepBaselineEstimate times one ST-NN or MURAT estimate: one
// forward of one row on a pooled eval tape. Run with -benchmem.
func BenchmarkDeepBaselineEstimate(b *testing.B) {
	s, mu, test := trainedBaselines(b, 300)
	for _, est := range []Estimator{s, mu} {
		b.Run(est.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += est.Estimate(&test[i%len(test)].Matched)
			}
			_ = sink
		})
	}
}

// BenchmarkDeepBaselineTrain times one whole Train of ST-NN or MURAT at
// their default sizes (MURAT's DeepWalk pre-training included) on a
// world(b, 300) split.
func BenchmarkDeepBaselineTrain(b *testing.B) {
	g, split := world(b, 300)
	builders := []func() Trainable{
		func() Trainable { return NewSTNN(g) },
		func() Trainable { return NewMURAT(g) },
	}
	for _, build := range builders {
		b.Run(build().Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := build().Train(split.Train, split.Valid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
