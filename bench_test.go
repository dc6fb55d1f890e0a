package deepod

// Benchmark harness: BenchmarkExperiments regenerates every table and
// figure of the paper's evaluation section (§6) at TinyScale, one
// sub-benchmark per entry of experiments.Experiments (so `go test -bench=.`
// completes in minutes on one core); run `go run ./cmd/ttebench -scale
// small` for the full-strength tables. Use -v / -benchtime=1x to see the
// rendered output.

import (
	"math/rand"
	"sync"
	"testing"

	"deepod/internal/core"
	"deepod/internal/experiments"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite builds (once) the shared suite with cached trained models so
// benchmarks that reuse models measure their own work, not re-training.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.TinyScale())
	})
	return suite
}

// BenchmarkExperiments runs each experiment on the shared suite: worlds
// and the models the suite caches are built by the first run that needs
// them, and the sweeps (Figures 8, 9 and 14a, Table 6's fractions, the
// embedding study) train their own models every iteration.
func BenchmarkExperiments(b *testing.B) {
	s := benchSuite(b)
	for _, e := range experiments.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := e.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + e.Render(s.Scale.Name, rows))
				}
			}
		})
	}
}

// BenchmarkTrainWorkload is the first operation of go run ./bench's train
// workload as a Go benchmark: a fresh model's Model.Train on beijing-s with
// 4000 orders, SmallConfig at seed 1 and one worker, stopped after 216
// steps (the workload's cap at its 18 s), validation on 64 records. The
// city is built off the clock. Its use is the per-phase CPU profile of
// DESIGN §9:
//
//	go test -run '^$' -bench BenchmarkTrainWorkload -benchtime 3x -cpu 1 -cpuprofile cpu.out .
func BenchmarkTrainWorkload(b *testing.B) {
	c, err := BuildCity("beijing-s", CityOptions{Orders: 4000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.Seed, cfg.TrainWorkers = 1, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(cfg, c.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(c.Split.Train, c.Split.Valid, core.TrainOptions{MaxSteps: 216, ValSample: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateDeepOD measures single-query estimation latency of a
// trained DeepOD model (the per-row quantity behind Table 5's estimation
// time).
func BenchmarkEstimateDeepOD(b *testing.B) {
	s := benchSuite(b)
	m, err := s.Model("chengdu-s", "DeepOD")
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.World("chengdu-s")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Estimate(&w.Split.Test[i%len(w.Split.Test)].Matched)
	}
}

// BenchmarkEstimateBaselines measures the baselines' estimation latency.
func BenchmarkEstimateBaselines(b *testing.B) {
	s := benchSuite(b)
	for _, method := range []string{"TEMP", "LR", "GBM", "STNN", "MURAT"} {
		method := method
		b.Run(method, func(b *testing.B) {
			m, err := s.Model("chengdu-s", method)
			if err != nil {
				b.Fatal(err)
			}
			w, err := s.World("chengdu-s")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Estimate(&w.Split.Test[i%len(w.Split.Test)].Matched)
			}
		})
	}
}

// BenchmarkMatchOD is the request path's map matching — both endpoints of
// one OD through MatchOD — on the repo benchmark's city.
func BenchmarkMatchOD(b *testing.B) {
	city, err := BuildCity("beijing-s", CityOptions{Orders: 10})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatcher(city.Graph)
	if err != nil {
		b.Fatal(err)
	}
	bounds := city.Graph.Bounds()
	rng := rand.New(rand.NewSource(1))
	pt := func() Point {
		return Point{X: bounds.Min.X + rng.Float64()*bounds.Width(), Y: bounds.Min.Y + rng.Float64()*bounds.Height()}
	}
	ods := make([]ODInput, 2048)
	for i := range ods {
		ods[i] = ODInput{Origin: pt(), Dest: pt(), DepartSec: 36000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchOD(m, ods[i%len(ods)]); err != nil {
			b.Fatal(err)
		}
	}
}
