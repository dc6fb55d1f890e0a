package deepod

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (§6). Each benchmark regenerates the
// corresponding artifact at TinyScale (so `go test -bench=.` completes in
// minutes on one core); run `go run ./cmd/ttebench -scale small` for the
// full-strength tables. Use -v / -benchtime=1x to see the rendered output.

import (
	"math/rand"
	"sync"
	"testing"

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

// BenchmarkTable2DatasetStats regenerates Table 2 (dataset statistics).
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(experiments.TinyScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable3Convergence regenerates Table 3 and Figure 10
// (convergence steps/time and validation curves of the deep models).
func BenchmarkTable3Convergence(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3Figure10(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable4TestErrors regenerates Table 4 (test errors of all
// methods and ablations on all cities).
func BenchmarkTable4TestErrors(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable5Efficiency regenerates Table 5 (model size, training
// time, estimation time).
func BenchmarkTable5Efficiency(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable6Scalability regenerates Table 6 (MAPE vs training-data
// fraction on the largest city).
func BenchmarkTable6Scalability(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable7EmbeddingVariants regenerates Table 7 (embedding
// initialization variants T-one / T-day / T-stamp / R-one).
func BenchmarkTable7EmbeddingVariants(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable7(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure5aPeriodicity regenerates Figure 5a (weekly periodicity
// of simulated traffic flow).
func BenchmarkFigure5aPeriodicity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5a(experiments.TinyScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure8HyperParams regenerates Figure 8 (hyper-parameter
// sweeps) with a reduced grid.
func BenchmarkFigure8HyperParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure8(experiments.TinyScale(), []int{8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure9LossWeight regenerates Figure 9 (loss-weight sweep).
func BenchmarkFigure9LossWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure9(experiments.TinyScale(), "chengdu-s", []float64{0.1, 0.3, 0.5, 0.7})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure11ErrorPDF regenerates Figure 11 (per-method MAPE
// distribution curves).
func BenchmarkFigure11ErrorPDF(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure11(s, "chengdu-s")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure12Scatter regenerates Figure 12 (estimated vs actual time
// on 50 random test trips).
func BenchmarkFigure12Scatter(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure12(s, "chengdu-s", 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure13WorstCases regenerates Figure 13 (each method's worst
// cases by MAPE).
func BenchmarkFigure13WorstCases(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure13(s, "chengdu-s", 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure14aSlotSize regenerates Figure 14a (MAPE vs time-slot
// size).
func BenchmarkFigure14aSlotSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure14a(experiments.TinyScale(), "chengdu-s", []int{15, 30, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure14bHeatmap regenerates Figure 14b (heatmap of the 1-D
// t-SNE projection of time-slot embeddings).
func BenchmarkFigure14bHeatmap(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure14b(s, "chengdu-s")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
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

// BenchmarkEmbedMethodStudy regenerates the §5 embedding-method comparison
// (node2vec vs DeepWalk vs LINE initialization).
func BenchmarkEmbedMethodStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEmbedStudy(experiments.TinyScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkExtRouteComparison runs the extension experiment comparing
// OD-based DeepOD against the route-based RouteETA estimator.
func BenchmarkExtRouteComparison(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunExtRoute(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
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
