package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"deepod/internal/core"
	"deepod/internal/metrics"
	"deepod/internal/plot"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
	"deepod/internal/tsne"
)

// RunFigure5a samples four roads' daily mean congestion drop on the first
// city: the weekly periodicity Figure 5a documents for real Chengdu roads,
// as a sanity check of the simulator.
func RunFigure5a(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	step := w.Graph.NumEdges() / 4
	for i := 0; i < 4; i++ {
		e := roadnet.EdgeID(i * step)
		r := s.row("fig5a", city, "", "")
		r.Variant = fmt.Sprintf("edge %d", e)
		for d := 0; d < s.Scale.HorizonDays; d++ {
			// Flow proxy: mean congestion drop over the day (higher drop =
			// more traffic).
			var sum float64
			const samples = 24
			for h := 0; h < samples; h++ {
				sec := float64(d)*timeslot.SecondsPerDay + float64(h)*3600
				sum += 1 - w.Traffic.Congestion(e, sec)
			}
			rows = append(rows, r.with("flow_proxy", float64(d), sum/samples, "frac"))
		}
	}
	return rows, nil
}

func renderFigure5a(_ string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5a: Weekly periodicity of traffic flow proxy (%s)\n", rows[0].City)
	for i, road := range distinct(rows, byVariant) {
		series(&b, fmt.Sprintf("  road%d (%s):", i+1, road), where(rows, cell{variant: road}), func(r Row) string {
			return fmt.Sprintf(" %.3f", r.Value)
		})
	}
	return b.String()
}

// Figure8Params lists the hyper-parameters the paper sweeps, in the order
// of figure8Dims.
var Figure8Params = []string{"ds", "dt", "d1m", "d2m", "d3m", "d4m_d8m", "d5m", "d6m", "d7m", "d9m", "dh", "dtraf"}

// figure8Dims returns cfg's fields named by Figure8Params.
func figure8Dims(cfg *core.Config) []*int {
	return []*int{&cfg.Ds, &cfg.Dt, &cfg.D1m, &cfg.D2m, &cfg.D3m, &cfg.D4m, &cfg.D5m, &cfg.D6m, &cfg.D7m, &cfg.D9m, &cfg.Dh, &cfg.Dtraf}
}

// RunFigure8 sweeps each hyper-parameter of Figure 8 over {8, 16, 32} (the
// paper's 32..256, scaled down) with the others at the scale's defaults,
// and records DeepOD's validation MAPE and MARE on the first city.
func RunFigure8(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, param := range Figure8Params {
		for _, size := range []int{8, 16, 32} {
			cfg := s.Scale.Cfg
			*figure8Dims(&cfg)[i] = size
			m, err := trainDeepOD(cfg, w)
			if err != nil {
				return nil, err
			}
			actual, pred := evaluate(m, w.Split.Valid)
			r := s.row("fig8", city, "DeepOD", "valid")
			r.Variant, r.X = param, float64(size)
			rows = append(rows, score(r, actual, pred, "mape", "mare")...)
		}
	}
	return rows, nil
}

func renderFigure8(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Validation MAPE & MARE vs hyper-parameters (%s, scale=%s)\n", rows[0].City, scale)
	v := cells(rows)
	for _, p := range distinct(rows, byVariant) {
		series(&b, fmt.Sprintf("  %-8s", p), where(rows, cell{variant: p, metric: "mape"}), func(r Row) string {
			q := r.cell()
			q.metric = "mare"
			return fmt.Sprintf("  [%d] MAPE=%.2f%% MARE=%.2f%%", int(r.X), r.Value*100, v[q]*100)
		})
	}
	return b.String()
}

// boxStats names the Figure 9 box-plot statistics, in column order.
var boxStats = []string{"min", "q1", "median", "q3", "max", "mean"}

// RunFigure9 trains DeepOD per auxiliary-loss weight w on the first city and
// box-plots its per-mini-batch validation MAPE (Figure 9).
func RunFigure9(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	const miniBatch = 32
	valid := w.Split.Valid
	for _, wt := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		cfg := s.Scale.Cfg
		cfg.AuxWeight = wt
		m, err := trainDeepOD(cfg, w)
		if err != nil {
			return nil, err
		}
		var mapes []float64
		for lo := 0; lo+1 < len(valid); lo += miniBatch {
			actual, pred := evaluate(m, valid[lo:min(lo+miniBatch, len(valid))])
			mapes = append(mapes, metrics.MAPE(actual, pred))
		}
		bx := metrics.Box(mapes)
		r := s.row("fig9", city, "DeepOD", "valid")
		for i, v := range []float64{bx.Min, bx.Q1, bx.Median, bx.Q3, bx.Max, bx.Mean} {
			rows = append(rows, r.with("mape_"+boxStats[i], wt, v, "frac"))
		}
	}
	return rows, nil
}

func renderFigure9(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: MAPE vs loss weight w (%s, scale=%s)\n", rows[0].City, scale)
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s %8s %8s\n", "w", "min", "q1", "median", "q3", "max", "mean")
	v := cells(rows)
	for _, r := range where(rows, cell{metric: "mape_min"}) {
		fmt.Fprintf(&b, "%-6.1f", r.X)
		for _, stat := range boxStats {
			q := r.cell()
			q.metric = "mape_" + stat
			fmt.Fprintf(&b, " %8.2f", v[q]*100)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "best w = %.1f\n", argmin(rows, "mape_mean"))
	return b.String()
}

// Figure11Methods is the method set of Figures 11–13.
var Figure11Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"}

// RunFigure11 computes each method's distribution of per-sample test APE on
// the first city (Figure 11): its mean, variance and a density on [0, 1.5].
func RunFigure11(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	var rows []Row
	for _, method := range Figure11Methods {
		actual, pred, err := s.predict(city, method)
		if err != nil {
			return nil, err
		}
		apes := metrics.PerSampleAPE(actual, pred)
		grid, dens := metrics.KDE(apes, 0, 1.5, 60)
		mean, variance := metrics.Moments(apes)
		r := s.row("fig11", city, method, "test")
		rows = append(rows, r.with("ape_mean", 0, mean, "frac"), r.with("ape_var", 0, variance, ""))
		for i, x := range grid {
			rows = append(rows, r.with("ape_pdf", x, dens[i], ""))
		}
	}
	return rows, nil
}

func renderFigure11(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: MAPE distribution on test data (%s, scale=%s)\n", rows[0].City, scale)
	v := cells(rows)
	for _, m := range distinct(rows, byMethod) {
		fmt.Fprintf(&b, "  %-8s mean=%.3f var=%.4f  pdf: %s\n", m,
			v[cell{city: rows[0].City, method: m, metric: "ape_mean"}], v[cell{city: rows[0].City, method: m, metric: "ape_var"}],
			plot.Sparkline(values(where(rows, cell{method: m, metric: "ape_pdf"}))))
	}
	return b.String()
}

// scatterTrips is the number of trips Figures 12 and 13 plot per method.
const scatterTrips = 50

// RunFigure12 estimates 50 random test trips shorter than an hour (per the
// paper) with every method on the first city (Figure 12). Each row's X is
// the trip's actual time and its value the estimate.
func RunFigure12(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	var idxs []int
	for i := range w.Split.Test {
		if w.Split.Test[i].TravelSec < 3600 {
			idxs = append(idxs, i)
		}
	}
	rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
	trips := make([]traj.TripRecord, min(len(idxs), scatterTrips))
	for i := range trips {
		trips[i] = w.Split.Test[idxs[i]]
	}
	var rows []Row
	for _, method := range Figure11Methods {
		m, err := s.Model(city, method)
		if err != nil {
			return nil, err
		}
		actual, pred := evaluate(m, trips)
		r := s.row("fig12", city, method, "test")
		for i := range trips {
			rows = append(rows, r.with("estimate", actual[i], pred[i], "s"))
		}
	}
	return rows, nil
}

func renderFigure12(scale string, rows []Row) string {
	return scatter("Figure 12: Estimated vs actual time", scale, rows)
}

// RunFigure13 selects each method's 50 worst test cases by APE on the first
// city, worst first (Figure 13).
func RunFigure13(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	var rows []Row
	for _, method := range Figure11Methods {
		actual, pred, err := s.predict(city, method)
		if err != nil {
			return nil, err
		}
		r := s.row("fig13", city, method, "test")
		for _, i := range metrics.WorstK(metrics.PerSampleAPE(actual, pred), scatterTrips) {
			rows = append(rows, r.with("estimate", actual[i], pred[i], "s"))
		}
	}
	return rows, nil
}

func renderFigure13(scale string, rows []Row) string {
	return scatter("Figure 13: Worst cases (estimated vs actual)", scale, rows)
}

// RunFigure14a sweeps the time-slot size Δt over {5, 15, 30, 60, 120}
// minutes and records DeepOD's test MAPE on the first city (Figure 14a).
func RunFigure14a(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, mins := range []int{5, 15, 30, 60, 120} {
		cfg := s.Scale.Cfg
		cfg.SlotDelta = time.Duration(mins) * time.Minute
		m, err := trainDeepOD(cfg, w)
		if err != nil {
			return nil, err
		}
		actual, pred := evaluate(m, w.Split.Test)
		r := s.row("fig14a", city, "DeepOD", "test")
		r.X = float64(mins)
		rows = append(rows, score(r, actual, pred, "mape")...)
	}
	return rows, nil
}

func renderFigure14a(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14a: MAPE vs time slot size (%s, scale=%s)\n", rows[0].City, scale)
	for _, r := range rows {
		fmt.Fprintf(&b, "  Δt=%3d min  MAPE=%.2f%%\n", int(r.X), r.Value*100)
	}
	fmt.Fprintf(&b, "best Δt = %d min\n", int(argmin(rows, "mape")))
	return b.String()
}

// weekdays label Figure 14b's rows.
var weekdays = []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// RunFigure14b projects the first city's DeepOD time-slot embeddings Wt to
// 1-D with t-SNE and averages the slots of each (weekday, hour): Figure
// 14b's heatmap, one row per cell with the weekday as variant and the hour
// as X.
func RunFigure14b(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	dm, err := s.Model(city, "DeepOD")
	if err != nil {
		return nil, err
	}
	d, ok := dm.(*DeepODEstimator)
	if !ok {
		return nil, fmt.Errorf("experiments: DeepOD model has unexpected type %T", dm)
	}
	emb := d.Model().SlotEmbeddingTable()
	if emb == nil {
		return nil, fmt.Errorf("experiments: model has no slot embedding table")
	}
	slots := emb.V
	vecs := make([][]float64, slots)
	for i := 0; i < slots; i++ {
		vecs[i] = emb.W.Value.Row(i).Data
	}
	cfg := tsne.DefaultConfig(1)
	cfg.Iters = 150
	proj, err := tsne.Embed(vecs, cfg)
	if err != nil {
		return nil, err
	}
	slotter := d.Model().Slotter()
	var heat [7][24]float64
	var counts [7][24]int
	perHour := max(slotter.SlotsPerDay/24, 1)
	for i := 0; i < slots; i++ {
		day := slotter.DayOfWeek(i) % 7
		hour := min(slotter.SlotOfDay(i)/perHour, 23)
		heat[day][hour] += proj[i][0]
		counts[day][hour]++
	}
	var rows []Row
	r := s.row("fig14b", city, "DeepOD", "")
	for dd := range heat {
		r.Variant = weekdays[dd]
		for h := range heat[dd] {
			if counts[dd][h] > 0 {
				heat[dd][h] /= float64(counts[dd][h])
			}
			rows = append(rows, r.with("tsne_1d", float64(h), heat[dd][h], ""))
		}
	}
	return rows, nil
}

// renderFigure14b prints the heatmap both numerically (every other hour)
// and as a shaded map.
func renderFigure14b(scale string, rows []Row) string {
	var b strings.Builder
	city := rows[0].City
	fmt.Fprintf(&b, "Figure 14b: Heatmap of 1-D t-SNE of time-slot embeddings (%s, scale=%s)\n", city, scale)
	days := distinct(rows, byVariant)
	heat := make([][]float64, len(days))
	for d, day := range days {
		heat[d] = values(where(rows, cell{variant: day}))
	}
	var hours []string
	for h := 0; h < 24; h += 2 {
		hours = append(hours, fmt.Sprintf("%dh", h))
	}
	matrix(&b, "", 5, hours, repeat(8, len(hours)), days, func(d, j int) string {
		return fmt.Sprintf("%.2f", heat[d][2*j])
	})
	b.WriteString("shaded (cols = hours 0..23):\n")
	b.WriteString(plot.Heatmap(heat, days))
	return b.String()
}
