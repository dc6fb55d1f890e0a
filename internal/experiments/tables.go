package experiments

import (
	"fmt"
	"strings"
	"time"

	"deepod/internal/core"
	"deepod/internal/dataset"
	"deepod/internal/models"
	"deepod/internal/plot"
	"deepod/internal/traj"
)

// RunTable2 summarizes every city's orders the way Table 2 (taxi order
// dataset statistics) does.
func RunTable2(s *Suite) ([]Row, error) {
	var rows []Row
	for _, city := range s.Scale.CityList() {
		w, err := s.World(city)
		if err != nil {
			return nil, err
		}
		st := dataset.Summarize(w.Records, func(r *traj.TripRecord) float64 {
			return r.Trajectory.Length(w.Graph)
		})
		r := s.row("table2", city, "", "all")
		rows = append(rows,
			r.with("orders", 0, float64(st.NumOrders), "count"),
			r.with("gps_points", 0, st.AvgGPSPoints, "count"),
			r.with("travel_time", 0, st.AvgTravelSec, "s"),
			r.with("segments", 0, st.AvgSegments, "count"),
			r.with("length", 0, st.AvgLengthM, "m"))
	}
	return rows, nil
}

// table2Lines are Table 2's lines, in order.
var table2Lines = []struct{ metric, label, format string }{
	{"orders", "# of orders", "%.0f"},
	{"gps_points", "Avg # of points", "%.0f"},
	{"travel_time", "Avg travel time(s)", "%.2f"},
	{"segments", "Avg # of road segments", "%.0f"},
	{"length", "Avg length(meter)", "%.2f"},
}

func renderTable2(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Taxi Order Datasets (scale=%s)\n", scale)
	v := cells(rows)
	cities := distinct(rows, byCity)
	labels := make([]string, len(table2Lines))
	for i, l := range table2Lines {
		labels[i] = l.label
	}
	matrix(&b, "", 24, cities, repeat(14, len(cities)), labels, func(i, j int) string {
		l := table2Lines[i]
		return fmt.Sprintf(l.format, v[cell{city: cities[j], metric: l.metric}])
	})
	return b.String()
}

// curveSource is implemented by STNN, MURAT and the DeepOD adapter.
type curveSource interface {
	Stats() *core.TrainStats
}

// RunTable3Figure10 trains the three deep models on the first two cities
// (the paper uses Chengdu and Xi'an) and reports Table 3's convergence
// steps and times with Figure 10's validation curves.
func RunTable3Figure10(s *Suite) ([]Row, error) {
	var rows []Row
	cities := s.Scale.CityList()
	if len(cities) > 2 {
		cities = cities[:2]
	}
	for _, city := range cities {
		for _, method := range []string{"STNN", "MURAT", "DeepOD"} {
			m, err := s.Model(city, method)
			if err != nil {
				return nil, err
			}
			cs, ok := m.(curveSource)
			if !ok {
				return nil, fmt.Errorf("experiments: %s does not expose a training curve", method)
			}
			st := cs.Stats()
			if st == nil {
				return nil, fmt.Errorf("experiments: %s has no stats after training", method)
			}
			r := s.row("table3", city, method, "valid")
			rows = append(rows,
				r.with("steps", 0, float64(st.Steps), "count"),
				r.with("converged_step", 0, float64(st.ConvergedStep), "count"),
				r.with("elapsed", 0, float64(st.Elapsed), "ns"),
				r.with("converged_at", 0, float64(st.ConvergedAt), "ns"))
			for _, p := range st.Curve {
				rows = append(rows, r.with("val_mae", float64(p.Step), p.ValMAE, "s"))
			}
		}
	}
	return rows, nil
}

func renderTable3Figure10(scale string, rows []Row) string {
	var b strings.Builder
	v := cells(rows)
	cities, methods := distinct(rows, byCity), distinct(rows, byMethod)
	fmt.Fprintf(&b, "Table 3: Convergence Steps and Convergence Time (scale=%s)\n", scale)
	fmt.Fprintf(&b, "%-12s %-10s %14s %16s\n", "city", "method", "steps(conv)", "time(conv)")
	for _, c := range cities {
		for _, m := range methods {
			at := func(metric string) float64 { return v[cell{city: c, method: m, metric: metric}] }
			fmt.Fprintf(&b, "%-12s %-10s %7d/%6d %9s/%6s\n", c, m, int(at("converged_step")), int(at("steps")),
				time.Duration(at("converged_at")).Round(time.Millisecond), time.Duration(at("elapsed")).Round(time.Millisecond))
		}
	}
	b.WriteString("Figure 10: validation MAE vs training steps\n")
	for _, c := range cities {
		var lines []plot.Series
		for _, m := range methods {
			curve := where(rows, cell{city: c, method: m, metric: "val_mae"})
			series(&b, fmt.Sprintf("  %s/%s:", c, m), curve, func(r Row) string {
				return fmt.Sprintf(" (%d, %.1f)", int(r.X), r.Value)
			})
			l := plot.Series{Name: m, Ys: values(curve)}
			for _, r := range curve {
				l.Xs = append(l.Xs, r.X)
			}
			lines = append(lines, l)
		}
		fmt.Fprintf(&b, "%s\n", plot.Lines(lines, 64, 12))
	}
	return b.String()
}

// RunTable4 trains and evaluates every Table 4 method (the five baselines,
// the four DeepOD ablations and DeepOD) on every city's test split.
func RunTable4(s *Suite) ([]Row, error) {
	var rows []Row
	for _, method := range AllTable4Methods {
		for _, city := range s.Scale.CityList() {
			actual, pred, err := s.predict(city, method)
			if err != nil {
				return nil, err
			}
			rows = append(rows, score(s.row("table4", city, method, "test"), actual, pred, "mae", "mape", "mare")...)
		}
	}
	return rows, nil
}

func renderTable4(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Experimental Results on Test Errors (scale=%s, cities=%s)\n",
		scale, strings.Join(distinct(rows, byCity), "/"))
	errorTable(&b, rows, []string{"Method", "MAE(second)", "MAPE(%)", "MARE(%)"}, []int{10, 30, 26, 26},
		[]string{"mae", "mape", "mare"}, func(metric string, v float64) string {
			if metric != "mae" {
				v *= 100
			}
			return fmt.Sprintf("%.2f", v)
		})
	return b.String()
}

// Table5Methods is the Table 5 row order.
var Table5Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"}

// RunTable5 measures every method's model size, training time and
// estimation time on every city. Estimation time is the wall time of
// exactly 1 000 estimates, cycling through the test split.
func RunTable5(s *Suite) ([]Row, error) {
	var rows []Row
	for _, method := range Table5Methods {
		for _, city := range s.Scale.CityList() {
			w, err := s.World(city)
			if err != nil {
				return nil, err
			}
			m, err := s.Model(city, method)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < 1000; i++ {
				m.Estimate(&w.Split.Test[i%len(w.Split.Test)].Matched)
			}
			perK := time.Since(start)
			r := s.row("table5", city, method, "")
			rows = append(rows,
				r.with("size", 0, float64(m.SizeBytes()), "B"),
				r.with("train_time", 0, float64(m.TrainTime()), "ns"),
				r.with("estimate_1k", 0, float64(perK), "ns"))
		}
	}
	return rows, nil
}

func renderTable5(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Efficiency of Test Result (scale=%s, cities=%s)\n",
		scale, strings.Join(distinct(rows, byCity), "/"))
	errorTable(&b, rows, []string{"Method", "model size(Byte)", "training time", "estimation time(per 1K)"}, []int{10, 30, 36, 30},
		[]string{"size", "train_time", "estimate_1k"}, func(metric string, v float64) string {
			switch metric {
			case "size":
				return humanBytes(int(v))
			case "train_time":
				return time.Duration(v).Round(time.Millisecond).String()
			}
			return time.Duration(v).Round(time.Microsecond).String()
		})
	return b.String()
}

func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fK", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// Table6Methods is the Table 6 column order.
var Table6Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"}

// RunTable6 measures scalability (Table 6): every method's test MAPE when
// trained on growing fractions of the largest city's training data (fresh
// models per fraction; the full-data models come from the suite cache).
func RunTable6(s *Suite) ([]Row, error) {
	cities := s.Scale.CityList()
	city := cities[len(cities)-1] // the largest preset in report order
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, method := range Table6Methods {
		for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			var m models.Trainable
			if frac == 1.0 {
				m, err = s.Model(city, method)
				if err != nil {
					return nil, err
				}
			} else {
				sub, serr := dataset.Subsample(w.Split.Train, frac)
				if serr != nil {
					return nil, serr
				}
				m, err = s.newUntrained(method, w)
				if err != nil {
					return nil, err
				}
				if err = m.Train(sub, w.Split.Valid); err != nil {
					return nil, fmt.Errorf("experiments: %s at %.0f%%: %w", method, frac*100, err)
				}
			}
			actual, pred := evaluate(m, w.Split.Test)
			r := s.row("table6", city, method, "test")
			r.X = frac
			rows = append(rows, score(r, actual, pred, "mape")...)
		}
	}
	return rows, nil
}

func renderTable6(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Scalability of Test Result (%s, scale=%s) — MAPE(%%)\n", rows[0].City, scale)
	v := cells(rows)
	methods := distinct(rows, byMethod)
	fracs := where(rows, cell{method: methods[0]})
	labels := make([]string, len(fracs))
	for i, r := range fracs {
		labels[i] = fmt.Sprintf("%.0f%%", r.X*100)
	}
	matrix(&b, "frac", 8, methods, repeat(10, len(methods)), labels, func(i, j int) string {
		return fmt.Sprintf("%.2f", v[cell{rows[0].City, methods[j], "", "mape", fracs[i].X}]*100)
	})
	return b.String()
}

// RunTable7 evaluates the four embedding-initialization variants of Table 7
// against DeepOD on every city.
func RunTable7(s *Suite) ([]Row, error) {
	var rows []Row
	for _, method := range append([]string{"DeepOD"}, EmbeddingVariants...) {
		for _, city := range s.Scale.CityList() {
			actual, pred, err := s.predict(city, method)
			if err != nil {
				return nil, err
			}
			rows = append(rows, score(s.row("table7", city, method, "test"), actual, pred, "mape")...)
		}
	}
	return rows, nil
}

// renderTable7 prints each variant's MAPE with its change against DeepOD's.
func renderTable7(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: MAPE Errors(%%) of Embeddings in DeepOD (scale=%s)\n", scale)
	v := cells(rows)
	cities := distinct(rows, byCity)
	heads := append(append([]string(nil), EmbeddingVariants...), "DeepOD")
	widths := append(repeat(20, len(EmbeddingVariants)), 12)
	matrix(&b, "City", 12, heads, widths, cities, func(i, j int) string {
		base := v[cell{city: cities[i], method: "DeepOD", metric: "mape"}]
		if heads[j] == "DeepOD" {
			return fmt.Sprintf("%.2f", base*100)
		}
		m := v[cell{city: cities[i], method: heads[j], metric: "mape"}]
		return fmt.Sprintf("%.2f(%+.1f%%)", m*100, (m-base)/base*100)
	})
	return b.String()
}
