package experiments

import (
	"fmt"
	"strings"
	"time"

	"deepod/internal/core"
	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/models"
	"deepod/internal/plot"
	"deepod/internal/traj"
)

// Table2Result reproduces Table 2 (taxi order dataset statistics).
type Table2Result struct {
	Scale  string
	Cities []string
	Stats  []dataset.Stats
}

// RunTable2 generates every city at the given scale and summarizes its
// orders the way Table 2 does.
func RunTable2(sc Scale) (*Table2Result, error) {
	res := &Table2Result{Scale: sc.Name}
	for _, city := range sc.CityList() {
		w, err := BuildWorld(city, sc)
		if err != nil {
			return nil, err
		}
		g := w.Graph
		st := dataset.Summarize(w.Records, func(r *traj.TripRecord) float64 {
			return r.Trajectory.Length(g)
		})
		res.Cities = append(res.Cities, city)
		res.Stats = append(res.Stats, st)
	}
	return res, nil
}

// String prints the Table 2 layout.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Taxi Order Datasets (scale=%s)\n", r.Scale)
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range r.Cities {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	row := func(label string, f func(dataset.Stats) string) {
		fmt.Fprintf(&b, "%-24s", label)
		for _, s := range r.Stats {
			fmt.Fprintf(&b, "%14s", f(s))
		}
		b.WriteByte('\n')
	}
	row("# of orders", func(s dataset.Stats) string { return fmt.Sprintf("%d", s.NumOrders) })
	row("Avg # of points", func(s dataset.Stats) string { return fmt.Sprintf("%.0f", s.AvgGPSPoints) })
	row("Avg travel time(s)", func(s dataset.Stats) string { return fmt.Sprintf("%.2f", s.AvgTravelSec) })
	row("Avg # of road segments", func(s dataset.Stats) string { return fmt.Sprintf("%.0f", s.AvgSegments) })
	row("Avg length(meter)", func(s dataset.Stats) string { return fmt.Sprintf("%.2f", s.AvgLengthM) })
	return b.String()
}

// ConvergenceRow is one method's convergence record (Table 3).
type ConvergenceRow struct {
	Method        string
	Steps         int
	ConvergedStep int
	Elapsed       time.Duration
	ConvergedAt   time.Duration
	Curve         []core.StepPoint // Figure 10 series
}

// Table3Result reproduces Table 3 (convergence steps and time) and carries
// the Figure 10 validation-error curves.
type Table3Result struct {
	Scale  string
	Cities []string
	// Rows[city][i] is the i-th method's convergence record.
	Rows map[string][]ConvergenceRow
}

// curveSource is implemented by STNN, MURAT and the DeepOD adapter.
type curveSource interface {
	Stats() *core.TrainStats
}

// RunTable3Figure10 trains the three deep models on the first two cities
// (the paper uses Chengdu and Xi'an) recording validation error per
// evaluation step.
func RunTable3Figure10(s *Suite) (*Table3Result, error) {
	res := &Table3Result{Scale: s.Scale.Name, Rows: map[string][]ConvergenceRow{}}
	deepMethods := []string{"STNN", "MURAT", "DeepOD"}
	cities := s.Scale.CityList()
	if len(cities) > 2 {
		cities = cities[:2]
	}
	for _, city := range cities {
		for _, method := range deepMethods {
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
			res.Rows[city] = append(res.Rows[city], ConvergenceRow{
				Method:        method,
				Steps:         st.Steps,
				ConvergedStep: st.ConvergedStep,
				Elapsed:       st.Elapsed,
				ConvergedAt:   st.ConvergedAt,
				Curve:         st.Curve,
			})
		}
		res.Cities = append(res.Cities, city)
	}
	return res, nil
}

// String prints the Table 3 layout plus a compact Figure 10 curve dump.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Convergence Steps and Convergence Time (scale=%s)\n", r.Scale)
	fmt.Fprintf(&b, "%-12s %-10s %14s %16s\n", "city", "method", "steps(conv)", "time(conv)")
	for _, city := range r.Cities {
		for _, row := range r.Rows[city] {
			fmt.Fprintf(&b, "%-12s %-10s %7d/%6d %9s/%6s\n",
				city, row.Method, row.ConvergedStep, row.Steps,
				row.ConvergedAt.Round(time.Millisecond), row.Elapsed.Round(time.Millisecond))
		}
	}
	b.WriteString("Figure 10: validation MAE vs training steps\n")
	for _, city := range r.Cities {
		var series []plot.Series
		for _, row := range r.Rows[city] {
			fmt.Fprintf(&b, "  %s/%s:", city, row.Method)
			s := plot.Series{Name: row.Method}
			for _, p := range row.Curve {
				fmt.Fprintf(&b, " (%d, %.1f)", p.Step, p.ValMAE)
				s.Xs = append(s.Xs, float64(p.Step))
				s.Ys = append(s.Ys, p.ValMAE)
			}
			series = append(series, s)
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s\n", plot.Lines(series, 64, 12))
	}
	return b.String()
}

// ErrorRow is one method's test errors on every city (Table 4).
type ErrorRow struct {
	Method string
	MAE    map[string]float64 // seconds, per city
	MAPE   map[string]float64 // fraction
	MARE   map[string]float64 // fraction
}

// Table4Result reproduces Table 4 (test errors of all methods and the four
// DeepOD ablations on all cities).
type Table4Result struct {
	Scale  string
	Cities []string
	Rows   []ErrorRow
}

// RunTable4 trains and evaluates every Table 4 method on every city.
func RunTable4(s *Suite) (*Table4Result, error) {
	res := &Table4Result{Scale: s.Scale.Name, Cities: s.Scale.CityList()}
	for _, method := range AllTable4Methods {
		row := ErrorRow{
			Method: method,
			MAE:    map[string]float64{}, MAPE: map[string]float64{}, MARE: map[string]float64{},
		}
		for _, city := range res.Cities {
			actual, pred, err := s.TestErrors(city, method)
			if err != nil {
				return nil, err
			}
			row.MAE[city] = metrics.MAE(actual, pred)
			row.MAPE[city] = metrics.MAPE(actual, pred)
			row.MARE[city] = metrics.MARE(actual, pred)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String prints the Table 4 layout (method × metric, slash-separated
// per-city values like the paper).
func (r *Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Experimental Results on Test Errors (scale=%s, cities=%s)\n",
		r.Scale, strings.Join(r.Cities, "/"))
	fmt.Fprintf(&b, "%-10s %-30s %-26s %-26s\n", "Method", "MAE(second)", "MAPE(%)", "MARE(%)")
	for _, row := range r.Rows {
		mae := make([]string, len(r.Cities))
		mape := make([]string, len(r.Cities))
		mare := make([]string, len(r.Cities))
		for i, c := range r.Cities {
			mae[i] = fmt.Sprintf("%.2f", row.MAE[c])
			mape[i] = fmt.Sprintf("%.2f", row.MAPE[c]*100)
			mare[i] = fmt.Sprintf("%.2f", row.MARE[c]*100)
		}
		fmt.Fprintf(&b, "%-10s %-30s %-26s %-26s\n", row.Method,
			strings.Join(mae, "/"), strings.Join(mape, "/"), strings.Join(mare, "/"))
	}
	return b.String()
}

// EfficiencyRow is one method's Table 5 record.
type EfficiencyRow struct {
	Method string
	// SizeBytes, TrainTime and EstimatePerK (time to estimate 1000 OD
	// inputs) per city.
	SizeBytes    map[string]int
	TrainTime    map[string]time.Duration
	EstimatePerK map[string]time.Duration
}

// Table5Result reproduces Table 5 (model size, training time, estimation
// time).
type Table5Result struct {
	Scale  string
	Cities []string
	Rows   []EfficiencyRow
}

// Table5Methods is the Table 5 row order.
var Table5Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"}

// RunTable5 measures efficiency of every method on every city. Estimation
// time is measured over min(1000, 4×test) queries, cycling the test set.
func RunTable5(s *Suite) (*Table5Result, error) {
	res := &Table5Result{Scale: s.Scale.Name, Cities: s.Scale.CityList()}
	for _, method := range Table5Methods {
		row := EfficiencyRow{
			Method:       method,
			SizeBytes:    map[string]int{},
			TrainTime:    map[string]time.Duration{},
			EstimatePerK: map[string]time.Duration{},
		}
		for _, city := range res.Cities {
			w, err := s.World(city)
			if err != nil {
				return nil, err
			}
			m, err := s.Model(city, method)
			if err != nil {
				return nil, err
			}
			row.SizeBytes[city] = m.SizeBytes()
			row.TrainTime[city] = m.TrainTime()

			n := 1000
			start := time.Now()
			for i := 0; i < n; i++ {
				rec := &w.Split.Test[i%len(w.Split.Test)]
				m.Estimate(&rec.Matched)
			}
			row.EstimatePerK[city] = time.Since(start)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String prints the Table 5 layout.
func (r *Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Efficiency of Test Result (scale=%s, cities=%s)\n",
		r.Scale, strings.Join(r.Cities, "/"))
	fmt.Fprintf(&b, "%-10s %-30s %-36s %-30s\n", "Method", "model size(Byte)", "training time", "estimation time(per 1K)")
	for _, row := range r.Rows {
		size := make([]string, len(r.Cities))
		tt := make([]string, len(r.Cities))
		et := make([]string, len(r.Cities))
		for i, c := range r.Cities {
			size[i] = humanBytes(row.SizeBytes[c])
			tt[i] = row.TrainTime[c].Round(time.Millisecond).String()
			et[i] = row.EstimatePerK[c].Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-10s %-30s %-36s %-30s\n", row.Method,
			strings.Join(size, "/"), strings.Join(tt, "/"), strings.Join(et, "/"))
	}
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

// Table6Result reproduces Table 6 (scalability: test MAPE vs training-data
// fraction on the largest city).
type Table6Result struct {
	Scale     string
	City      string
	Fractions []float64
	// MAPE[method][i] corresponds to Fractions[i].
	MAPE map[string][]float64
}

// Table6Methods is the Table 6 column order.
var Table6Methods = []string{"TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"}

// RunTable6 trains every method on growing fractions of the largest city's
// training data (fresh models per fraction; the full-data models come from
// the suite cache).
func RunTable6(s *Suite) (*Table6Result, error) {
	cities := s.Scale.CityList()
	city := cities[len(cities)-1] // the largest preset in report order
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	res := &Table6Result{
		Scale:     s.Scale.Name,
		City:      city,
		Fractions: []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		MAPE:      map[string][]float64{},
	}
	for _, method := range Table6Methods {
		for _, frac := range res.Fractions {
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
			actual := make([]float64, len(w.Split.Test))
			pred := make([]float64, len(w.Split.Test))
			for i := range w.Split.Test {
				actual[i] = w.Split.Test[i].TravelSec
				pred[i] = m.Estimate(&w.Split.Test[i].Matched)
			}
			res.MAPE[method] = append(res.MAPE[method], metrics.MAPE(actual, pred))
		}
	}
	return res, nil
}

// String prints the Table 6 layout.
func (r *Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Scalability of Test Result (%s, scale=%s) — MAPE(%%)\n", r.City, r.Scale)
	fmt.Fprintf(&b, "%-8s", "frac")
	for _, m := range Table6Methods {
		fmt.Fprintf(&b, "%10s", m)
	}
	b.WriteByte('\n')
	for i, f := range r.Fractions {
		fmt.Fprintf(&b, "%-8s", fmt.Sprintf("%.0f%%", f*100))
		for _, m := range Table6Methods {
			fmt.Fprintf(&b, "%10.2f", r.MAPE[m][i]*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table7Result reproduces Table 7 (embedding-initialization variants).
type Table7Result struct {
	Scale  string
	Cities []string
	// Base[city] is DeepOD's MAPE; Variant[name][city] the variant's.
	Base    map[string]float64
	Variant map[string]map[string]float64
}

// RunTable7 evaluates the four embedding variants against DeepOD.
func RunTable7(s *Suite) (*Table7Result, error) {
	res := &Table7Result{
		Scale:   s.Scale.Name,
		Cities:  s.Scale.CityList(),
		Base:    map[string]float64{},
		Variant: map[string]map[string]float64{},
	}
	for _, city := range res.Cities {
		actual, pred, err := s.TestErrors(city, "DeepOD")
		if err != nil {
			return nil, err
		}
		res.Base[city] = metrics.MAPE(actual, pred)
	}
	for _, v := range EmbeddingVariants {
		res.Variant[v] = map[string]float64{}
		for _, city := range res.Cities {
			actual, pred, err := s.TestErrors(city, v)
			if err != nil {
				return nil, err
			}
			res.Variant[v][city] = metrics.MAPE(actual, pred)
		}
	}
	return res, nil
}

// String prints the Table 7 layout (variant MAPE with Δ% vs DeepOD).
func (r *Table7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: MAPE Errors(%%) of Embeddings in DeepOD (scale=%s)\n", r.Scale)
	fmt.Fprintf(&b, "%-12s", "City")
	for _, v := range EmbeddingVariants {
		fmt.Fprintf(&b, "%20s", v)
	}
	fmt.Fprintf(&b, "%12s\n", "DeepOD")
	for _, city := range r.Cities {
		fmt.Fprintf(&b, "%-12s", city)
		base := r.Base[city]
		for _, v := range EmbeddingVariants {
			m := r.Variant[v][city]
			delta := (m - base) / base * 100
			fmt.Fprintf(&b, "%20s", fmt.Sprintf("%.2f(%+.1f%%)", m*100, delta))
		}
		fmt.Fprintf(&b, "%12.2f\n", base*100)
	}
	return b.String()
}
