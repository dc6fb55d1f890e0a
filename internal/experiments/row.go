package experiments

import (
	"math"

	"deepod/internal/metrics"
	"deepod/internal/traj"
)

// Row is one number of one experiment in long format. Every table and
// figure is a list of rows, and its renderer lays them out as the paper
// does.
type Row struct {
	// Exp is the experiment's name in Experiments ("table4", "fig9", ...).
	Exp  string
	City string
	// Method is the estimator ("DeepOD", "N-st", "GBM", ...); empty for
	// rows about the data.
	Method string
	// Variant is the panel within an experiment: Figure 8's
	// hyper-parameter, Figure 5a's road, Figure 14b's weekday, the
	// embedding study's pre-training method.
	Variant string
	// Seed is the scale's seed, which drives the world and the training.
	Seed int64
	// Split is the records the value is measured on: "train", "valid",
	// "test", "all", or empty.
	Split  string
	Metric string
	// X is the sweep value or plot abscissa: a training step, day, hour,
	// data fraction, dimension, loss weight, slot size in minutes, or the
	// actual travel time of a scatter point.
	X float64
	// Value is in Unit; a duration ("ns") is an integer number of
	// nanoseconds, so time.Duration(Value) is exact.
	Value float64
	Unit  string
}

// with returns r carrying one value: metric at abscissa x, in unit.
func (r Row) with(metric string, x, v float64, unit string) Row {
	r.Metric, r.X, r.Value, r.Unit = metric, x, v, unit
	return r
}

// estimator is what evaluate needs of a model: every models.Estimator and
// a bare core.Model.
type estimator interface {
	Estimate(od *traj.MatchedOD) float64
}

// evaluate runs est on every record and returns the actual and predicted
// travel times in seconds, in record order.
func evaluate(est estimator, records []traj.TripRecord) (actual, pred []float64) {
	actual = make([]float64, len(records))
	pred = make([]float64, len(records))
	for i := range records {
		actual[i] = records[i].TravelSec
		pred[i] = est.Estimate(&records[i].Matched)
	}
	return actual, pred
}

// errorMetrics are the accuracy measures of §6.1 by row metric name.
var errorMetrics = map[string]struct {
	f    func(actual, pred []float64) float64
	unit string
}{
	"mae":  {metrics.MAE, "s"},
	"mape": {metrics.MAPE, "frac"},
	"mare": {metrics.MARE, "frac"},
}

// score returns one row of base per named error metric of pred against
// actual, at base's abscissa.
func score(base Row, actual, pred []float64, names ...string) []Row {
	rows := make([]Row, len(names))
	for i, name := range names {
		m := errorMetrics[name]
		rows[i] = base.with(name, base.X, m.f(actual, pred), m.unit)
	}
	return rows
}

// cell locates one value among an experiment's rows.
type cell struct {
	city, method, variant, metric string
	x                             float64
}

func (r Row) cell() cell { return cell{r.City, r.Method, r.Variant, r.Metric, r.X} }

// cells indexes rows by cell.
func cells(rows []Row) map[cell]float64 {
	m := make(map[cell]float64, len(rows))
	for _, r := range rows {
		m[r.cell()] = r.Value
	}
	return m
}

// where returns, in order, the rows that match q in every non-empty string
// field; q.x is ignored.
func where(rows []Row, q cell) []Row {
	var out []Row
	for _, r := range rows {
		if (q.city == "" || r.City == q.city) && (q.method == "" || r.Method == q.method) &&
			(q.variant == "" || r.Variant == q.variant) && (q.metric == "" || r.Metric == q.metric) {
			out = append(out, r)
		}
	}
	return out
}

// distinct lists the values field takes over rows, in first-seen order.
func distinct(rows []Row, field func(Row) string) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if v := field(r); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func byCity(r Row) string    { return r.City }
func byMethod(r Row) string  { return r.Method }
func byVariant(r Row) string { return r.Variant }

// values returns the rows' values in order.
func values(rows []Row) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.Value
	}
	return out
}

// argmin returns the abscissa of metric's lowest value, the first on a tie.
func argmin(rows []Row, metric string) float64 {
	best, x := math.Inf(1), math.NaN()
	for _, r := range where(rows, cell{metric: metric}) {
		if r.Value < best {
			best, x = r.Value, r.X
		}
	}
	return x
}
