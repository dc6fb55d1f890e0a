package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// shared runs the plumbing tests; it checks that every experiment produces
// structurally valid output quickly. Learning-quality (shape) assertions
// live in shape_test.go at the larger ShapeScale.
var shared = NewSuite(TinyScale())

// sharedRows memoizes each experiment's rows on shared, so the plumbing
// tests and the golden test read one run.
var sharedRows = map[string][]Row{}

// experiment returns the named entry of Experiments.
func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return Experiment{}
}

// rowsOf runs the named experiment on shared once and returns its rows, each
// stamped with the experiment's name and the scale's seed.
func rowsOf(t *testing.T, name string) []Row {
	t.Helper()
	if rows, ok := sharedRows[name]; ok {
		return rows
	}
	rows, err := experiment(t, name).Run(shared)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, r := range rows {
		if r.Exp != name || r.Seed != shared.Scale.Seed {
			t.Fatalf("%s: row %+v is not stamped with its experiment and seed", name, r)
		}
	}
	sharedRows[name] = rows
	return rows
}

// rendered is the named experiment's text on shared.
func rendered(t *testing.T, name string) string {
	t.Helper()
	return experiment(t, name).Render(shared.Scale.Name, rowsOf(t, name))
}

// TestTinyGolden pins the text of the whole experiment table at TinyScale:
// testdata/tiny.golden is `ttebench -scale tiny`'s output from before
// experiments returned rows, with its timing fields (Table 3's time(conv),
// Table 5's training and estimation times) read as a zero duration renders
// and its "[… took …]" lines dropped. Every other number is deterministic.
func TestTinyGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range Experiments {
		rows := append([]Row(nil), rowsOf(t, e.Name)...)
		for i := range rows {
			if rows[i].Unit == "ns" {
				rows[i].Value = 0
			}
		}
		fmt.Fprintf(&b, "%s\n\n", e.Render(shared.Scale.Name, rows))
	}
	want, err := os.ReadFile("testdata/tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstDiff(strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")); diff != "" {
		t.Fatalf("differs from testdata/tiny.golden at %s", diff)
	}
}

func TestRunTable2(t *testing.T) {
	rows := rowsOf(t, "table2")
	v := cells(rows)
	cities := distinct(rows, byCity)
	if len(cities) != 3 {
		t.Fatalf("want 3 cities, got %v", cities)
	}
	for _, c := range cities {
		at := func(metric string) float64 { return v[cell{city: c, metric: metric}] }
		if at("orders") == 0 || at("travel_time") <= 0 || at("segments") < 1 || at("length") <= 0 {
			t.Fatalf("city %s has degenerate stats: %+v", c, where(rows, cell{city: c}))
		}
		if at("gps_points") < 2 {
			t.Fatalf("city %s has too few GPS points per trip: %+v", c, where(rows, cell{city: c}))
		}
	}
	// beijing-s must be the largest dataset (mirrors BRN ≫ CRN/XRN).
	if v[cell{city: "beijing-s", metric: "orders"}] <= v[cell{city: "chengdu-s", metric: "orders"}] {
		t.Fatalf("beijing-s should have the most orders: %+v", where(rows, cell{metric: "orders"}))
	}
	out := rendered(t, "table2")
	for _, want := range []string{"Table 2", "# of orders", "Avg travel time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable4Plumbing(t *testing.T) {
	rows := rowsOf(t, "table4")
	if got := distinct(rows, byMethod); len(got) != len(AllTable4Methods) {
		t.Fatalf("want %d methods, got %d", len(AllTable4Methods), len(got))
	}
	if n := len(where(rows, cell{metric: "mape"})); n != 3*len(AllTable4Methods) {
		t.Fatalf("want every method on 3 cities, got %d MAPE rows", n)
	}
	for _, r := range where(rows, cell{metric: "mape"}) {
		if r.Value <= 0 || r.Value > 5 {
			t.Fatalf("%s on %s has implausible MAPE %v", r.Method, r.City, r.Value)
		}
	}
	for _, r := range where(rows, cell{metric: "mae"}) {
		if r.Value <= 0 {
			t.Fatalf("%s on %s has non-positive MAE", r.Method, r.City)
		}
	}
	if !strings.Contains(rendered(t, "table4"), "DeepOD") {
		t.Fatal("Table 4 output missing DeepOD row")
	}
}

func TestRunTable5Plumbing(t *testing.T) {
	rows := rowsOf(t, "table5")
	if n := len(where(rows, cell{metric: "size"})); n != 3*len(Table5Methods) {
		t.Fatalf("want every method on 3 cities, got %d size rows", n)
	}
	for _, r := range rows {
		if (r.Metric == "size" || r.Metric == "estimate_1k") && r.Value <= 0 {
			t.Fatalf("%s has zero %s on %s", r.Method, r.Metric, r.City)
		}
	}
	v := cells(rows)
	// Table 5 findings: TEMP's memory grows with data; deep estimation
	// costs more than LR's.
	if v[cell{city: "beijing-s", method: "TEMP", metric: "size"}] <= v[cell{city: "xian-s", method: "TEMP", metric: "size"}] {
		t.Error("TEMP model size should grow with dataset size")
	}
	if v[cell{city: "chengdu-s", method: "DeepOD", metric: "estimate_1k"}] <= v[cell{city: "chengdu-s", method: "LR", metric: "estimate_1k"}] {
		t.Error("DeepOD estimation should cost more than LR")
	}
}

func TestRunTable3Figure10(t *testing.T) {
	rows := rowsOf(t, "table3")
	cities := distinct(rows, byCity)
	if len(cities) != 2 {
		t.Fatalf("Table 3 should cover 2 cities, got %d", len(cities))
	}
	v := cells(rows)
	for _, city := range cities {
		methods := distinct(where(rows, cell{city: city}), byMethod)
		if len(methods) != 3 {
			t.Fatalf("Table 3 should have 3 methods on %s", city)
		}
		for _, m := range methods {
			at := func(metric string) float64 { return v[cell{city: city, method: m, metric: metric}] }
			if at("steps") == 0 || len(where(rows, cell{city: city, method: m, metric: "val_mae"})) == 0 {
				t.Fatalf("%s on %s has empty curve", m, city)
			}
			if at("converged_step") > at("steps") {
				t.Fatalf("%s converged after the run ended?", m)
			}
			if at("converged_at") > at("elapsed") {
				t.Fatalf("%s convergence time exceeds total time", m)
			}
		}
	}
	out := rendered(t, "table3")
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "Table 3") {
		t.Fatal("Table 3 output incomplete")
	}
}

func TestRunTable6Plumbing(t *testing.T) {
	rows := rowsOf(t, "table6")
	if city := rows[0].City; city != "beijing-s" {
		t.Fatalf("Table 6 should use the largest city, got %s", city)
	}
	for _, m := range Table6Methods {
		points := where(rows, cell{method: m, metric: "mape"})
		if len(points) != 5 {
			t.Fatalf("%s has %d points, want 5", m, len(points))
		}
		for _, r := range points {
			if r.Value <= 0 || r.Value > 5 {
				t.Fatalf("%s fraction %.0f%% has implausible MAPE %v", m, r.X*100, r.Value)
			}
		}
	}
}

func TestRunTable7Plumbing(t *testing.T) {
	rows := rowsOf(t, "table7")
	for _, v := range EmbeddingVariants {
		points := where(rows, cell{method: v})
		if len(points) != 3 {
			t.Fatalf("variant %s has %d cities, want 3", v, len(points))
		}
		for _, r := range points {
			if r.Value <= 0 {
				t.Fatalf("variant %s has zero MAPE on %s", v, r.City)
			}
		}
	}
	if !strings.Contains(rendered(t, "table7"), "T-stamp") {
		t.Fatal("Table 7 output incomplete")
	}
}

func TestFiguresPlumbing(t *testing.T) {
	f11 := rowsOf(t, "fig11")
	for _, m := range Figure11Methods {
		if n := len(where(f11, cell{method: m, metric: "ape_pdf"})); n != 60 {
			t.Fatalf("KDE for %s has %d points, want 60", m, n)
		}
		if mean := where(f11, cell{method: m, metric: "ape_mean"}); len(mean) != 1 || mean[0].Value <= 0 {
			t.Fatalf("%s has no positive APE mean: %+v", m, mean)
		}
	}

	f12 := rowsOf(t, "fig12")
	for _, m := range Figure11Methods {
		points := where(f12, cell{method: m})
		if len(points) == 0 {
			t.Fatalf("Figure 12 has no points for %s", m)
		}
		for _, p := range points {
			if p.X <= 0 || p.X >= 3600 {
				t.Fatalf("Figure 12 sampled a trip outside (0, 1h): %+v", p)
			}
		}
	}

	f13 := rowsOf(t, "fig13")
	for _, m := range Figure11Methods {
		points := where(f13, cell{method: m})
		if len(points) != 50 {
			t.Fatalf("Figure 13 wants 50 worst cases for %s, got %d", m, len(points))
		}
		// Worst cases must be sorted by APE descending.
		prev := 2.0e18
		for _, p := range points {
			ape := abs(p.X-p.Value) / p.X
			if ape > prev+1e-9 {
				t.Fatalf("Figure 13 worst cases for %s not sorted", m)
			}
			prev = ape
		}
	}

	f14b := rowsOf(t, "fig14b")
	if len(f14b) != 7*24 {
		t.Fatalf("Figure 14b has %d cells, want 7×24", len(f14b))
	}
	var nonzero int
	for _, r := range f14b {
		if r.Value != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("Figure 14b heatmap is all zeros")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRunFigure5a(t *testing.T) {
	rows := rowsOf(t, "fig5a")
	roads := distinct(rows, byVariant)
	if len(roads) != 4 {
		t.Fatalf("want 4 roads, got %d", len(roads))
	}
	for _, road := range roads {
		if n := len(where(rows, cell{variant: road})); n != shared.Scale.HorizonDays {
			t.Fatalf("%s has %d days, want %d", road, n, shared.Scale.HorizonDays)
		}
	}
	// Weekday flow should exceed weekend flow on average (commute pattern).
	f := values(where(rows, cell{variant: roads[0]}))
	weekday := (f[1] + f[2] + f[3]) / 3
	weekend := (f[5] + f[6]) / 2
	if weekday <= weekend {
		t.Errorf("weekday congestion %.4f should exceed weekend %.4f", weekday, weekend)
	}
}

func TestRunFigure9Small(t *testing.T) {
	rows := rowsOf(t, "fig9")
	weights := where(rows, cell{metric: "mape_min"})
	if len(weights) != 9 {
		t.Fatalf("want 9 boxes, got %d", len(weights))
	}
	v := cells(rows)
	swept := map[float64]bool{}
	for _, r := range weights {
		swept[r.X] = true
		at := func(stat string) float64 { return v[cell{r.City, r.Method, "", "mape_" + stat, r.X}] }
		if !(at("min") <= at("q1") && at("q1") <= at("median") && at("median") <= at("q3") && at("q3") <= at("max")) {
			t.Fatalf("box stats out of order at w = %v", r.X)
		}
	}
	if w := argmin(rows, "mape_mean"); !swept[w] {
		t.Fatalf("best w %v is not one of the swept values", w)
	}
}

func TestRunFigure14a(t *testing.T) {
	rows := rowsOf(t, "fig14a")
	if len(rows) != 5 {
		t.Fatalf("want 5 MAPE points, got %d", len(rows))
	}
	best := argmin(rows, "mape")
	for _, r := range rows {
		if r.X == best {
			return
		}
	}
	t.Fatalf("best Δt = %v min is not one of the swept sizes", best)
}

func TestRunFigure8(t *testing.T) {
	rows := rowsOf(t, "fig8")
	for _, p := range Figure8Params {
		points := where(rows, cell{variant: p, metric: "mape"})
		if len(points) != 3 {
			t.Fatalf("param %s has %d sizes, want 3", p, len(points))
		}
		for _, r := range points {
			if r.Value <= 0 {
				t.Fatalf("param %s has bad sweep result: %+v", p, points)
			}
		}
	}
}

func TestRunEmbedStudy(t *testing.T) {
	rows := rowsOf(t, "embedstudy")
	if methods := distinct(rows, byVariant); len(methods) != 3 {
		t.Fatalf("methods = %v", methods)
	}
	for _, r := range rows {
		if r.Value <= 0 {
			t.Fatalf("method %s has degenerate %s", r.Variant, r.Metric)
		}
	}
	if !strings.Contains(rendered(t, "embedstudy"), "node2vec") {
		t.Fatal("embed study output incomplete")
	}
}

func TestRunExtRoute(t *testing.T) {
	rows := rowsOf(t, "ext-route")
	for _, r := range rows {
		if r.Metric != "coverage" && r.Value <= 0 {
			t.Fatalf("%s has degenerate %s", r.Method, r.Metric)
		}
	}
	if c := where(rows, cell{metric: "coverage"}); len(c) != 1 || c[0].Value <= 0 || c[0].Value > 1 {
		t.Fatalf("coverage %+v out of range", c)
	}
	if !strings.Contains(rendered(t, "ext-route"), "RouteETA") {
		t.Fatal("extension output incomplete")
	}
}
