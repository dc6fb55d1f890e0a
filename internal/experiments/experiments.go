package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one entry of the paper's evaluation section.
type Experiment struct {
	// Name selects the experiment (ttebench -exp).
	Name string
	// Run computes the experiment's rows on a suite.
	Run func(*Suite) ([]Row, error)
	// Render lays the rows out as the paper's table or figure, titled with
	// the scale's name.
	Render func(scale string, rows []Row) string
}

// Experiments lists every experiment in the order ttebench runs "all"
// (table3 renders Figure 10 as well).
var Experiments = []Experiment{
	{"table2", RunTable2, renderTable2},
	{"fig5a", RunFigure5a, renderFigure5a},
	{"table3", RunTable3Figure10, renderTable3Figure10},
	{"table4", RunTable4, renderTable4},
	{"table5", RunTable5, renderTable5},
	{"table6", RunTable6, renderTable6},
	{"table7", RunTable7, renderTable7},
	{"fig8", RunFigure8, renderFigure8},
	{"fig9", RunFigure9, renderFigure9},
	{"fig11", RunFigure11, renderFigure11},
	{"fig12", RunFigure12, renderFigure12},
	{"fig13", RunFigure13, renderFigure13},
	{"fig14a", RunFigure14a, renderFigure14a},
	{"fig14b", RunFigure14b, renderFigure14b},
	{"embedstudy", RunEmbedStudy, renderEmbedStudy},
	{"ext-route", RunExtRoute, renderExtRoute},
}

// errorTable writes the layout of Tables 4 and 5: a header of heads, then
// one line per method with, per metric, the cities' formatted values joined
// by "/". Column j is left-aligned in widths[j]; column 0 holds the method.
func errorTable(b *strings.Builder, rows []Row, heads []string, widths []int, metrics []string, format func(metric string, v float64) string) {
	v := cells(rows)
	cities := distinct(rows, byCity)
	line := func(col func(j int) string) {
		fmt.Fprintf(b, "%-*s", widths[0], col(0))
		for j := 1; j < len(widths); j++ {
			fmt.Fprintf(b, " %-*s", widths[j], col(j))
		}
		b.WriteByte('\n')
	}
	line(func(j int) string { return heads[j] })
	for _, m := range distinct(rows, byMethod) {
		line(func(j int) string {
			if j == 0 {
				return m
			}
			vals := make([]string, len(cities))
			for i, c := range cities {
				vals[i] = format(metrics[j-1], v[cell{city: c, method: m, metric: metrics[j-1]}])
			}
			return strings.Join(vals, "/")
		})
	}
}

// matrix writes a header of heads over one line per label: the label
// left-aligned in lw columns, then cell(i, j) right-aligned in widths[j].
func matrix(b *strings.Builder, corner string, lw int, heads []string, widths []int, labels []string, cell func(i, j int) string) {
	fmt.Fprintf(b, "%-*s", lw, corner)
	for j, h := range heads {
		fmt.Fprintf(b, "%*s", widths[j], h)
	}
	b.WriteByte('\n')
	for i, l := range labels {
		fmt.Fprintf(b, "%-*s", lw, l)
		for j := range heads {
			fmt.Fprintf(b, "%*s", widths[j], cell(i, j))
		}
		b.WriteByte('\n')
	}
}

// repeat returns n copies of w.
func repeat(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}

// series writes one line: label, then point(r) for each row in order.
func series(b *strings.Builder, label string, rows []Row, point func(Row) string) {
	b.WriteString(label)
	for _, r := range rows {
		b.WriteString(point(r))
	}
	b.WriteByte('\n')
}

// scatter writes the layout of Figures 12 and 13: per method, its
// (actual, estimated) pairs.
func scatter(title, scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, scale=%s)\n", title, rows[0].City, scale)
	for _, m := range distinct(rows, byMethod) {
		series(&b, fmt.Sprintf("  %-8s", m), where(rows, cell{method: m}), func(r Row) string {
			return fmt.Sprintf(" (%.0f,%.0f)", r.X, r.Value)
		})
	}
	return b.String()
}

// summary writes one "MAE=… MAPE=…" line per row of metric mae, labelled
// by label(row).
func summary(b *strings.Builder, rows []Row, label func(Row) string) {
	v := cells(rows)
	for _, r := range where(rows, cell{metric: "mae"}) {
		q := r.cell()
		q.metric = "mape"
		fmt.Fprintf(b, "  %-10s MAE=%.2fs MAPE=%.2f%%\n", label(r), r.Value, v[q]*100)
	}
}
