package experiments

import (
	"fmt"
	"strings"

	"deepod/internal/models"
)

// RunExtRoute is the repository's extension experiment: DeepOD (an OD-based
// estimator) against RouteETA (a route-based estimator from the
// path-estimation family of the paper's §7.1) on the first city, with N-st
// beside them. It quantifies the trade the paper's problem statement
// describes — the route is unknown at query time, so route-based methods
// must predict it and pay for per-segment data sparsity, while DeepOD
// amortizes trajectories into its representation. RouteETA's coverage row
// is the share of (segment, time-bin) cells its training split observed.
func RunExtRoute(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	route := models.NewRouteETA(w.Graph)
	if err := route.Train(w.Split.Train, w.Split.Valid); err != nil {
		return nil, err
	}
	r := s.row("ext-route", city, "RouteETA", "test")
	actual, pred := evaluate(route, w.Split.Test)
	rows := score(r, actual, pred, "mae", "mape")
	r.Split = "train"
	rows = append(rows, r.with("coverage", 0, route.Coverage(), "frac"))
	for _, method := range []string{"N-st", "DeepOD"} {
		actual, pred, err := s.predict(city, method)
		if err != nil {
			return nil, err
		}
		rows = append(rows, score(s.row("ext-route", city, method, "test"), actual, pred, "mae", "mape")...)
	}
	return rows, nil
}

func renderExtRoute(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: OD-based vs route-based estimation (%s, scale=%s)\n", rows[0].City, scale)
	summary(&b, rows, byMethod)
	coverage := where(rows, cell{metric: "coverage"})[0]
	fmt.Fprintf(&b, "  RouteETA observed %.1f%% of (segment, time-bin) cells\n", coverage.Value*100)
	return b.String()
}
