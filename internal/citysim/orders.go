package citysim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
	"deepod/internal/traj"
)

// OrderConfig parameterizes taxi-order synthesis.
type OrderConfig struct {
	// NumOrders is the number of trips to generate.
	NumOrders int
	// Hotspots is the number of demand hotspots (origins/destinations
	// cluster around them, like railway stations or malls).
	Hotspots int
	// GPSPeriodSec is the sampling period of the synthetic GPS trace
	// (3 s for Chengdu/Xi'an, 60 s for Beijing in the paper).
	GPSPeriodSec float64
	// GPSNoiseMeters perturbs each GPS sample.
	GPSNoiseMeters float64
	// RouteTemp > 0 randomizes route choice: drivers pick approximately
	// shortest time-dependent routes, with per-driver perceived edge costs
	// multiplied by exp(RouteTemp·N(0,1)). Different drivers on the same OD
	// thus take different routes — the multi-route property of Example 1.
	RouteTemp float64
	// MinTripMeters rejects trivially short OD pairs.
	MinTripMeters float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultOrderConfig returns settings producing Chengdu-like trips on the
// small synthetic cities.
func DefaultOrderConfig(n int, seed int64) OrderConfig {
	return OrderConfig{
		NumOrders:      n,
		Hotspots:       5,
		GPSPeriodSec:   15,
		GPSNoiseMeters: 8,
		RouteTemp:      0.25,
		MinTripMeters:  600,
		Seed:           seed,
	}
}

// Generator synthesizes taxi orders over a traffic field.
type Generator struct {
	traffic *Traffic
	grid    *SpeedGridder
	cfg     OrderConfig
	rng     *rand.Rand
	spots   []geo.Point
}

// NewGenerator builds an order generator. grid may be nil to skip external
// features.
func NewGenerator(t *Traffic, grid *SpeedGridder, cfg OrderConfig) (*Generator, error) {
	if cfg.NumOrders <= 0 {
		return nil, fmt.Errorf("citysim: NumOrders must be positive, got %d", cfg.NumOrders)
	}
	if cfg.GPSPeriodSec <= 0 {
		return nil, fmt.Errorf("citysim: GPSPeriodSec must be positive, got %v", cfg.GPSPeriodSec)
	}
	gen := &Generator{traffic: t, grid: grid, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	b := t.Graph().Bounds()
	for i := 0; i < cfg.Hotspots; i++ {
		gen.spots = append(gen.spots, geo.Point{
			X: b.Min.X + float64(gen.rng.Float64()*b.Width()),
			Y: b.Min.Y + float64(gen.rng.Float64()*b.Height()),
		})
	}
	return gen, nil
}

// sampleEndpoint picks a position on the network: with probability 0.6 near
// a hotspot, otherwise uniform; the point is then snapped to a random
// nearby edge at a random fraction.
func (gen *Generator) sampleEndpoint() (roadnet.EdgeID, float64) {
	g := gen.traffic.Graph()
	b := g.Bounds()
	var p geo.Point
	if len(gen.spots) > 0 && gen.rng.Float64() < 0.6 {
		s := gen.spots[gen.rng.Intn(len(gen.spots))]
		p = geo.Point{
			X: s.X + gen.rng.NormFloat64()*b.Width()/10,
			Y: s.Y + gen.rng.NormFloat64()*b.Height()/10,
		}
	} else {
		p = geo.Point{X: b.Min.X + float64(gen.rng.Float64()*b.Width()), Y: b.Min.Y + float64(gen.rng.Float64()*b.Height())}
	}
	// Snap: pick the nearest edge by scanning a random sample of edges —
	// cheap and sufficient for synthesis (map matching uses a real index).
	best, bestD := roadnet.EdgeID(0), math.Inf(1)
	bestFrac := 0.5
	for trial := 0; trial < 64; trial++ {
		e := roadnet.EdgeID(gen.rng.Intn(g.NumEdges()))
		a, bb := g.EdgePoints(e)
		_, frac, d := geo.ProjectOnSegment(p, a, bb)
		if d < bestD {
			best, bestD, bestFrac = e, d, frac
		}
	}
	// Keep fractions interior so position ratios are informative.
	bestFrac = 0.1 + float64(0.8*bestFrac)
	return best, bestFrac
}

// sampleDeparture draws a departure time from a demand curve over the
// horizon: weekday rush hours are the most popular departure times.
func (gen *Generator) sampleDeparture() float64 {
	for {
		t := float64(gen.rng.Float64() * gen.traffic.Horizon())
		day := int(t / timeslot.SecondsPerDay)
		secOfDay := t - float64(float64(day)*timeslot.SecondsPerDay)
		demand := 0.15 + dayProfile(secOfDay, day%7 >= 5)
		if gen.rng.Float64() < demand {
			return t
		}
	}
}

// Generate synthesizes cfg.NumOrders trip records, sorted by departure
// time. Each record carries the OD input, the matched OD representation,
// the ground-truth trajectory driven through the congestion field, and the
// resulting travel time.
func (gen *Generator) Generate() ([]traj.TripRecord, error) {
	g := gen.traffic.Graph()
	records := make([]traj.TripRecord, 0, gen.cfg.NumOrders)
	// Perceived cost: time-dependent cost with a lognormal per-edge bias
	// drawn per trip, yielding diverse route choices. A trip draws an
	// edge's bias at its first touch; biasTrip[e] is the trip that drew
	// bias[e].
	bias := make([]float64, g.NumEdges())
	biasTrip := make([]int, g.NumEdges())
	trip := 0
	cost := gen.traffic.TravelCost()
	perceived := func(e roadnet.EdgeID, at float64) float64 {
		if biasTrip[e] != trip {
			bias[e] = math.Exp(gen.cfg.RouteTemp * gen.rng.NormFloat64())
			biasTrip[e] = trip
		}
		return cost(e, at) * bias[e]
	}
	for len(records) < gen.cfg.NumOrders {
		oe, of := gen.sampleEndpoint()
		de, df := gen.sampleEndpoint()
		if oe == de {
			continue
		}
		depart := gen.sampleDeparture()

		trip++
		path, err := roadnet.ShortestPath(g, g.Edges[oe].To, g.Edges[de].From, depart, perceived)
		if err != nil {
			continue // disconnected pair; resample
		}
		edges := make([]roadnet.EdgeID, 0, len(path.Edges)+2)
		edges = append(edges, oe)
		edges = append(edges, path.Edges...)
		edges = append(edges, de)

		rec, ok := gen.drive(edges, of, df, depart)
		if !ok {
			continue
		}
		if rec.Trajectory.Length(g) < gen.cfg.MinTripMeters {
			continue
		}
		if gen.grid != nil {
			ext := gen.grid.External(depart)
			rec.OD.External = ext
			rec.Matched.External = ext
		}
		records = append(records, rec)
	}
	sortByDeparture(records)
	return records, nil
}

// drive walks the edge sequence through the congestion field, producing the
// ground-truth spatio-temporal path, the travel time, and a noisy GPS trace.
func (gen *Generator) drive(edges []roadnet.EdgeID, originFrac, destFrac, depart float64) (traj.TripRecord, bool) {
	g := gen.traffic.Graph()
	now := depart
	steps := make([]traj.Step, 0, len(edges))
	for i, e := range edges {
		from, to := 0.0, 1.0
		if i == 0 {
			from = originFrac
		}
		if i == len(edges)-1 {
			to = destFrac
		}
		if to <= from { // single-edge trip with dest before origin, or zero span
			if len(edges) == 1 {
				return traj.TripRecord{}, false
			}
			to = from // zero-length crossing; keep interval degenerate
		}
		enter := now
		if i > 0 {
			// Intersection wait before entering the segment.
			now += gen.traffic.EntryWait(e, now)
		}
		dt := gen.traffic.TraverseTime(e, from, to, now)
		steps = append(steps, traj.Step{Edge: e, Enter: enter, Exit: now + dt})
		now += dt
	}
	travel := now - depart
	if travel <= 0 || travel > 3*3600 {
		return traj.TripRecord{}, false
	}

	tr := traj.Trajectory{Path: steps, RStart: originFrac, REnd: 1 - destFrac}
	if err := tr.Validate(g); err != nil {
		return traj.TripRecord{}, false
	}

	origin := g.PointAlongEdge(edges[0], originFrac)
	dest := g.PointAlongEdge(edges[len(edges)-1], destFrac)

	raw := gen.trace(tr)
	return traj.TripRecord{
		OD: traj.ODInput{Origin: origin, Dest: dest, DepartSec: depart},
		Matched: traj.MatchedOD{
			OriginEdge: edges[0], DestEdge: edges[len(edges)-1],
			RStart: originFrac, REnd: 1 - destFrac, DepartSec: depart,
		},
		Trajectory: tr,
		TravelSec:  travel,
		RawPoints:  len(raw.Points),
	}, true
}

// trace samples a noisy GPS trace along the trajectory every GPSPeriodSec.
func (gen *Generator) trace(tr traj.Trajectory) traj.Raw {
	g := gen.traffic.Graph()
	var pts []traj.GPSPoint
	noise := func(p geo.Point) geo.Point {
		return geo.Point{
			X: p.X + float64(gen.rng.NormFloat64()*gen.cfg.GPSNoiseMeters),
			Y: p.Y + float64(gen.rng.NormFloat64()*gen.cfg.GPSNoiseMeters),
		}
	}
	start, end := tr.DepartureTime(), tr.Path[len(tr.Path)-1].Exit
	for t := start; t < end; t += gen.cfg.GPSPeriodSec {
		pts = append(pts, traj.GPSPoint{Pos: noise(tr.PosAt(g, t)), T: t})
	}
	pts = append(pts, traj.GPSPoint{Pos: noise(tr.PosAt(g, end)), T: end})
	return traj.Raw{Points: pts}
}

func sortByDeparture(rs []traj.TripRecord) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].OD.DepartSec < rs[j].OD.DepartSec })
}
