package models

import (
	"fmt"
	"math"
	"time"

	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// RouteETA is a route-based estimator from the *path* travel-time
// estimation family the paper's related work (§7.1) contrasts DeepOD with
// (floating-car-data approaches such as Wang et al. [42]): it learns
// per-segment, per-time-bin average speeds from the training trajectories,
// then answers an OD query by (a) predicting the route with time-dependent
// Dijkstra under those historical speeds and (b) integrating the travel
// time along it.
//
// It is not one of the paper's Table 4 baselines — it is the natural upper
// bound on what trajectory data can do when the route must be *predicted*
// rather than observed, and the extension experiment `ext-route` compares
// it against DeepOD.
type RouteETA struct {
	g *roadnet.Graph

	// BinHours is the width of a time-of-week bin (default 2 h → 84 bins).
	BinHours int

	// speeds[e][b] is the harmonic-mean observed speed of edge e in bin b;
	// 0 where unobserved.
	speeds    [][]float64
	edgeMean  []float64 // per-edge fallback
	classMean [2]float64
	trainTime time.Duration
	matched   int
}

// NewRouteETA builds an untrained route-based estimator.
func NewRouteETA(g *roadnet.Graph) *RouteETA {
	return &RouteETA{g: g, BinHours: 2}
}

// Name implements Estimator.
func (r *RouteETA) Name() string { return "RouteETA" }

// bins returns the number of time-of-week bins.
func (r *RouteETA) bins() int { return 7 * 24 / r.BinHours }

func (r *RouteETA) binOf(sec float64) int {
	week := math.Mod(sec, 7*24*3600)
	return int(week / float64(r.BinHours*3600))
}

// Train accumulates per-edge per-bin speed observations from the training
// trajectories' spatio-temporal paths.
func (r *RouteETA) Train(train, _ []traj.TripRecord) error {
	if len(train) == 0 {
		return fmt.Errorf("models: RouteETA needs training trajectories")
	}
	if r.BinHours <= 0 || 24%r.BinHours != 0 {
		return fmt.Errorf("models: BinHours must divide 24, got %d", r.BinHours)
	}
	start := time.Now()
	nb := r.bins()
	ne := r.g.NumEdges()
	sumT := make([][]float64, ne) // accumulated seconds per (edge, bin)
	sumL := make([][]float64, ne) // accumulated meters
	for e := 0; e < ne; e++ {
		sumT[e] = make([]float64, nb)
		sumL[e] = make([]float64, nb)
	}
	var classT, classL [2]float64
	edgeT := make([]float64, ne)
	edgeL := make([]float64, ne)

	for i := range train {
		tr := &train[i].Trajectory
		for si, s := range tr.Path {
			dur := s.Exit - s.Enter
			if dur <= 0 {
				continue
			}
			frac := 1.0
			if si == 0 {
				frac = 1 - tr.RStart
			}
			if si == len(tr.Path)-1 {
				frac = 1 - tr.REnd
				if len(tr.Path) == 1 {
					frac = (1 - tr.REnd) - tr.RStart
				}
			}
			if frac <= 0 {
				continue
			}
			length := float64(r.g.Edges[s.Edge].Length * frac)
			b := r.binOf(s.Enter)
			sumT[s.Edge][b] += dur
			sumL[s.Edge][b] += length
			edgeT[s.Edge] += dur
			edgeL[s.Edge] += length
			cls := r.g.Edges[s.Edge].Class
			classT[cls] += dur
			classL[cls] += length
		}
	}

	r.speeds = make([][]float64, ne)
	r.edgeMean = make([]float64, ne)
	r.matched = 0
	for e := 0; e < ne; e++ {
		r.speeds[e] = make([]float64, nb)
		for b := 0; b < nb; b++ {
			if sumT[e][b] > 0 {
				r.speeds[e][b] = sumL[e][b] / sumT[e][b]
				r.matched++
			}
		}
		if edgeT[e] > 0 {
			r.edgeMean[e] = edgeL[e] / edgeT[e]
		}
	}
	for c := 0; c < 2; c++ {
		if classT[c] > 0 {
			r.classMean[c] = classL[c] / classT[c]
		} else {
			r.classMean[c] = 5 // last-resort walking-pace floor, m/s
		}
	}
	r.trainTime = time.Since(start)
	return nil
}

// speedAt returns the historical speed of edge e at time sec, falling back
// bin → edge mean → class mean.
func (r *RouteETA) speedAt(e roadnet.EdgeID, sec float64) float64 {
	if v := r.speeds[e][r.binOf(sec)]; v > 0 {
		return v
	}
	if v := r.edgeMean[e]; v > 0 {
		return v
	}
	return r.classMean[r.g.Edges[e].Class]
}

// Estimate implements Estimator: route with time-dependent Dijkstra under
// historical speeds, then report the route's arrival time.
func (r *RouteETA) Estimate(od *traj.MatchedOD) float64 {
	if r.speeds == nil {
		panic("models: RouteETA used before Train")
	}
	cost := func(e roadnet.EdgeID, enter float64) float64 {
		return r.g.Edges[e].Length / r.speedAt(e, enter)
	}
	oe, de := r.g.Edges[od.OriginEdge], r.g.Edges[od.DestEdge]

	// Partial first segment.
	now := od.DepartSec
	now += (1 - od.RStart) * oe.Length / r.speedAt(od.OriginEdge, now)
	if od.OriginEdge == od.DestEdge && 1-od.REnd >= od.RStart {
		return ((1 - od.REnd) - od.RStart) * oe.Length / r.speedAt(od.OriginEdge, od.DepartSec)
	}
	p, err := roadnet.ShortestPath(r.g, oe.To, de.From, now, cost)
	if err != nil {
		// Disconnected under the directed graph: fall back to the class-
		// mean speed over the straight-line distance.
		a := r.g.PointAlongEdge(od.OriginEdge, od.RStart)
		b := r.g.PointAlongEdge(od.DestEdge, 1-od.REnd)
		dx, dy := a.X-b.X, a.Y-b.Y
		return math.Hypot(dx, dy) / r.classMean[roadnet.Local]
	}
	now += p.Cost
	// Partial last segment.
	now += (1 - od.REnd) * de.Length / r.speedAt(od.DestEdge, now)
	return now - od.DepartSec
}

// SizeBytes implements Trainable: the speed profile table.
func (r *RouteETA) SizeBytes() int {
	if r.speeds == nil {
		return 0
	}
	return (len(r.speeds)*r.bins() + len(r.edgeMean)) * 8
}

// TrainTime implements Trainable.
func (r *RouteETA) TrainTime() time.Duration { return r.trainTime }

// Coverage returns the fraction of (edge, bin) cells with direct
// observations — a diagnostic for the sparsity problem the paper's §7.1
// attributes to this method family ("historical data ... may not always be
// available in each road segment").
func (r *RouteETA) Coverage() float64 {
	if r.speeds == nil {
		return 0
	}
	return float64(r.matched) / float64(len(r.speeds)*r.bins())
}
