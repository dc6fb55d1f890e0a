package citysim

import (
	"fmt"
	"math/rand"
	"sort"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// ProbeConfig parameterizes the GPS probe firehose simulator: a fleet of
// vehicles cruising the city through the congestion field, each reporting a
// noisy position every PeriodSec. It feeds bench/'s estimate-live workload
// and the traffic end-to-end tests with the same workload shape a real
// probe feed would have.
type ProbeConfig struct {
	// Vehicles is the fleet size.
	Vehicles int
	// PeriodSec is each vehicle's reporting period (default 5).
	PeriodSec float64
	// NoiseMeters perturbs each report (default 8, like order traces).
	NoiseMeters float64
	// Seed drives all randomness.
	Seed int64
}

// VehicleProbe is one simulated GPS report.
type VehicleProbe struct {
	Vehicle string
	Pos     geo.Point
	T       float64
}

// vehicleState is one cruising vehicle: its current trip and sample cursor.
type vehicleState struct {
	id     string
	at     roadnet.VertexID // position when between trips
	trip   traj.Trajectory
	onTrip bool
	nextT  float64 // next report time
}

// ProbeStream simulates the fleet. Vehicles persist across Window calls, so
// consecutive windows form continuous per-vehicle traces (sessions survive);
// jumping far ahead in time simply starts fresh trips.
type ProbeStream struct {
	traffic  *Traffic
	cfg      ProbeConfig
	rng      *rand.Rand
	vehicles []vehicleState
}

// NewProbeStream builds a fleet over the traffic field's network.
func NewProbeStream(t *Traffic, cfg ProbeConfig) (*ProbeStream, error) {
	if cfg.Vehicles <= 0 {
		return nil, fmt.Errorf("citysim: probe fleet needs at least one vehicle, got %d", cfg.Vehicles)
	}
	if cfg.PeriodSec <= 0 {
		cfg.PeriodSec = 5
	}
	if cfg.NoiseMeters < 0 {
		cfg.NoiseMeters = 0
	}
	ps := &ProbeStream{
		traffic: t,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	g := t.Graph()
	for i := 0; i < cfg.Vehicles; i++ {
		ps.vehicles = append(ps.vehicles, vehicleState{
			id: fmt.Sprintf("veh-%05d", i),
			at: roadnet.VertexID(ps.rng.Intn(g.NumVertices())),
		})
	}
	return ps, nil
}

// Window returns every probe with T in [fromSec, toSec), sorted by T.
// Vehicles idle before fromSec fast-forward to it (a fresh trip begins
// there); vehicles mid-trip continue where the last window left them.
func (ps *ProbeStream) Window(fromSec, toSec float64) []VehicleProbe {
	g := ps.traffic.Graph()
	var out []VehicleProbe
	for vi := range ps.vehicles {
		v := &ps.vehicles[vi]
		if v.nextT < fromSec {
			// Idle gap (first window, or the caller skipped ahead): restart
			// the vehicle's clock at the window, staggered so the fleet
			// doesn't report in lockstep.
			v.onTrip = false
			v.nextT = fromSec + float64(ps.rng.Float64()*ps.cfg.PeriodSec)
		}
		for v.nextT < toSec {
			if !v.onTrip {
				if !ps.startTrip(v, v.nextT) {
					// Stuck vertex (shouldn't happen on generated cities):
					// teleport and retry next window.
					v.at = roadnet.VertexID(ps.rng.Intn(g.NumVertices()))
					v.nextT += ps.cfg.PeriodSec
					continue
				}
			}
			tripEnd := v.trip.Path[len(v.trip.Path)-1].Exit
			if v.nextT > tripEnd {
				// Trip finished between samples; begin the next one from the
				// arrival vertex.
				v.onTrip = false
				v.at = g.Edges[v.trip.Path[len(v.trip.Path)-1].Edge].To
				continue
			}
			p := v.trip.PosAt(g, v.nextT)
			out = append(out, VehicleProbe{
				Vehicle: v.id,
				Pos: geo.Point{
					X: p.X + float64(ps.rng.NormFloat64()*ps.cfg.NoiseMeters),
					Y: p.Y + float64(ps.rng.NormFloat64()*ps.cfg.NoiseMeters),
				},
				T: v.nextT,
			})
			v.nextT += ps.cfg.PeriodSec
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// startTrip routes the vehicle from its current vertex to a random target
// and drives the route through the congestion field starting at depart.
func (ps *ProbeStream) startTrip(v *vehicleState, depart float64) bool {
	g := ps.traffic.Graph()
	cost := ps.traffic.TravelCost()
	for attempt := 0; attempt < 8; attempt++ {
		target := roadnet.VertexID(ps.rng.Intn(g.NumVertices()))
		if target == v.at {
			continue
		}
		path, err := roadnet.ShortestPath(g, v.at, target, depart, cost)
		if err != nil || len(path.Edges) == 0 {
			continue
		}
		now := depart
		steps := make([]traj.Step, 0, len(path.Edges))
		for i, e := range path.Edges {
			enter := now
			if i > 0 {
				now += ps.traffic.EntryWait(e, now)
			}
			dt := ps.traffic.TraverseTime(e, 0, 1, now)
			steps = append(steps, traj.Step{Edge: e, Enter: enter, Exit: now + dt})
			now += dt
		}
		v.trip = traj.Trajectory{Path: steps}
		v.onTrip = true
		return true
	}
	return false
}
