// Package traj defines the trajectory domain model of the paper's Section 2:
// raw GPS trajectories, spatio-temporal paths (sequences of road segments
// with time intervals), position ratios, OD inputs, and complete trip
// records. These types are shared between the city simulator (which
// synthesizes them), the map matcher (which reconstructs them from GPS
// points) and the prediction models (which consume them).
package traj

import (
	"fmt"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
)

// GPSPoint is one sample of a raw trajectory: ⟨[x, y], t⟩ with t in seconds
// since the dataset's base timestamp.
type GPSPoint struct {
	Pos geo.Point
	T   float64
}

// Raw is a raw trajectory: a time-ordered sequence of GPS points.
type Raw struct {
	Points []GPSPoint
}

// Step is one element ⟨eᵢ, [tᵢ[1], tᵢ[−1]]⟩ of a spatio-temporal path: a
// road segment together with the time interval the trajectory spends on it.
type Step struct {
	Edge  roadnet.EdgeID
	Enter float64 // tᵢ[1]
	Exit  float64 // tᵢ[−1]
}

// Trajectory is Definition 1 of the paper: a spatio-temporal path SP plus
// two position ratios PR = ⟨r[1], r[−1]⟩ locating the exact origin and
// destination within the first and last segments.
type Trajectory struct {
	Path []Step
	// RStart is r[1] = |v¹₁ → g[1]| / |v¹₁ → v⁻¹₁|.
	RStart float64
	// REnd is r[−1] = |g[−1] → v⁻¹₋₁| / |v¹₋₁ → v⁻¹₋₁|.
	REnd float64
}

// Validate checks structural invariants: non-empty path, connected edges,
// ordered non-overlapping intervals, ratios in [0, 1].
func (t *Trajectory) Validate(g *roadnet.Graph) error {
	if len(t.Path) == 0 {
		return fmt.Errorf("traj: empty spatio-temporal path")
	}
	if t.RStart < 0 || t.RStart > 1 || t.REnd < 0 || t.REnd > 1 {
		return fmt.Errorf("traj: position ratios out of [0,1]: r[1]=%v r[-1]=%v", t.RStart, t.REnd)
	}
	for i, s := range t.Path {
		if s.Exit < s.Enter {
			return fmt.Errorf("traj: step %d has exit %v before enter %v", i, s.Exit, s.Enter)
		}
		if i > 0 {
			if t.Path[i-1].Exit > s.Enter+1e-9 {
				return fmt.Errorf("traj: step %d enters (%v) before step %d exits (%v)", i, s.Enter, i-1, t.Path[i-1].Exit)
			}
			if g != nil && g.Edges[t.Path[i-1].Edge].To != g.Edges[s.Edge].From {
				return fmt.Errorf("traj: path disconnected between steps %d and %d", i-1, i)
			}
		}
	}
	return nil
}

// Edges returns the edge sequence of the path.
func (t *Trajectory) Edges() []roadnet.EdgeID {
	es := make([]roadnet.EdgeID, len(t.Path))
	for i, s := range t.Path {
		es[i] = s.Edge
	}
	return es
}

// DepartureTime returns the first enter timestamp.
func (t *Trajectory) DepartureTime() float64 { return t.Path[0].Enter }

// PosAt returns the on-network position at time sec, interpolating linearly
// within each step's time interval and respecting the partial first/last
// segments. Times before departure clamp to the origin, times after arrival
// to the destination. The caller guarantees a non-empty Path (Validate).
func (t *Trajectory) PosAt(g *roadnet.Graph, sec float64) geo.Point {
	for i := range t.Path {
		s := &t.Path[i]
		if sec <= s.Exit || i == len(t.Path)-1 {
			from, to := 0.0, 1.0
			if i == 0 {
				from = t.RStart
			}
			if i == len(t.Path)-1 {
				to = 1 - t.REnd
			}
			span := s.Exit - s.Enter
			f := 1.0
			if span > 0 {
				f = (sec - s.Enter) / span
			}
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
			return g.PointAlongEdge(s.Edge, from+float64((to-from)*f))
		}
	}
	last := t.Path[len(t.Path)-1]
	return g.PointAlongEdge(last.Edge, 1-t.REnd)
}

// Length returns the travelled distance in meters, accounting for the
// partial first and last segments via the position ratios.
func (t *Trajectory) Length(g *roadnet.Graph) float64 {
	if len(t.Path) == 1 {
		// Origin and destination on the same segment.
		e := g.Edges[t.Path[0].Edge]
		return e.Length * ((1 - t.REnd) - t.RStart)
	}
	var s float64
	for i, st := range t.Path {
		l := g.Edges[st.Edge].Length
		switch i {
		case 0:
			s += float64(l * (1 - t.RStart))
		case len(t.Path) - 1:
			s += float64(l * (1 - t.REnd))
		default:
			s += l
		}
	}
	return s
}

// ODInput is Definition 2: an origin point, a destination point, a
// departure time, and optional external features.
type ODInput struct {
	Origin    geo.Point
	Dest      geo.Point
	DepartSec float64
	// External features (Definition 2's f); nil when unavailable.
	External *ExternalFeatures
}

// ExternalFeatures bundles the paper's two external signals (§4.5): the
// weather type (index into N_wea one-hot categories) and the current
// traffic condition as a grid speed matrix (row-major Rows×Cols, m/s; 0 for
// cells with no observations).
//
// SpeedGrid is read-only once the bundle has been handed to a consumer, and
// len(SpeedGrid) must be GridRows*GridCols (or 0: no traffic condition).
// Producers share one slice among every request of a period
// (citysim.SpeedGridder) or snapshot (traffic.FeatureSource), and consumers
// key caches on the identity of its backing array (&SpeedGrid[0]): the
// traffic-code memo in internal/core, the merge cache in internal/traffic.
// New traffic means a new slice, never a write into one already published.
type ExternalFeatures struct {
	Weather   int
	SpeedGrid []float64
	GridRows  int
	GridCols  int
}

// MatchedOD is an OD input whose endpoints have been matched onto road
// segments: the paper represents g[1] and g[−1] by their segments (e₁, eₙ)
// and position ratios (r[1], r[−1]).
type MatchedOD struct {
	OriginEdge roadnet.EdgeID
	DestEdge   roadnet.EdgeID
	RStart     float64
	REnd       float64
	DepartSec  float64
	External   *ExternalFeatures
}

// TripRecord is one historical taxi order: the OD input, the affiliated
// trajectory it travelled, and the ground-truth travel time in seconds.
// Trajectories exist only for training records; at prediction time only the
// OD part is available (the paper's central premise).
type TripRecord struct {
	OD         ODInput
	Matched    MatchedOD
	Trajectory Trajectory
	TravelSec  float64
	// RawPoints is the number of GPS points before map matching (reported
	// in Table 2's "Avg # of points").
	RawPoints int
}
