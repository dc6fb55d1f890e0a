package citysim

import (
	"fmt"
	"sync"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// SpeedGridder computes the paper's traffic-condition feature (§4.5): the
// city area is split into equal square cells and, every Δt, the average
// speed observed in each cell forms a speed matrix; the matrix nearest
// before a departure time is the "current traffic condition".
//
// The paper averages probe speeds from the taxi fleet; our deterministic
// stand-in averages the simulator's effective speed of the edges crossing
// each cell, which is the quantity those probes estimate.
type SpeedGridder struct {
	traffic *Traffic
	grid    *geo.Grid
	// cellEdges[i] lists the edges overlapping cell i.
	cellEdges [][]roadnet.EdgeID
	// PeriodSec is how often a new matrix is produced (the paper's Δt).
	PeriodSec float64

	// cache holds one matrix per period index. Handed-out matrices are
	// read-only and identify their period (see MatrixAt).
	mu    sync.RWMutex
	cache map[int][]float64
}

// NewSpeedGridder builds a gridder with the given cell size (the paper uses
// 200 m) and refresh period in seconds (the paper uses 5 min).
func NewSpeedGridder(t *Traffic, cellMeters, periodSec float64) (*SpeedGridder, error) {
	if periodSec <= 0 {
		return nil, fmt.Errorf("citysim: grid period must be positive, got %v", periodSec)
	}
	g := t.Graph()
	grid, err := geo.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		return nil, fmt.Errorf("citysim: speed grid: %w", err)
	}
	sg := &SpeedGridder{
		traffic:   t,
		grid:      grid,
		cellEdges: roadnet.CellEdges(g, grid),
		PeriodSec: periodSec,
		cache:     make(map[int][]float64),
	}
	return sg, nil
}

// MatrixAt returns the speed matrix (row-major rows×cols, m/s, 0 for empty
// cells) nearest before time sec. A period's first touch evaluates the
// field's time terms once at the period's start, every edge's speed once
// into a scratch slice of its own, and then each cell's mean over its edges
// in cellEdges order. Matrices are cached per period index with
// store-if-absent semantics: every caller of a period, racing first touches
// included, gets the same slice, which must not be written to — consumers
// (traffic.FeatureSource, the traffic-code memo in internal/core) key on
// its identity. Safe for concurrent use.
func (sg *SpeedGridder) MatrixAt(sec float64) []float64 {
	period := int(sec / sg.PeriodSec)
	sg.mu.RLock()
	m, ok := sg.cache[period]
	sg.mu.RUnlock()
	if ok {
		return m
	}
	t := sg.traffic
	in := t.at(float64(period) * sg.PeriodSec)
	speed := make([]float64, len(t.freeSpeed))
	for e := range speed {
		speed[e] = t.speed(roadnet.EdgeID(e), in)
	}
	m = make([]float64, sg.grid.NumCells())
	for ci, edges := range sg.cellEdges {
		if len(edges) == 0 {
			continue
		}
		var s float64
		for _, e := range edges {
			s += speed[e]
		}
		m[ci] = s / float64(len(edges))
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if first, ok := sg.cache[period]; ok {
		return first // a racing first touch won; both computed the same values
	}
	sg.cache[period] = m
	return m
}

// External builds the full external-feature bundle (weather + traffic
// condition) for a departure time.
func (sg *SpeedGridder) External(sec float64) *traj.ExternalFeatures {
	return &traj.ExternalFeatures{
		Weather:   sg.traffic.Weather(sec),
		SpeedGrid: sg.MatrixAt(sec),
		GridRows:  sg.grid.Rows,
		GridCols:  sg.grid.Cols,
	}
}
