package citysim

import (
	"fmt"
	"math"
	"sync/atomic"

	"deepod/internal/geo"
	"deepod/internal/roadnet"
	"deepod/internal/timeslot"
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
	// foldPeriod is the first period from whose start on the weather is
	// clamped to the horizon's last hour, and weekPeriods the periods in a
	// week: from foldPeriod on the field repeats every weekPeriods periods,
	// so later periods fold into the week starting there.
	foldPeriod, weekPeriods float64

	// periods holds one bundle per period slot, nil until the slot's first
	// touch. A published bundle is read-only and identifies its period.
	periods []atomic.Pointer[traj.ExternalFeatures]
}

// NewSpeedGridder builds a gridder with the given cell size (the paper uses
// 200 m) and refresh period in seconds (the paper uses 5 min).
func NewSpeedGridder(t *Traffic, cellMeters, periodSec float64) (*SpeedGridder, error) {
	if periodSec <= 0 || math.Mod(timeslot.SecondsPerWeek, periodSec) != 0 {
		return nil, fmt.Errorf("citysim: grid period must be positive and evenly divide a week, got %v", periodSec)
	}
	g := t.Graph()
	grid, err := geo.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		return nil, fmt.Errorf("citysim: speed grid: %w", err)
	}
	sg := &SpeedGridder{traffic: t, grid: grid, cellEdges: roadnet.CellEdges(g, grid), PeriodSec: periodSec,
		// Weather answers its last hour from the start of that hour on.
		foldPeriod: math.Ceil(float64(len(t.weatherSeq)-1) * 3600 / periodSec), weekPeriods: timeslot.SecondsPerWeek / periodSec}
	sg.periods = make([]atomic.Pointer[traj.ExternalFeatures], int(sg.foldPeriod+sg.weekPeriods))
	return sg, nil
}

// MatrixAt returns the speed matrix (row-major rows×cols, m/s, 0 for empty
// cells) nearest before time sec: its period's bundle's SpeedGrid, one slice
// per period that consumers (traffic.FeatureSource, the traffic-code memo in
// internal/core) key on by identity and must not write to. Safe for
// concurrent use, like External.
func (sg *SpeedGridder) MatrixAt(sec float64) []float64 { return sg.bundle(sec).SpeedGrid }

// External returns the external-feature bundle (weather + traffic
// condition) for a departure time: once its period is touched, the
// period's shared, read-only bundle, without allocating. Only a departure
// whose weather differs from its period's start's (a period straddling an
// hour) gets a copy with its own weather and the same matrix.
func (sg *SpeedGridder) External(sec float64) *traj.ExternalFeatures {
	b := sg.bundle(sec)
	if w := sg.traffic.Weather(sec); w != b.Weather {
		c := *b
		c.Weather = w
		return &c
	}
	return b
}

// bundle returns sec's period's bundle, lock-free. A period past the weather
// horizon shares the slot of its period of the week after the horizon, so
// the table is bounded whatever departures clients ask for; a negative or
// non-finite sec takes slot 0, as Traffic.Weather clamps its hour. A slot's
// first touch evaluates the field once at the period's start (time terms,
// every edge's speed, each cell's mean over its edges in cellEdges order)
// and publishes the bundle with the weather there; of racing first touches,
// which compute the same values, the first to publish wins for every caller.
func (sg *SpeedGridder) bundle(sec float64) *traj.ExternalFeatures {
	q := sec / sg.PeriodSec
	if q >= sg.foldPeriod {
		q = sg.foldPeriod + math.Mod(math.Floor(q)-sg.foldPeriod, sg.weekPeriods)
	}
	if !(q >= 0) { // negative, NaN, or +Inf (which folds to NaN)
		q = 0
	}
	period := int(q)
	slot := &sg.periods[period]
	if b := slot.Load(); b != nil {
		return b
	}
	t, start := sg.traffic, float64(period)*sg.PeriodSec
	in := t.at(start)
	speed := make([]float64, len(t.freeSpeed))
	for e := range speed {
		speed[e] = t.speed(roadnet.EdgeID(e), in)
	}
	m := make([]float64, sg.grid.NumCells())
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
	b := &traj.ExternalFeatures{Weather: t.Weather(start), SpeedGrid: m, GridRows: sg.grid.Rows, GridCols: sg.grid.Cols}
	if slot.CompareAndSwap(nil, b) {
		return b
	}
	return slot.Load()
}
