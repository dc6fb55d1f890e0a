// Package geo provides the planar geometry used by the road-network,
// map-matching and traffic substrates: points, segment projections, bounding
// boxes and uniform grids.
//
// Coordinates are in meters on a local planar frame (the synthetic cities
// are small enough that projection distortion is irrelevant, matching the
// paper's use of compact city extents: CRN is 8.2 km × 8.3 km).
package geo

import (
	"fmt"
	"math"
)

// Point is a planar position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance |p → q| (the paper's |·→·|).
func Dist(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Lerp linearly interpolates between p and q at fraction t ∈ [0,1].
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + float64((q.X-p.X)*t), Y: p.Y + float64((q.Y-p.Y)*t)}
}

// ProjectOnSegment projects p onto segment (a, b) and returns the closest
// point, the fraction t ∈ [0,1] along the segment, and the distance from p
// to that closest point.
func ProjectOnSegment(p, a, b Point) (closest Point, t, dist float64) {
	closest, t = ClosestOnSegment(p, a, b)
	return closest, t, Dist(p, closest)
}

// ClosestOnSegment is ProjectOnSegment without the distance: the same
// closest point and fraction, bit for bit, for callers that rank segments
// by a cheaper squared distance before they take the square root.
func ClosestOnSegment(p, a, b Point) (closest Point, t float64) {
	abx, aby := b.X-a.X, b.Y-a.Y
	len2 := float64(abx*abx) + float64(aby*aby)
	if len2 == 0 {
		return a, 0
	}
	t = (float64((p.X-a.X)*abx) + float64((p.Y-a.Y)*aby)) / len2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Point{X: a.X + float64(t*abx), Y: a.Y + float64(t*aby)}, t
}

// Rect is an axis-aligned bounding box.
type Rect struct {
	Min, Max Point
}

// Width and Height return the box extents in meters.
func (r Rect) Width() float64  { return r.Max.X - r.Min.X }
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside the box (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Expand grows the box to include p.
func (r *Rect) Expand(p Point) {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
}

// EmptyRect returns a box that Expand can grow from.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// Grid partitions a Rect into equal square cells of side CellSize. It backs
// both the spatial edge index used by map matching and the speed matrices of
// the paper's traffic-condition feature (§4.5: "split the whole area into
// different grids with the same size, e.g. 200m × 200m").
type Grid struct {
	Bounds   Rect
	CellSize float64
	Rows     int // number of cells along Y (latitude in the paper)
	Cols     int // number of cells along X (longitude in the paper)
}

// NewGrid builds a grid covering bounds with the given cell size; partial
// cells at the far edges are included (ceiling division, as in the paper's
// ⌈L/l⌉ grid dimensions).
func NewGrid(bounds Rect, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size must be positive, got %v", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: degenerate bounds %+v", bounds)
	}
	return &Grid{
		Bounds:   bounds,
		CellSize: cellSize,
		Rows:     int(math.Ceil(bounds.Height() / cellSize)),
		Cols:     int(math.Ceil(bounds.Width() / cellSize)),
	}, nil
}

// NumCells returns Rows*Cols.
func (g *Grid) NumCells() int { return g.Rows * g.Cols }

// Cell returns the (row, col) of the cell containing p, clamped to the grid.
// A point any distance outside the grid lands on its own side's border
// cell; a NaN coordinate lands on row or column 0.
func (g *Grid) Cell(p Point) (row, col int) {
	return clampCell((p.Y-g.Bounds.Min.Y)/g.CellSize, g.Rows), clampCell((p.X-g.Bounds.Min.X)/g.CellSize, g.Cols)
}

// clampCell truncates the cell quotient q into [0, n). It clamps before it
// converts: int() of a float at or beyond ±2⁶³ is MinInt64 on amd64 and
// saturates on arm64, so converting first would put a far point on the
// opposite border on one architecture and not on the other.
func clampCell(q float64, n int) int {
	if !(q >= 0) { // negative or NaN
		return 0
	}
	if q >= float64(n) {
		return n - 1
	}
	return int(q)
}

// CellIndex returns the flattened cell index of p.
func (g *Grid) CellIndex(p Point) int {
	r, c := g.Cell(p)
	return r*g.Cols + c
}

// NeighborCells calls f for every cell within radius cells (Chebyshev) of
// the cell containing p, clipped to the grid.
func (g *Grid) NeighborCells(p Point, radius int, f func(row, col int)) {
	r0, c0 := g.Cell(p)
	for r := r0 - radius; r <= r0+radius; r++ {
		if r < 0 || r >= g.Rows {
			continue
		}
		for c := c0 - radius; c <= c0+radius; c++ {
			if c < 0 || c >= g.Cols {
				continue
			}
			f(r, c)
		}
	}
}
