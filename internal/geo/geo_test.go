package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := Dist(Point{1, 1}, Point{1, 1}); d != 0 {
		t.Fatalf("Dist same point = %v", d)
	}
}

func TestLerp(t *testing.T) {
	p := Lerp(Point{0, 0}, Point{10, 20}, 0.5)
	if p.X != 5 || p.Y != 10 {
		t.Fatalf("Lerp midpoint = %+v", p)
	}
	if q := Lerp(Point{1, 2}, Point{3, 4}, 0); q != (Point{1, 2}) {
		t.Fatalf("Lerp t=0 = %+v", q)
	}
	if q := Lerp(Point{1, 2}, Point{3, 4}, 1); q != (Point{3, 4}) {
		t.Fatalf("Lerp t=1 = %+v", q)
	}
}

func TestProjectOnSegment(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	// Point above the middle.
	c, frac, d := ProjectOnSegment(Point{5, 3}, a, b)
	if c.X != 5 || c.Y != 0 || frac != 0.5 || d != 3 {
		t.Fatalf("projection = %+v frac %v dist %v", c, frac, d)
	}
	// Point beyond the end clamps to t=1.
	c, frac, d = ProjectOnSegment(Point{20, 0}, a, b)
	if frac != 1 || c.X != 10 || d != 10 {
		t.Fatalf("clamped projection = %+v frac %v dist %v", c, frac, d)
	}
	// Degenerate segment.
	c, frac, d = ProjectOnSegment(Point{1, 1}, a, a)
	if frac != 0 || c != a || math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("degenerate projection = %+v frac %v dist %v", c, frac, d)
	}
}

// Property: the projection is never farther than either endpoint.
func TestProjectionOptimality(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		_, _, d := ProjectOnSegment(p, a, b)
		return d <= Dist(p, a)+1e-9 && d <= Dist(p, b)+1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := EmptyRect()
	r.Expand(Point{1, 2})
	r.Expand(Point{-3, 5})
	if r.Min.X != -3 || r.Min.Y != 2 || r.Max.X != 1 || r.Max.Y != 5 {
		t.Fatalf("expanded rect = %+v", r)
	}
	if r.Width() != 4 || r.Height() != 3 {
		t.Fatalf("width/height = %v/%v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 3}) || r.Contains(Point{2, 3}) {
		t.Fatal("Contains misbehaves")
	}
}

func TestGrid(t *testing.T) {
	g, err := NewGrid(Rect{Min: Point{0, 0}, Max: Point{1000, 500}}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 5 || g.Rows != 3 {
		t.Fatalf("grid dims %dx%d, want 3x5", g.Rows, g.Cols)
	}
	if g.NumCells() != 15 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	r, c := g.Cell(Point{450, 250})
	if r != 1 || c != 2 {
		t.Fatalf("Cell = (%d,%d), want (1,2)", r, c)
	}
	// Out-of-bounds points clamp.
	r, c = g.Cell(Point{-50, 10000})
	if r != 2 || c != 0 {
		t.Fatalf("clamped Cell = (%d,%d)", r, c)
	}
	if g.CellIndex(Point{450, 250}) != 1*5+2 {
		t.Fatalf("CellIndex = %d", g.CellIndex(Point{450, 250}))
	}
	ctr := g.CellCenter(1, 2)
	if ctr.X != 500 || ctr.Y != 300 {
		t.Fatalf("CellCenter = %+v", ctr)
	}
}

// TestGridCellClampsHugeCoordinates: a point any distance outside the grid
// lands on its own side's border cell. Converting the cell quotient to int
// before clamping sent x = 1e22 (quotient ≥ 2⁶³) to column 0 on amd64.
func TestGridCellClampsHugeCoordinates(t *testing.T) {
	g, err := NewGrid(Rect{Min: Point{0, 0}, Max: Point{1000, 1000}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, c := range []struct {
		p        Point
		row, col int
	}{
		{Point{1e20, 500}, 5, 9},
		{Point{1e22, 500}, 5, 9},
		{Point{-1e22, 500}, 5, 0},
		{Point{500, 1e22}, 9, 5},
		{Point{500, -1e22}, 0, 5},
		{Point{1e300, -1e300}, 0, 9},
		{Point{-1e300, 1e300}, 9, 0},
		{Point{math.Inf(1), math.Inf(-1)}, 0, 9},
		{Point{nan, 500}, 5, 0},
		{Point{500, nan}, 0, 5},
		{Point{nan, nan}, 0, 0},
		{Point{999.9, 0.1}, 0, 9},
		{Point{-0.1, 1000}, 9, 0},
	} {
		if r, col := g.Cell(c.p); r != c.row || col != c.col {
			t.Errorf("Cell(%v) = (%d, %d), want (%d, %d)", c.p, r, col, c.row, c.col)
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(Rect{Min: Point{0, 0}, Max: Point{10, 10}}, 0); err == nil {
		t.Fatal("zero cell size accepted")
	}
	if _, err := NewGrid(Rect{Min: Point{5, 5}, Max: Point{5, 5}}, 1); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
}

func TestNeighborCells(t *testing.T) {
	g, err := NewGrid(Rect{Min: Point{0, 0}, Max: Point{300, 300}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var visited int
	g.NeighborCells(Point{150, 150}, 1, func(r, c int) { visited++ })
	if visited != 9 {
		t.Fatalf("radius-1 neighborhood visited %d cells, want 9", visited)
	}
	visited = 0
	g.NeighborCells(Point{0, 0}, 1, func(r, c int) { visited++ })
	if visited != 4 {
		t.Fatalf("corner neighborhood visited %d cells, want 4", visited)
	}
}

// CellCenter returns the center point of cell (row, col).
func (g *Grid) CellCenter(row, col int) Point {
	return Point{
		X: g.Bounds.Min.X + float64((float64(col)+0.5)*g.CellSize),
		Y: g.Bounds.Min.Y + float64((float64(row)+0.5)*g.CellSize),
	}
}
