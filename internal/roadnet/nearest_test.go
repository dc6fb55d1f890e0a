package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"deepod/internal/geo"
)

// beijingIndex is the graph the repo benchmark serves (the beijing-s preset
// at deepod.BuildCity's default seed) under the matcher's 150 m index cells.
func beijingIndex(t testing.TB) *EdgeIndex {
	t.Helper()
	cfg, err := CityPreset("beijing-s")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	g, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewEdgeIndex(g, 150)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// uniformPoint draws a point uniformly from b.
func uniformPoint(rng *rand.Rand, b geo.Rect) geo.Point {
	return geo.Point{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
}

// sameCandidate compares at the bit level: the serving path promises the
// same twin and the same position along it, not a nearby one.
func sameCandidate(a, b Candidate) bool {
	return a.Edge == b.Edge &&
		math.Float64bits(a.Frac) == math.Float64bits(b.Frac) &&
		math.Float64bits(a.Dist) == math.Float64bits(b.Dist) &&
		math.Float64bits(a.Proj.X) == math.Float64bits(b.Proj.X) &&
		math.Float64bits(a.Proj.Y) == math.Float64bits(b.Proj.Y)
}

// checkAgainstNearestInto holds NearestEdge to its oracle: the first of
// NearestInto's stably sorted candidates, which is what the ingest sessions
// snap the same point to.
func checkAgainstNearestInto(t *testing.T, idx *EdgeIndex, s *NearestScratch, p geo.Point) {
	t.Helper()
	got, err := idx.NearestEdge(p)
	if err != nil {
		t.Fatalf("NearestEdge(%+v): %v", p, err)
	}
	want := idx.NearestInto(p, 1, s)
	if len(want) != 1 || !sameCandidate(got, want[0]) {
		t.Fatalf("NearestEdge(%+v) = %+v, NearestInto(p, 1) = %+v", p, got, want)
	}
}

func TestNearestEdgeEqualsNearestInto(t *testing.T) {
	idx := beijingIndex(t)
	s := idx.NewScratch()
	b := idx.grid.Bounds // already padded by one cell

	// Uniform points over the padded bounds: most sit in an exact Dist tie
	// between the two twins of the nearest street.
	rng := rand.New(rand.NewSource(1))
	ties := 0
	const n = 120000
	for i := 0; i < n; i++ {
		p := uniformPoint(rng, b)
		checkAgainstNearestInto(t, idx, s, p)
		if c := idx.NearestInto(p, 2, s); len(c) == 2 && c[0].Dist == c[1].Dist {
			ties++
		}
	}
	if ties < n/2 {
		t.Fatalf("only %d of %d points tie at the top: the test no longer exercises the tie rule", ties, n)
	}

	// Outside the padded bounds (clamped to border cells), far outside, and
	// the corners themselves.
	wide := geo.Rect{Min: geo.Point{X: b.Min.X - 400, Y: b.Min.Y - 400}, Max: geo.Point{X: b.Max.X + 400, Y: b.Max.Y + 400}}
	for i := 0; i < 20000; i++ {
		if p := uniformPoint(rng, wide); !b.Contains(p) {
			checkAgainstNearestInto(t, idx, s, p)
		}
	}
	for _, p := range []geo.Point{b.Min, b.Max, {X: b.Min.X, Y: b.Max.Y}, {X: b.Max.X, Y: b.Min.Y},
		{X: -1e7, Y: 3e6}, {X: 1e7, Y: -1e7}} {
		checkAgainstNearestInto(t, idx, s, p)
	}

	// Exactly on cell borders, both axes, and on border crossings.
	cell := idx.grid.CellSize
	for r := 0; r <= idx.grid.Rows; r++ {
		for c := 0; c <= idx.grid.Cols; c++ {
			x, y := b.Min.X+float64(c)*cell, b.Min.Y+float64(r)*cell
			checkAgainstNearestInto(t, idx, s, geo.Point{X: x, Y: y})
			checkAgainstNearestInto(t, idx, s, geo.Point{X: x, Y: y + rng.Float64()*cell})
			checkAgainstNearestInto(t, idx, s, geo.Point{X: x + rng.Float64()*cell, Y: y})
		}
	}

	// On every node: every incident segment, both directions, is at
	// distance zero.
	for _, v := range idx.g.Vertices {
		checkAgainstNearestInto(t, idx, s, v.Pos)
	}
}

// TestNearestEdgeEmptyFirstRing: two streets 5 km apart and a query between
// them, so the walk has to widen past rings that hold nothing.
func TestNearestEdgeEmptyFirstRing(t *testing.T) {
	vs := []Vertex{
		{ID: 0, Pos: geo.Point{X: 0, Y: 0}}, {ID: 1, Pos: geo.Point{X: 100, Y: 0}},
		{ID: 2, Pos: geo.Point{X: 5000, Y: 5000}}, {ID: 3, Pos: geo.Point{X: 5100, Y: 5000}},
	}
	es := []Edge{
		{ID: 0, From: 0, To: 1, Length: 100, FreeSpeed: 10}, {ID: 1, From: 1, To: 0, Length: 100, FreeSpeed: 10},
		{ID: 2, From: 2, To: 3, Length: 100, FreeSpeed: 10}, {ID: 3, From: 3, To: 2, Length: 100, FreeSpeed: 10},
	}
	g, err := NewGraph(vs, es)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewEdgeIndex(g, 150)
	if err != nil {
		t.Fatal(err)
	}
	s := idx.NewScratch()
	for _, p := range []geo.Point{{X: 2500, Y: 2500}, {X: 2400, Y: 2600}, {X: 4000, Y: 4200}, {X: 900, Y: 700}, {X: 50, Y: 1}} {
		checkAgainstNearestInto(t, idx, s, p)
	}
	// The lower-numbered twin is the one the rule names when both tie.
	c, err := idx.NearestEdge(geo.Point{X: 4000, Y: 4200})
	if err != nil || c.Edge != 2 {
		t.Fatalf("NearestEdge = %+v, %v, want edge 2", c, err)
	}
}

func TestNearestEdgeDoesNotAllocate(t *testing.T) {
	idx := beijingIndex(t)
	rng := rand.New(rand.NewSource(2))
	pts := make([]geo.Point, 256)
	for i := range pts {
		pts[i] = uniformPoint(rng, idx.grid.Bounds)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := idx.NearestEdge(pts[i%len(pts)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Fatalf("NearestEdge allocates %v times per call, want 0", a)
	}
}

var sinkCandidate Candidate

// BenchmarkNearestEdge is one OD endpoint snap on the benchmark's city.
func BenchmarkNearestEdge(b *testing.B) {
	idx := beijingIndex(b)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 4096)
	for i := range pts {
		pts[i] = uniformPoint(rng, idx.grid.Bounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := idx.NearestEdge(pts[i%len(pts)])
		if err != nil {
			b.Fatal(err)
		}
		sinkCandidate = c
	}
}
