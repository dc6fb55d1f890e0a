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

// nearestEdgeRef is NearestEdge as a plain ring walk: every segment listed
// in the first ring of cells holding any, duplicates included, projected in
// full and kept under a strict <.
func nearestEdgeRef(idx *EdgeIndex, p geo.Point) (Candidate, bool) {
	rows, cols := idx.grid.Rows, idx.grid.Cols
	r0, c0 := idx.grid.Cell(p)
	var best Candidate
	found := false
	for radius := 1; radius <= max(rows, cols) && !found; radius++ {
		for r := max(r0-radius, 0); r <= min(r0+radius, rows-1); r++ {
			for c := max(c0-radius, 0); c <= min(c0+radius, cols-1); c++ {
				for _, e := range idx.cells[r*cols+c] {
					eid := EdgeID(e)
					a, b := idx.g.EdgePoints(eid)
					proj, t, d := geo.ProjectOnSegment(p, a, b)
					if !found || d < best.Dist {
						best, found = Candidate{Edge: eid, Frac: t, Dist: d, Proj: proj}, true
					}
				}
			}
		}
	}
	return best, found
}

// nearestIntoRef is NearestInto as a plain ring walk: every distinct
// segment of the first ring of cells holding at least k, in walk order,
// projected in full, insertion-sorted by Dist and cut to k.
func nearestIntoRef(idx *EdgeIndex, p geo.Point, k int) []Candidate {
	if k <= 0 {
		k = 1
	}
	seen := make(map[EdgeID]bool)
	var cands []Candidate
	for radius := 1; radius <= max(idx.grid.Rows, idx.grid.Cols); radius++ {
		idx.grid.NeighborCells(p, radius, func(r, c int) {
			for _, e := range idx.cells[r*idx.grid.Cols+c] {
				if eid := EdgeID(e); !seen[eid] {
					seen[eid] = true
					a, b := idx.g.EdgePoints(eid)
					proj, t, d := geo.ProjectOnSegment(p, a, b)
					cands = append(cands, Candidate{Edge: eid, Frac: t, Dist: d, Proj: proj})
				}
			}
		})
		if len(cands) >= k {
			break
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Dist < cands[j-1].Dist; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands[:min(k, len(cands))]
}

// checkAgainstRefs holds NearestEdge and NearestInto at k = 1, 4 and 6 to
// the ring walks, bit for bit.
func checkAgainstRefs(t testing.TB, idx *EdgeIndex, s *NearestScratch, p geo.Point) {
	t.Helper()
	want, found := nearestEdgeRef(idx, p)
	got, err := idx.NearestEdge(p)
	if (err == nil) != found || !sameCandidate(got, want) {
		t.Fatalf("NearestEdge(%+v) = %+v, %v; the ring walk gives %+v, found %v", p, got, err, want, found)
	}
	for _, k := range []int{1, 4, 6} {
		want := nearestIntoRef(idx, p, k)
		got := idx.NearestInto(p, k, s)
		if len(got) != len(want) {
			t.Fatalf("NearestInto(%+v, %d) = %+v; the ring walk gives %+v", p, k, got, want)
		}
		for i := range got {
			if !sameCandidate(got[i], want[i]) {
				t.Fatalf("NearestInto(%+v, %d) = %+v; the ring walk gives %+v", p, k, got, want)
			}
		}
	}
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
	idx := sparseIndex(t)
	s := idx.NewScratch()
	for _, p := range []geo.Point{{X: 2500, Y: 2500}, {X: 2400, Y: 2600}, {X: 4000, Y: 4200}, {X: 900, Y: 700}, {X: 50, Y: 1}} {
		checkAgainstNearestInto(t, idx, s, p)
		checkAgainstRefs(t, idx, s, p)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		checkAgainstRefs(t, idx, s, uniformPoint(rng, idx.grid.Bounds))
	}
	// The lower-numbered twin is the one the rule names when both tie.
	c, err := idx.NearestEdge(geo.Point{X: 4000, Y: 4200})
	if err != nil || c.Edge != 2 {
		t.Fatalf("NearestEdge = %+v, %v, want edge 2", c, err)
	}

	// The walk stops at the first ring that holds a segment: edge 1, two
	// cells out diagonally (≈ 516 m), wins over edge 2, one ring further
	// out but nearer (≈ 380 m).
	g, err := NewGraph([]Vertex{
		{ID: 0, Pos: geo.Point{X: 0, Y: 0}}, {ID: 1, Pos: geo.Point{X: 10, Y: 0}},
		{ID: 2, Pos: geo.Point{X: 1940, Y: 1940}}, {ID: 3, Pos: geo.Point{X: 1945, Y: 1945}},
		{ID: 4, Pos: geo.Point{X: 1955, Y: 1570}}, {ID: 5, Pos: geo.Point{X: 1955, Y: 1580}},
	}, []Edge{
		{ID: 0, From: 0, To: 1, Length: 10, FreeSpeed: 10},
		{ID: 1, From: 2, To: 3, Length: 7, FreeSpeed: 10},
		{ID: 2, From: 4, To: 5, Length: 10, FreeSpeed: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ringed, err := NewEdgeIndex(g, 150)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 1575, Y: 1575}
	if c, err := ringed.NearestEdge(p); err != nil || c.Edge != 1 {
		t.Fatalf("NearestEdge = %+v, %v, want edge 1 from the second ring", c, err)
	}
	checkAgainstRefs(t, ringed, ringed.NewScratch(), p)
}

// sparseIndex is a city of two streets 5 km apart: most windows are empty,
// so the ring walk runs.
func sparseIndex(t testing.TB) *EdgeIndex {
	t.Helper()
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
	return idx
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
	// NearestInto, once its scratch has grown to k (AllocsPerRun's warm-up
	// call), on the dense city's windows and on the sparse city's ring walk.
	for _, c := range []struct {
		idx *EdgeIndex
		k   int
	}{{idx, 4}, {idx, 6}, {sparseIndex(t), 4}} {
		s := c.idx.NewScratch()
		if a := testing.AllocsPerRun(1000, func() {
			if len(c.idx.NearestInto(pts[i%len(pts)], c.k, s)) == 0 {
				t.Fatal("no candidates")
			}
			i++
		}); a != 0 {
			t.Fatalf("NearestInto(k = %d) allocates %v times per call, want 0", c.k, a)
		}
	}
}

// queryPoints are TestNearestEdgeEqualsNearestInto's points: uniform over
// the padded bounds and a band around them, far outside, every cell border
// and crossing, and every node.
func queryPoints(idx *EdgeIndex, n int) []geo.Point {
	rng := rand.New(rand.NewSource(1))
	b := idx.grid.Bounds
	var pts []geo.Point
	for i := 0; i < n; i++ {
		pts = append(pts, uniformPoint(rng, b))
	}
	wide := geo.Rect{Min: geo.Point{X: b.Min.X - 400, Y: b.Min.Y - 400}, Max: geo.Point{X: b.Max.X + 400, Y: b.Max.Y + 400}}
	for i := 0; i < n/6; i++ {
		pts = append(pts, uniformPoint(rng, wide))
	}
	pts = append(pts, b.Min, b.Max, geo.Point{X: b.Min.X, Y: b.Max.Y}, geo.Point{X: b.Max.X, Y: b.Min.Y},
		geo.Point{X: -1e7, Y: 3e6}, geo.Point{X: 1e7, Y: -1e7})
	cell := idx.grid.CellSize
	for r := 0; r <= idx.grid.Rows; r++ {
		for c := 0; c <= idx.grid.Cols; c++ {
			x, y := b.Min.X+float64(c)*cell, b.Min.Y+float64(r)*cell
			pts = append(pts, geo.Point{X: x, Y: y}, geo.Point{X: x, Y: y + rng.Float64()*cell},
				geo.Point{X: x + rng.Float64()*cell, Y: y})
		}
	}
	for _, v := range idx.g.Vertices {
		pts = append(pts, v.Pos)
	}
	return pts
}

func TestNearestMatchesRingWalk(t *testing.T) {
	idx := beijingIndex(t)
	s := idx.NewScratch()
	n := 60000
	if testing.Short() {
		n = 6000
	}
	for _, p := range queryPoints(idx, n) {
		checkAgainstRefs(t, idx, s, p)
	}
}

// TestNearestMatchesRingWalkNearTies: segments tangent to circles around p
// whose radii differ by 0 to 1e-8 relative, so squared distances sit on both
// sides of the 1e-9 prune bound, in every arrival order. The same picture
// shrunk until the squares are subnormal or underflow, and grown until they
// overflow, holds the prune to normal squares only.
func TestNearestMatchesRingWalkNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rels := []float64{0, 1e-16, 1e-13, 1e-11, 1e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-9, 3e-9, 1e-8}
	for _, scale := range []float64{1, 1e-160, 1e-163, 1e-170, 1e154} {
		for trial := 0; trial < 300; trial++ {
			p := geo.Point{X: scale * (1000 + rng.Float64()*100), Y: scale * (1000 + rng.Float64()*100)}
			r := scale * (5 + rng.Float64()*40)
			var vs []Vertex
			var es []Edge
			for i, j := range rng.Perm(len(rels)) {
				d := r * (1 + rels[j])
				th := rng.Float64() * 2 * math.Pi
				nx, ny := math.Cos(th), math.Sin(th)
				cx, cy := p.X+d*nx, p.Y+d*ny
				half := scale * (10 + rng.Float64()*30)
				vs = append(vs,
					Vertex{ID: VertexID(2 * i), Pos: geo.Point{X: cx - half*ny, Y: cy + half*nx}},
					Vertex{ID: VertexID(2*i + 1), Pos: geo.Point{X: cx + half*ny, Y: cy - half*nx}})
				es = append(es, Edge{ID: EdgeID(i), From: VertexID(2 * i), To: VertexID(2*i + 1), Length: 1, FreeSpeed: 10})
			}
			g, err := NewGraph(vs, es)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := NewEdgeIndex(g, scale*150)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRefs(t, idx, idx.NewScratch(), p)
		}
	}
}

// TestNearestMatchesRingWalkNaNDistances: at p = (1e308, -1e308) a diagonal
// segment's fraction is Inf - Inf = NaN, so its Dist is NaN, while the
// axis-aligned ones keep finite distances. The insertion sort NearestInto
// reproduces moves nothing past a NaN, and NearestEdge's strict < skips it;
// the two answers differ and each must match its own ring walk.
func TestNearestMatchesRingWalkNaNDistances(t *testing.T) {
	vs := []Vertex{
		{ID: 0, Pos: geo.Point{X: 0, Y: 0}}, {ID: 1, Pos: geo.Point{X: 100, Y: 0}}, {ID: 2, Pos: geo.Point{X: 100, Y: 100}},
		{ID: 3, Pos: geo.Point{X: 5e307, Y: 0}}, {ID: 4, Pos: geo.Point{X: 5e307, Y: 100}},
	}
	// Far, NaN, near, NaN, far: one cell lists them in this order.
	var es []Edge
	for i, ft := range [][2]VertexID{{0, 1}, {0, 2}, {3, 4}, {2, 0}, {1, 0}} {
		es = append(es, Edge{ID: EdgeID(i), From: ft[0], To: ft[1], Length: 1, FreeSpeed: 10})
	}
	g, err := NewGraph(vs, es)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewEdgeIndex(g, 6e307)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 1e308, Y: -1e308}
	all := nearestIntoRef(idx, p, len(es))
	nan, finite := false, false
	for _, c := range all {
		nan, finite = nan || math.IsNaN(c.Dist), finite || !math.IsNaN(c.Dist)
	}
	if !nan || !finite {
		t.Fatalf("distances at %+v are %+v, want NaN beside numbers", p, all)
	}
	s := idx.NewScratch()
	if e, _ := idx.NearestEdge(p); e.Edge != 2 || idx.NearestInto(p, 1, s)[0].Edge != 0 {
		t.Fatalf("NearestEdge = %+v, NearestInto(p, 1) = %+v; want the near edge 2 and the first edge 0", e, idx.NearestInto(p, 1, s))
	}
	for _, q := range []geo.Point{p, {X: -1e308, Y: 1e308}, {X: 1e308, Y: 1e308}, {X: 7e307, Y: -1e308}} {
		checkAgainstRefs(t, idx, s, q)
	}
}

// FuzzNearestEdge holds both entry points to the ring walks for any query
// point: NaN, ±Inf, subnormal and ±1e300 coordinates land in border cells
// and give NaN, infinite or overflowing distances.
func FuzzNearestEdge(f *testing.F) {
	dense, sparse := beijingIndex(f), sparseIndex(f)
	ds, ss := dense.NewScratch(), sparse.NewScratch()
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e300, 1e300, 1.7e308, 2500, 0} {
		f.Add(x, 1800.0, false)
		f.Add(-3.0, x, true)
	}
	// Opposite infinite products make a diagonal segment's fraction NaN
	// while an axis-aligned one's distance stays finite.
	f.Add(1e308, -1e308, false)
	f.Add(-1e308, 1e308, false)
	f.Add(1e308, 1e308, true)
	f.Fuzz(func(t *testing.T, x, y float64, useSparse bool) {
		if useSparse {
			checkAgainstRefs(t, sparse, ss, geo.Point{X: x, Y: y})
		} else {
			checkAgainstRefs(t, dense, ds, geo.Point{X: x, Y: y})
		}
	})
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

// BenchmarkNearestInto is one probe's candidate query on the benchmark's
// city at k = 4, the ingest session's candidate count.
func BenchmarkNearestInto(b *testing.B) {
	idx := beijingIndex(b)
	s := idx.NewScratch()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 4096)
	for i := range pts {
		pts[i] = uniformPoint(rng, idx.grid.Bounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCandidate = idx.NearestInto(pts[i%len(pts)], 4, s)[0]
	}
}
