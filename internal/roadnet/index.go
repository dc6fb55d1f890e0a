package roadnet

import (
	"fmt"
	"math"
	"sort"

	"deepod/internal/geo"
)

// EdgeIndex is a uniform-grid spatial index over road segments, used by the
// map matcher to find candidate segments near a GPS point.
type EdgeIndex struct {
	g     *Graph
	grid  *geo.Grid
	cells [][]int32 // the segments each cell lists, in EdgeID order
	// win[winOff[c]:winOff[c+1]] is cell c's window: the segments listed in
	// the 3×3 cells around c (the first ring of the walk Nearest does), in
	// the walk's order — rows, then columns, then EdgeID — each once.
	win    []int32
	winOff []int
	// seg[e] holds edge e's endpoints, so a window query reads one flat
	// array instead of chasing Edges → Vertices.
	seg []segment
}

type segment struct{ a, b geo.Point }

// NewEdgeIndex builds an index with the given cell size in meters.
func NewEdgeIndex(g *Graph, cellSize float64) (*EdgeIndex, error) {
	if len(g.Edges) > math.MaxInt32 {
		return nil, fmt.Errorf("roadnet: %d edges overflow the edge index's int32 windows", len(g.Edges))
	}
	bounds := g.Bounds()
	// Pad the bounds slightly so points just outside the network still land
	// in a valid cell.
	pad := cellSize
	bounds.Min.X -= pad
	bounds.Min.Y -= pad
	bounds.Max.X += pad
	bounds.Max.Y += pad
	grid, err := geo.NewGrid(bounds, cellSize)
	if err != nil {
		return nil, fmt.Errorf("roadnet: building edge index: %w", err)
	}
	idx := &EdgeIndex{g: g, grid: grid, cells: make([][]int32, grid.NumCells()), seg: make([]segment, len(g.Edges))}
	for eid := range g.Edges {
		a, b := g.EdgePoints(EdgeID(eid))
		idx.seg[eid] = segment{a, b}
		// Register the edge in every cell its sampled points fall into.
		// Edges go in ID order, so a cell already lists this edge exactly
		// when it is the cell's last entry.
		steps := int(math.Ceil(geo.Dist(a, b)/cellSize)) + 1
		for s := 0; s <= steps; s++ {
			ci := grid.CellIndex(geo.Lerp(a, b, float64(s)/float64(steps)))
			if n := len(idx.cells[ci]); n == 0 || idx.cells[ci][n-1] != int32(eid) {
				idx.cells[ci] = append(idx.cells[ci], int32(eid))
			}
		}
	}
	// seen[e] == ci+1 marks edge e as already in cell ci's window.
	seen := make([]int, len(g.Edges))
	idx.winOff = make([]int, grid.NumCells()+1)
	for ci := range idx.cells {
		r, c := ci/grid.Cols, ci%grid.Cols
		for rr := max(r-1, 0); rr <= min(r+1, grid.Rows-1); rr++ {
			for cc := max(c-1, 0); cc <= min(c+1, grid.Cols-1); cc++ {
				for _, e := range idx.cells[rr*grid.Cols+cc] {
					if seen[e] != ci+1 {
						seen[e] = ci + 1
						idx.win = append(idx.win, e)
					}
				}
			}
		}
		idx.winOff[ci+1] = len(idx.win)
	}
	return idx, nil
}

// window returns the segments within one cell of p's cell (see win).
func (idx *EdgeIndex) window(p geo.Point) []int32 {
	ci := idx.grid.CellIndex(p)
	return idx.win[idx.winOff[ci]:idx.winOff[ci+1]]
}

// pruneAbove is the squared distance beyond which a segment cannot beat, by
// a strict <, a candidate at squared distance q. q and math.Hypot each err
// by a few ulps, so a segment whose q exceeds the best's by more than 1e-9
// relative has a strictly greater Hypot too. That holds only while q is a
// normal number (an underflowed or overflowed square carries no relative
// bound), so anything else prunes nothing.
func pruneAbove(q float64) float64 {
	if q >= 0x1p-1022 && q <= math.MaxFloat64 {
		return q * (1 + 1e-9)
	}
	return math.Inf(1)
}

// CellIndex returns the flattened grid cell containing p (points outside
// the padded bounds clamp to border cells). It exposes the index's spatial
// quantization to callers that need a stable coarse location key — the
// inference engine's estimate cache uses it for the (origin cell, dest
// cell) components of its key.
func (idx *EdgeIndex) CellIndex(p geo.Point) int { return idx.grid.CellIndex(p) }

// Candidate is a road segment near a query point.
type Candidate struct {
	Edge EdgeID
	// Frac is the fraction along the segment of the projected point.
	Frac float64
	// Dist is the distance from the query point to the projection, meters.
	Dist float64
	// Proj is the projected point on the segment.
	Proj geo.Point
}

// Nearest returns up to k candidate segments ordered by distance, searching
// outward ring by ring until candidates are found (or the grid is
// exhausted). The order among candidates at exactly equal distance — the two
// directed twins of a two-way street always are — is whatever sort.Slice
// leaves and is unspecified; NearestEdge, which must name one twin, therefore
// does not use it.
func (idx *EdgeIndex) Nearest(p geo.Point, k int) []Candidate {
	if k <= 0 {
		k = 1
	}
	maxRadius := idx.grid.Rows
	if idx.grid.Cols > maxRadius {
		maxRadius = idx.grid.Cols
	}
	seen := make(map[EdgeID]bool)
	var cands []Candidate
	for radius := 1; radius <= maxRadius; radius++ {
		idx.grid.NeighborCells(p, radius, func(r, c int) {
			for _, e := range idx.cells[r*idx.grid.Cols+c] {
				eid := EdgeID(e)
				if seen[eid] {
					continue
				}
				seen[eid] = true
				a, b := idx.g.EdgePoints(eid)
				proj, t, d := geo.ProjectOnSegment(p, a, b)
				cands = append(cands, Candidate{Edge: eid, Frac: t, Dist: d, Proj: proj})
			}
		})
		if len(cands) >= k {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Dist < cands[j].Dist })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// NearestScratch holds the reusable buffers of repeated candidate queries.
// The streaming map matcher issues one query per GPS probe at firehose
// rates; the map-based dedup and result slice of Nearest would make the
// allocator the bottleneck there. A scratch is owned by one goroutine and
// must not be shared.
type NearestScratch struct {
	// stamp[e] == cur marks edge e as already considered by a ring walk;
	// bumping cur resets the whole array in O(1).
	stamp []uint32
	cur   uint32
	// cands is the query's top k so far and q[i] the squared distance of
	// cands[i]; bound is pruneAbove(q[k-1]) once k are held, +Inf before.
	cands []Candidate
	q     []float64
	ring  []int32 // the segments a ring walk meets for the first time
	bound float64
	// frozen: a candidate with a NaN Dist fell out of the top k. The sort
	// NearestInto reproduces moves nothing past it, so the top k is final.
	frozen bool
}

// NewScratch returns a scratch sized for this index's graph.
func (idx *EdgeIndex) NewScratch() *NearestScratch {
	return &NearestScratch{stamp: make([]uint32, len(idx.g.Edges))}
}

// NearestInto returns up to k candidate segments ordered by distance, with
// caller-owned scratch: after the first call it performs no allocations.
// The returned slice aliases the scratch and is valid only until the next
// NearestInto call with the same scratch.
//
// The candidates are those of the walk Nearest does — the segments of the
// first ring of cells around p holding at least k, in (row, column, EdgeID)
// order, each once — stably sorted by Dist and cut to k. Only the top k are
// kept while the segments of p's window stream by, and a segment takes its
// math.Hypot only when its squared distance can still place it there. The
// ring walk itself runs only when the window holds fewer than k segments.
func (idx *EdgeIndex) NearestInto(p geo.Point, k int, s *NearestScratch) []Candidate {
	if k <= 0 {
		k = 1
	}
	s.cands, s.q, s.bound, s.frozen = s.cands[:0], s.q[:0], math.Inf(1), false
	w := idx.window(p)
	s.scan(idx, p, w, k)
	if len(w) >= k {
		return s.cands
	}
	// Widen ring by ring as the walk does, skipping what the window offered.
	s.cur++
	if s.cur == 0 { // wrapped: every stamp value is stale, clear explicitly
		clear(s.stamp)
		s.cur = 1
	}
	for _, e := range w {
		s.stamp[e] = s.cur
	}
	n, cols := len(w), idx.grid.Cols
	for radius := 2; n < k && radius <= max(idx.grid.Rows, cols); radius++ {
		s.ring = s.ring[:0]
		idx.grid.NeighborCells(p, radius, func(r, c int) {
			for _, e := range idx.cells[r*cols+c] {
				if s.stamp[e] != s.cur {
					s.stamp[e] = s.cur
					s.ring = append(s.ring, e)
				}
			}
		})
		s.scan(idx, p, s.ring, k)
		n += len(s.ring)
	}
	return s.cands
}

// scan streams segments ids into the top k: the result equals appending a
// candidate for each, insertion-sorting them all by Dist and cutting to k,
// NaN distances included.
func (s *NearestScratch) scan(idx *EdgeIndex, p geo.Point, ids []int32, k int) {
	for _, e := range ids {
		if s.frozen {
			return
		}
		seg := &idx.seg[e]
		proj, t := geo.ClosestOnSegment(p, seg.a, seg.b)
		dx, dy := p.X-proj.X, p.Y-proj.Y
		q := float64(dx*dx) + float64(dy*dy)
		if q > s.bound {
			continue
		}
		c := Candidate{Edge: EdgeID(e), Frac: t, Dist: math.Hypot(dx, dy), Proj: proj}
		j := len(s.cands)
		if j == k {
			// It enters only by passing the k-th: what the cut dropped is
			// no nearer than the k-th, unless a NaN stopped the sort there
			// and then nothing passes at all.
			if !(c.Dist < s.cands[k-1].Dist) {
				s.frozen = c.Dist != c.Dist
				continue
			}
			j = k - 1
		} else {
			s.cands, s.q = append(s.cands, c), append(s.q, q)
		}
		for ; j > 0 && c.Dist < s.cands[j-1].Dist; j-- {
			s.cands[j], s.q[j] = s.cands[j-1], s.q[j-1]
		}
		s.cands[j], s.q[j] = c, q
		if len(s.cands) == k {
			s.bound = pruneAbove(s.q[k-1])
		}
	}
}

// NearestEdge returns the closest segment to p: the running minimum over
// the first ring of cells around p that holds any segment (the rings
// Nearest searches) — p's window, or, when that is empty, a walk outward.
// Among segments at exactly equal distance (the two directed twins of a
// two-way street) the first one seen wins — rows ascending, then columns,
// then a cell's segments in EdgeID order — which is NearestInto(p, 1, s)[0]
// for every p whose distances are all numbers. A segment takes its
// math.Hypot only when its squared distance does not rule it out
// (pruneAbove). Nothing is allocated.
func (idx *EdgeIndex) NearestEdge(p geo.Point) (Candidate, error) {
	m := runMin{bound: math.Inf(1)}
	m.scan(idx, p, idx.window(p))
	cols := idx.grid.Cols
	for radius := 2; !m.found && radius <= max(idx.grid.Rows, cols); radius++ {
		idx.grid.NeighborCells(p, radius, func(r, c int) {
			m.scan(idx, p, idx.cells[r*cols+c])
		})
	}
	if !m.found {
		return Candidate{}, fmt.Errorf("roadnet: no edge found near point %+v", p)
	}
	return m.best, nil
}

// runMin is NearestEdge's running minimum under a strict <. A segment seen
// twice cannot change it, so the ring walk needs no dedup.
type runMin struct {
	best  Candidate
	bound float64 // pruneAbove of best's squared distance
	found bool
}

func (m *runMin) scan(idx *EdgeIndex, p geo.Point, ids []int32) {
	for _, e := range ids {
		seg := &idx.seg[e]
		proj, t := geo.ClosestOnSegment(p, seg.a, seg.b)
		dx, dy := p.X-proj.X, p.Y-proj.Y
		q := float64(dx*dx) + float64(dy*dy)
		if q > m.bound {
			continue
		}
		if d := math.Hypot(dx, dy); !m.found || d < m.best.Dist {
			m.best = Candidate{Edge: EdgeID(e), Frac: t, Dist: d, Proj: proj}
			m.bound, m.found = pruneAbove(q), true
		}
	}
}

// CellEdges lists, for each cell of grid, the edges crossing it: each edge
// is sampled at steps+1 evenly spaced points, steps = ⌊length/cell⌋ + 1,
// and listed once in every cell a sample falls in. Edges go in ID order,
// so an edge already listed in a cell is that cell's last entry. The
// speed-grid feature (citysim.SpeedGridder) and its live overlay
// (traffic.FeatureSource) both aggregate these lists, so a live cell
// averages the same edges as the prior cell it replaces. (NewEdgeIndex
// samples by its own rule, for snapping.)
func CellEdges(g *Graph, grid *geo.Grid) [][]EdgeID {
	cells := make([][]EdgeID, grid.NumCells())
	for eid := range g.Edges {
		id := EdgeID(eid)
		a, b := g.EdgePoints(id)
		steps := int(geo.Dist(a, b)/grid.CellSize) + 1
		for s := 0; s <= steps; s++ {
			ci := grid.CellIndex(geo.Lerp(a, b, float64(s)/float64(steps)))
			if l := cells[ci]; len(l) == 0 || l[len(l)-1] != id {
				cells[ci] = append(l, id)
			}
		}
	}
	return cells
}
