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
	cells [][]EdgeID
}

// NewEdgeIndex builds an index with the given cell size in meters.
func NewEdgeIndex(g *Graph, cellSize float64) (*EdgeIndex, error) {
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
	idx := &EdgeIndex{g: g, grid: grid, cells: make([][]EdgeID, grid.NumCells())}
	for eid := range g.Edges {
		a, b := g.EdgePoints(EdgeID(eid))
		// Register the edge in every cell its sampled points fall into.
		steps := int(math.Ceil(geo.Dist(a, b)/cellSize)) + 1
		seen := make(map[int]bool, 4)
		for s := 0; s <= steps; s++ {
			p := geo.Lerp(a, b, float64(s)/float64(steps))
			ci := grid.CellIndex(p)
			if !seen[ci] {
				seen[ci] = true
				idx.cells[ci] = append(idx.cells[ci], EdgeID(eid))
			}
		}
	}
	return idx, nil
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
			for _, eid := range idx.cells[r*idx.grid.Cols+c] {
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
	// stamp[e] == cur marks edge e as already considered in this query;
	// bumping cur resets the whole array in O(1).
	stamp []uint32
	cur   uint32
	cands []Candidate
}

// NewScratch returns a scratch sized for this index's graph.
func (idx *EdgeIndex) NewScratch() *NearestScratch {
	return &NearestScratch{stamp: make([]uint32, len(idx.g.Edges))}
}

// NearestInto is Nearest with caller-owned scratch: after the first call it
// performs no allocations. The returned slice aliases the scratch and is
// valid only until the next NearestInto call with the same scratch.
func (idx *EdgeIndex) NearestInto(p geo.Point, k int, s *NearestScratch) []Candidate {
	if k <= 0 {
		k = 1
	}
	s.cur++
	if s.cur == 0 { // wrapped: every stamp value is stale, clear explicitly
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 1
	}
	s.cands = s.cands[:0]
	maxRadius := idx.grid.Rows
	if idx.grid.Cols > maxRadius {
		maxRadius = idx.grid.Cols
	}
	for radius := 1; radius <= maxRadius; radius++ {
		idx.grid.NeighborCells(p, radius, func(r, c int) {
			for _, eid := range idx.cells[r*idx.grid.Cols+c] {
				if s.stamp[eid] == s.cur {
					continue
				}
				s.stamp[eid] = s.cur
				a, b := idx.g.EdgePoints(eid)
				proj, t, d := geo.ProjectOnSegment(p, a, b)
				s.cands = append(s.cands, Candidate{Edge: eid, Frac: t, Dist: d, Proj: proj})
			}
		})
		if len(s.cands) >= k {
			break
		}
	}
	// Insertion sort: candidate counts are tiny and sort.Slice would allocate
	// its closure on every probe.
	for i := 1; i < len(s.cands); i++ {
		for j := i; j > 0 && s.cands[j].Dist < s.cands[j-1].Dist; j-- {
			s.cands[j], s.cands[j-1] = s.cands[j-1], s.cands[j]
		}
	}
	if len(s.cands) > k {
		s.cands = s.cands[:k]
	}
	return s.cands
}

// NearestEdge returns the closest segment to p: one walk over the first ring
// of cells around p that holds any segment (the rings Nearest searches),
// keeping the running minimum. Among segments at exactly equal distance (the
// two directed twins of a two-way street) the first one seen wins — rows
// ascending, then columns, then a cell's segments in EdgeID order — which is
// NearestInto(p, 1, s)[0] for every p. A segment listed in several cells
// cannot change a minimum, so nothing is deduplicated or allocated.
func (idx *EdgeIndex) NearestEdge(p geo.Point) (Candidate, error) {
	rows, cols := idx.grid.Rows, idx.grid.Cols
	r0, c0 := idx.grid.Cell(p)
	var best Candidate
	found := false
	for radius := 1; radius <= max(rows, cols) && !found; radius++ {
		for r := max(r0-radius, 0); r <= min(r0+radius, rows-1); r++ {
			for c := max(c0-radius, 0); c <= min(c0+radius, cols-1); c++ {
				for _, eid := range idx.cells[r*cols+c] {
					a, b := idx.g.EdgePoints(eid)
					proj, t, d := geo.ProjectOnSegment(p, a, b)
					if !found || d < best.Dist {
						best, found = Candidate{Edge: eid, Frac: t, Dist: d, Proj: proj}, true
					}
				}
			}
		}
	}
	if !found {
		return Candidate{}, fmt.Errorf("roadnet: no edge found near point %+v", p)
	}
	return best, nil
}
