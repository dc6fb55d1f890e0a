// Package roadnet models directed, weighted road networks (Section 2 of the
// paper): vertices are road-segment endpoints, edges are road segments with
// lengths and class-dependent free-flow speeds.
//
// The package also provides the substrates the DeepOD pipeline needs around
// the graph itself: a synthetic city generator (the stand-in for the
// OpenStreetMap extracts used in the paper — see DESIGN.md §1), Dijkstra and
// time-dependent shortest paths for route synthesis, a uniform-grid spatial
// index over edges for map matching, and the edge-to-node "line graph"
// conversion of Figure 4 with trajectory co-occurrence link weights that
// feeds the road-segment embedding initialization.
package roadnet

import (
	"fmt"

	"deepod/internal/geo"
)

// VertexID identifies a vertex (road-segment endpoint).
type VertexID int

// EdgeID identifies a directed road segment.
type EdgeID int

// RoadClass distinguishes arterial from local roads; it determines free-flow
// speed and how strongly congestion affects the segment.
type RoadClass uint8

const (
	// Arterial roads are fast multi-lane roads forming the city's main grid.
	Arterial RoadClass = iota
	// Local roads are slower neighborhood streets.
	Local
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case Arterial:
		return "arterial"
	case Local:
		return "local"
	}
	return fmt.Sprintf("RoadClass(%d)", uint8(c))
}

// Vertex is a road-segment endpoint with a planar position.
type Vertex struct {
	ID  VertexID
	Pos geo.Point
}

// Edge is a directed road segment ⟨v¹ → v⁻¹, w⟩ (paper §2). Length is the
// weight w in meters; FreeSpeed is the uncongested speed in m/s.
type Edge struct {
	ID        EdgeID
	From, To  VertexID
	Length    float64
	FreeSpeed float64
	Class     RoadClass
}

// Graph is a directed weighted road network.
type Graph struct {
	Vertices []Vertex
	Edges    []Edge

	out [][]EdgeID // outgoing edges per vertex
}

// NewGraph builds a graph from vertices and edges, validating references.
func NewGraph(vertices []Vertex, edges []Edge) (*Graph, error) {
	g := &Graph{Vertices: vertices, Edges: edges}
	g.out = make([][]EdgeID, len(vertices))
	for i := range vertices {
		if vertices[i].ID != VertexID(i) {
			return nil, fmt.Errorf("roadnet: vertex %d has ID %d; IDs must be dense", i, vertices[i].ID)
		}
	}
	for i := range edges {
		e := &edges[i]
		if e.ID != EdgeID(i) {
			return nil, fmt.Errorf("roadnet: edge %d has ID %d; IDs must be dense", i, e.ID)
		}
		if int(e.From) >= len(vertices) || int(e.To) >= len(vertices) || e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("roadnet: edge %d references unknown vertex (%d→%d)", i, e.From, e.To)
		}
		if e.Length <= 0 {
			return nil, fmt.Errorf("roadnet: edge %d has non-positive length %v", i, e.Length)
		}
		if e.FreeSpeed <= 0 {
			return nil, fmt.Errorf("roadnet: edge %d has non-positive speed %v", i, e.FreeSpeed)
		}
		g.out[e.From] = append(g.out[e.From], e.ID)
	}
	return g, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Out returns the outgoing edge IDs of v.
func (g *Graph) Out(v VertexID) []EdgeID { return g.out[v] }

// EdgePoints returns the endpoint positions of edge e.
func (g *Graph) EdgePoints(e EdgeID) (from, to geo.Point) {
	ed := g.Edges[e]
	return g.Vertices[ed.From].Pos, g.Vertices[ed.To].Pos
}

// PointAlongEdge returns the position at fraction t ∈ [0,1] along edge e.
func (g *Graph) PointAlongEdge(e EdgeID, t float64) geo.Point {
	a, b := g.EdgePoints(e)
	return geo.Lerp(a, b, t)
}

// Bounds returns the bounding box of all vertices.
func (g *Graph) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for i := range g.Vertices {
		r.Expand(g.Vertices[i].Pos)
	}
	return r
}
