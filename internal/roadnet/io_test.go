package roadnet

import (
	"encoding/json"
	"fmt"
	"io"

	"deepod/internal/geo"
)

// graphJSON is a JSON schema for road networks: a direct encoding of the
// paper's §2 model (vertices with positions, directed weighted edges). No
// binary reads or writes graphs; the round-trip tests hold NewGraph's
// validation to a hand-authored input.
type graphJSON struct {
	Vertices []vertexJSON `json:"vertices"`
	Edges    []edgeJSON   `json:"edges"`
}

type vertexJSON struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type edgeJSON struct {
	ID        int     `json:"id"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Length    float64 `json:"length_m"`
	FreeSpeed float64 `json:"free_speed_mps"`
	Class     string  `json:"class"`
}

// WriteJSON serializes the graph.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := graphJSON{
		Vertices: make([]vertexJSON, len(g.Vertices)),
		Edges:    make([]edgeJSON, len(g.Edges)),
	}
	for i, v := range g.Vertices {
		out.Vertices[i] = vertexJSON{ID: int(v.ID), X: v.Pos.X, Y: v.Pos.Y}
	}
	for i, e := range g.Edges {
		out.Edges[i] = edgeJSON{
			ID: int(e.ID), From: int(e.From), To: int(e.To),
			Length: e.Length, FreeSpeed: e.FreeSpeed, Class: e.Class.String(),
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("roadnet: encoding graph: %w", err)
	}
	return nil
}

// ReadJSON deserializes a graph written by WriteJSON (or hand-authored in
// the same schema), validating structure through NewGraph.
func ReadJSON(r io.Reader) (*Graph, error) {
	var in graphJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("roadnet: decoding graph: %w", err)
	}
	vertices := make([]Vertex, len(in.Vertices))
	for i, v := range in.Vertices {
		vertices[i] = Vertex{ID: VertexID(v.ID), Pos: geo.Point{X: v.X, Y: v.Y}}
	}
	edges := make([]Edge, len(in.Edges))
	for i, e := range in.Edges {
		var class RoadClass
		switch e.Class {
		case "arterial":
			class = Arterial
		case "local", "":
			class = Local
		default:
			return nil, fmt.Errorf("roadnet: edge %d has unknown class %q", e.ID, e.Class)
		}
		edges[i] = Edge{
			ID: EdgeID(e.ID), From: VertexID(e.From), To: VertexID(e.To),
			Length: e.Length, FreeSpeed: e.FreeSpeed, Class: class,
		}
	}
	return NewGraph(vertices, edges)
}
