package roadnet

import "fmt"

// LineGraph is the edge-to-node conversion of Figure 4: each node of the
// line graph is a road segment of the original network, and there is a
// directed link ⟨v_ik, v_kj⟩ whenever segment ⟨v_i, v_k⟩ is followed by
// segment ⟨v_k, v_j⟩. Link weights count how often the two segments are
// co-passed by the same historical trajectory, so that the random-walk
// transition probabilities used by the graph-embedding pre-training reflect
// real traffic flow.
type LineGraph struct {
	// NumNodes equals the number of road segments |E|.
	NumNodes int
	// Adj[a] lists weighted links a → b.
	Adj [][]WeightedLink
}

// WeightedLink is a weighted directed link in an embedding graph.
type WeightedLink struct {
	To     int
	Weight float64
}

// BuildLineGraph converts the road network into its line graph. trajEdges
// supplies historical trajectories as sequences of edge IDs; each
// consecutive pair contributes 1 to the corresponding link weight. Links
// that exist topologically but were never traversed receive smoothing
// weight base (the paper sets weights from co-occurrence counts; smoothing
// keeps never-traversed turns reachable by the random walk).
func BuildLineGraph(g *Graph, trajEdges [][]EdgeID, base float64) (*LineGraph, error) {
	if base < 0 {
		return nil, fmt.Errorf("roadnet: smoothing base must be non-negative, got %v", base)
	}
	lg := &LineGraph{NumNodes: g.NumEdges(), Adj: make([][]WeightedLink, g.NumEdges())}

	// Topological links with smoothing weight.
	index := make([]map[int]int, g.NumEdges()) // from -> (to -> position in Adj[from])
	for eid := range g.Edges {
		head := g.Edges[eid].To
		index[eid] = make(map[int]int)
		for _, next := range g.Out(head) {
			if int(next) == eid {
				continue // ignore immediate self loop back onto the same segment id
			}
			// Skip trivial U-turns (back along the reverse twin): they are
			// legal in principle but pollute the walk distribution.
			if g.Edges[next].To == g.Edges[eid].From && g.Edges[next].From == g.Edges[eid].From {
				continue
			}
			index[eid][int(next)] = len(lg.Adj[eid])
			lg.Adj[eid] = append(lg.Adj[eid], WeightedLink{To: int(next), Weight: base})
		}
	}

	// Co-occurrence counts from trajectories (Figure 4's link weights).
	for _, tr := range trajEdges {
		for i := 1; i < len(tr); i++ {
			a, b := int(tr[i-1]), int(tr[i])
			if a < 0 || a >= lg.NumNodes || b < 0 || b >= lg.NumNodes {
				return nil, fmt.Errorf("roadnet: trajectory references unknown edge (%d or %d)", a, b)
			}
			pos, ok := index[a][b]
			if !ok {
				// A trajectory may contain a turn the topological pass
				// skipped (e.g. a U-turn); add the link on demand.
				index[a][b] = len(lg.Adj[a])
				lg.Adj[a] = append(lg.Adj[a], WeightedLink{To: b, Weight: base})
				pos = index[a][b]
			}
			lg.Adj[a][pos].Weight++
		}
	}
	return lg, nil
}
