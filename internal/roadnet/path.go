package roadnet

import (
	"container/heap"
	"fmt"
	"math"
)

// EdgeCostFunc returns the traversal cost (seconds) of edge e when entered
// at time enterSec (seconds since the dataset's base time). Time-dependent
// costs let route synthesis react to simulated congestion; a nil-time cost
// (constant) yields classic Dijkstra.
type EdgeCostFunc func(e EdgeID, enterSec float64) float64

// FreeFlowCost returns an EdgeCostFunc using each edge's free-flow speed.
func FreeFlowCost(g *Graph) EdgeCostFunc {
	return func(e EdgeID, _ float64) float64 {
		ed := g.Edges[e]
		return ed.Length / ed.FreeSpeed
	}
}

// Path is a sequence of edge IDs plus the total cost in seconds.
type Path struct {
	Edges []EdgeID
	Cost  float64
}

type pqItem struct {
	vertex VertexID
	dist   float64
	index  int
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int           { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i]; pq[i].index = i; pq[j].index = j }
func (pq *priorityQueue) Push(x interface{}) {
	it := x.(*pqItem)
	it.index = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() interface{} {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// ShortestPath runs time-dependent Dijkstra from src to dst, departing at
// departSec. Costs are evaluated at the arrival time of each edge's tail,
// which keeps the label-setting property as long as cost never makes an
// earlier departure arrive later (our congestion fields satisfy this FIFO
// property by construction).
func ShortestPath(g *Graph, src, dst VertexID, departSec float64, cost EdgeCostFunc) (Path, error) {
	if int(src) >= g.NumVertices() || int(dst) >= g.NumVertices() || src < 0 || dst < 0 {
		return Path{}, fmt.Errorf("roadnet: shortest path endpoints out of range (%d, %d)", src, dst)
	}
	n := g.NumVertices()
	dist := make([]float64, n)
	prevEdge := make([]EdgeID, n)
	visited := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0

	pq := priorityQueue{{vertex: src, dist: 0}}
	heap.Init(&pq)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(*pqItem)
		u := it.vertex
		if visited[u] {
			continue
		}
		visited[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.Out(u) {
			e := g.Edges[eid]
			c := cost(eid, departSec+dist[u])
			if c < 0 || math.IsNaN(c) {
				return Path{}, fmt.Errorf("roadnet: cost function returned invalid cost %v for edge %d", c, eid)
			}
			nd := dist[u] + c
			if nd < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				heap.Push(&pq, &pqItem{vertex: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, fmt.Errorf("roadnet: no path from %d to %d", src, dst)
	}
	// Reconstruct.
	var rev []EdgeID
	for v := dst; v != src; {
		eid := prevEdge[v]
		rev = append(rev, eid)
		v = g.Edges[eid].From
	}
	edges := make([]EdgeID, len(rev))
	for i := range rev {
		edges[i] = rev[len(rev)-1-i]
	}
	return Path{Edges: edges, Cost: dist[dst]}, nil
}
