// Package embed implements the unsupervised graph-embedding pre-training
// the paper uses to initialize its two embedding matrices (Algorithm 1,
// lines 1–4): node2vec (biased second-order random walks + skip-gram with
// negative sampling), plus the DeepWalk and LINE variants the authors also
// tried, and the temporal-graph construction of Figure 5b.
package embed

import (
	"fmt"
	"math/rand"

	"deepod/internal/roadnet"
)

// Graph is the weighted directed graph interface the walkers consume; both
// the road-segment line graph (Figure 4) and the temporal graph (Figure 5b)
// satisfy it via adapters below.
type Graph interface {
	NumNodes() int
	// Links returns the weighted out-links of node u.
	Links(u int) []roadnet.WeightedLink
}

// lineGraphAdapter adapts roadnet.LineGraph.
type lineGraphAdapter struct{ lg *roadnet.LineGraph }

func (a lineGraphAdapter) NumNodes() int                      { return a.lg.NumNodes }
func (a lineGraphAdapter) Links(u int) []roadnet.WeightedLink { return a.lg.Adj[u] }

// FromLineGraph wraps a road-segment line graph for embedding.
func FromLineGraph(lg *roadnet.LineGraph) Graph { return lineGraphAdapter{lg} }

// WalkConfig tunes random-walk corpus generation.
type WalkConfig struct {
	// WalksPerNode and WalkLength size the corpus.
	WalksPerNode int
	WalkLength   int
	// P and Q are node2vec's return and in-out parameters; P=Q=1 recovers
	// DeepWalk's uniform (weighted) walks.
	P, Q float64
}

// DefaultWalkConfig mirrors common node2vec settings scaled for small
// graphs.
func DefaultWalkConfig() WalkConfig {
	return WalkConfig{WalksPerNode: 8, WalkLength: 20, P: 1, Q: 0.5}
}

func checkWalkConfig(cfg WalkConfig) error {
	if cfg.WalksPerNode <= 0 || cfg.WalkLength < 2 {
		return fmt.Errorf("embed: walk config needs WalksPerNode>0 and WalkLength>=2, got %+v", cfg)
	}
	if cfg.P <= 0 || cfg.Q <= 0 {
		return fmt.Errorf("embed: node2vec p and q must be positive, got p=%v q=%v", cfg.P, cfg.Q)
	}
	return nil
}

// GenerateWalks produces a corpus of random walks over g.
func GenerateWalks(g Graph, cfg WalkConfig, rng *rand.Rand) ([][]int, error) {
	if err := checkWalkConfig(cfg); err != nil {
		return nil, err
	}
	walks := make([][]int, 0, g.NumNodes()*cfg.WalksPerNode)
	for w := 0; w < cfg.WalksPerNode; w++ {
		for start := 0; start < g.NumNodes(); start++ {
			walk := biasedWalk(g, start, cfg, rng)
			if len(walk) >= 2 {
				walks = append(walks, walk)
			}
		}
	}
	return walks, nil
}

// biasedWalk performs one node2vec second-order walk from start.
func biasedWalk(g Graph, start int, cfg WalkConfig, rng *rand.Rand) []int {
	walk := make([]int, 0, cfg.WalkLength)
	walk = append(walk, start)
	prev := -1
	cur := start
	// Scratch for sampleNext's link weights, kept across the walk's steps;
	// out-degrees are a handful, so it normally never leaves the stack.
	var buf [16]float64
	weights := buf[:0]
	for len(walk) < cfg.WalkLength {
		links := g.Links(cur)
		if len(links) == 0 {
			break
		}
		var next int
		next, weights = sampleNext(g, prev, cur, links, cfg, rng, weights)
		walk = append(walk, next)
		prev, cur = cur, next
	}
	return walk
}

// sampleNext draws the next node with node2vec bias: weight/p to return to
// prev, weight to move to a neighbor of prev, weight/q otherwise. It returns
// the weights scratch (possibly grown) for the next step to reuse.
func sampleNext(g Graph, prev, cur int, links []roadnet.WeightedLink, cfg WalkConfig, rng *rand.Rand, weights []float64) (int, []float64) {
	var prevLinks []roadnet.WeightedLink
	if prev >= 0 && (cfg.P != 1 || cfg.Q != 1) {
		prevLinks = g.Links(prev)
	}
	total := 0.0
	weights = weights[:0]
	for _, l := range links {
		w := l.Weight
		if w <= 0 {
			w = 1e-6
		}
		if prev >= 0 {
			switch {
			case l.To == prev:
				w /= cfg.P
			case linksTo(prevLinks, l.To):
				// distance 1 from prev: unbiased
			default:
				w /= cfg.Q
			}
		}
		weights = append(weights, w)
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return links[i].To, weights
		}
	}
	return links[len(links)-1].To, weights
}

// linksTo reports whether any of links points at node.
func linksTo(links []roadnet.WeightedLink, node int) bool {
	for _, l := range links {
		if l.To == node {
			return true
		}
	}
	return false
}
