package embed

import (
	"fmt"
	"math"
	"math/rand"

	"deepod/internal/tensor"
)

// SkipGramConfig tunes skip-gram-with-negative-sampling training.
type SkipGramConfig struct {
	Dim       int
	Window    int
	Negatives int
	Epochs    int
	LR        float64
}

// DefaultSkipGramConfig returns settings suitable for the small graphs in
// this repository.
func DefaultSkipGramConfig(dim int) SkipGramConfig {
	return SkipGramConfig{Dim: dim, Window: 4, Negatives: 4, Epochs: 3, LR: 0.025}
}

func checkSkipGramConfig(numNodes int, cfg SkipGramConfig) error {
	if numNodes <= 0 {
		return fmt.Errorf("embed: numNodes must be positive, got %d", numNodes)
	}
	if cfg.Dim <= 0 || cfg.Window <= 0 || cfg.Negatives < 0 || cfg.Epochs <= 0 {
		return fmt.Errorf("embed: invalid skip-gram config %+v", cfg)
	}
	return nil
}

// negSampler draws nodes in proportion to unigram^(3/4): cum is the
// cumulative table, and guide[b] is the smallest i with cum[i] >= b/K for
// K = len(cum), so a draw starts its search at most a step or two from its
// answer instead of bisecting the whole table.
type negSampler struct {
	cum   []float64
	guide []int32
}

// negTable builds the negative sampler from the walk corpus.
func negTable(numNodes int, walks [][]int) (*negSampler, error) {
	counts := make([]float64, numNodes)
	for _, w := range walks {
		for _, n := range w {
			if n < 0 || n >= numNodes {
				return nil, fmt.Errorf("embed: walk references node %d outside [0,%d)", n, numNodes)
			}
			counts[n]++
		}
	}
	var total float64
	for i := range counts {
		counts[i] = math.Pow(counts[i]+1, 0.75)
		total += counts[i]
	}
	cum := make([]float64, numNodes)
	run := 0.0
	for i, c := range counts {
		run += c / total
		cum[i] = run
	}
	return newNegSampler(cum), nil
}

// newNegSampler builds the guide over a non-decreasing, non-empty cum.
func newNegSampler(cum []float64) *negSampler {
	k := len(cum)
	guide := make([]int32, k+1) // r*K can round up to K
	i := 0
	for b := range guide {
		t := float64(b) / float64(k)
		for i < k-1 && cum[i] < t {
			i++
		}
		guide[b] = int32(i)
	}
	return &negSampler{cum: cum, guide: guide}
}

// find returns the smallest i with cum[i] >= r, or the last index when there
// is none: what a binary search over cum returns. The guide only chooses where
// to start; the two loops reach the answer from any start, so the rounding of
// r*K and of the guide's b/K cannot change it.
func (s *negSampler) find(r float64) int {
	cum := s.cum
	i := int(s.guide[int(r*float64(len(cum)))])
	for i > 0 && cum[i-1] >= r {
		i--
	}
	for i < len(cum)-1 && cum[i] < r {
		i++
	}
	return i
}

// sample draws one node, consuming exactly one rng.Float64.
func (s *negSampler) sample(rng *rand.Rand) int { return s.find(rng.Float64()) }

// TrainSkipGram learns node embeddings from a walk corpus using skip-gram
// with negative sampling (the objective behind node2vec and DeepWalk).
// It returns a [numNodes, Dim] matrix of input-side vectors.
func TrainSkipGram(numNodes int, walks [][]int, cfg SkipGramConfig, rng *rand.Rand) (*tensor.Tensor, error) {
	if err := checkSkipGramConfig(numNodes, cfg); err != nil {
		return nil, err
	}
	neg, err := negTable(numNodes, walks)
	if err != nil {
		return nil, err
	}
	in := tensor.New(numNodes, cfg.Dim)
	out := tensor.New(numNodes, cfg.Dim)
	for i := range in.Data {
		in.Data[i] = (float64(rng.Float64()) - 0.5) / float64(cfg.Dim)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - float64(float64(epoch)/float64(cfg.Epochs)*0.9))
		trainSkipGramEpoch(in, out, walks, cfg, neg, lr, rng, nil)
	}
	return in, nil
}

// trainSkipGramEpoch runs one skip-gram epoch over walks, updating in/out
// in place. When shard is non-nil, only walks whose index satisfies shard
// are consumed (the data-parallel walk partition).
func trainSkipGramEpoch(in, out *tensor.Tensor, walks [][]int, cfg SkipGramConfig, neg *negSampler, lr float64, rng *rand.Rand, shard func(walkIdx int) bool) {
	gradIn := make([]float64, cfg.Dim)
	for wi, walk := range walks {
		if shard != nil && !shard(wi) {
			continue
		}
		for ci, center := range walk {
			lo := ci - cfg.Window
			if lo < 0 {
				lo = 0
			}
			hi := ci + cfg.Window
			if hi >= len(walk) {
				hi = len(walk) - 1
			}
			for x := lo; x <= hi; x++ {
				if x == ci {
					continue
				}
				trainPair(in.Data, out.Data, gradIn, center, walk[x], cfg.Negatives, neg, lr, rng)
			}
		}
	}
}

// trainPair is one SGD update for a (center, context) pair: the positive
// target and up to negatives sampled ones move their output vectors, then the
// summed gradient moves the center's input vector. gradIn is scratch of the
// embedding dimension. The three vectors are re-sliced to one length so the
// loops carry no bounds checks; the arithmetic and its order are the
// historical ones (dot is one ascending chain, gradIn reads vo[i] before vo[i]
// is updated), which TestSkipGramGoldenBits pins.
func trainPair(in, out, gradIn []float64, center, context, negatives int, neg *negSampler, lr float64, rng *rand.Rand) {
	dim := len(gradIn)
	vi := in[center*dim : (center+1)*dim : (center+1)*dim]
	grad := gradIn[:len(vi)]
	for i := range grad {
		grad[i] = 0
	}
	// One positive + negatives negative targets.
	for s := 0; s <= negatives; s++ {
		target, label := context, 1.0
		if s > 0 {
			target = neg.sample(rng)
			if target == context {
				continue
			}
			label = 0
		}
		vo := out[target*dim : (target+1)*dim : (target+1)*dim][:len(vi)]
		var dot float64
		for i, v := range vi {
			dot += float64(v * vo[i])
		}
		g := (sigmoidApprox(dot) - label) * lr
		for i, v := range vi {
			grad[i] += float64(g * vo[i])
			vo[i] -= float64(g * v)
		}
	}
	for i, gv := range grad {
		vi[i] -= gv
	}
}

// sigmoidBound and sigmoidBins shape the σ(x) table: 1024 bins over [-6, 6]
// (the standard word2vec trick — exp dominates skip-gram training otherwise;
// gradients are noisy anyway, so table resolution is ample).
const (
	sigmoidBound = 6.0
	sigmoidBins  = 1024
)

// sigmoidTab is built once at package init.
var sigmoidTab = func() (t [sigmoidBins + 1]float64) {
	for i := range t {
		x := -sigmoidBound + float64(2*sigmoidBound*float64(i)/sigmoidBins)
		t[i] = 1 / (1 + math.Exp(-x))
	}
	return t
}()

// sigmoidApprox looks σ(x) up in sigmoidTab; small enough to inline.
func sigmoidApprox(x float64) float64 {
	if x >= sigmoidBound {
		return 1
	}
	if x <= -sigmoidBound {
		return 0
	}
	return sigmoidTab[int((x+sigmoidBound)/(2*sigmoidBound)*sigmoidBins)]
}

// Method selects which embedding algorithm initializes a matrix.
type Method string

// The three methods the paper evaluated; node2vec won (§5).
const (
	Node2Vec Method = "node2vec"
	DeepWalk Method = "deepwalk"
	LINE     Method = "line"
)

// Embed runs the chosen method over g and returns [numNodes, dim] vectors.
//
//   - node2vec: biased walks (p=1, q=0.5) + skip-gram.
//   - deepwalk: uniform weighted walks (p=q=1) + skip-gram.
//   - line: first-order proximity — skip-gram over direct links only
//     (window 1 over length-2 walks), matching LINE's edge-sampling spirit.
func Embed(g Graph, method Method, dim int, rng *rand.Rand) (*tensor.Tensor, error) {
	wcfg := DefaultWalkConfig()
	scfg := DefaultSkipGramConfig(dim)
	switch method {
	case Node2Vec:
	case DeepWalk:
		wcfg.P, wcfg.Q = 1, 1
	case LINE:
		wcfg.P, wcfg.Q = 1, 1
		wcfg.WalkLength = 2
		wcfg.WalksPerNode *= 4
		scfg.Window = 1
	default:
		return nil, fmt.Errorf("embed: unknown method %q", method)
	}
	walks, err := GenerateWalks(g, wcfg, rng)
	if err != nil {
		return nil, err
	}
	return TrainSkipGram(g.NumNodes(), walks, scfg, rng)
}
