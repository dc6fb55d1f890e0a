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
// cumulative table, and guide[b] is the smallest i with cum[i] >= b/B for
// B = guideBuckets·len(cum) buckets, so a draw almost always starts its
// search at its answer instead of bisecting the whole table.
type negSampler struct {
	cum     []float64
	guide   []int32
	buckets float64 // B, as a float for the bucket index
}

// guideBuckets is how many guide buckets the sampler keeps per table entry.
// With one a bucket, a draw stepped a node or two from its start about as
// often as not; with four it almost never steps.
const guideBuckets = 4

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
	nb := guideBuckets * k
	guide := make([]int32, nb+1) // r*B can round up to B
	i := 0
	for b := range guide {
		t := float64(b) / float64(nb)
		for i < k-1 && cum[i] < t {
			i++
		}
		guide[b] = int32(i)
	}
	return &negSampler{cum: cum, guide: guide, buckets: float64(nb)}
}

// find returns the smallest i with cum[i] >= r, or the last index when there
// is none: what a binary search over cum returns. The guide only chooses where
// to start; the two loops reach the answer from any start, so the rounding of
// r*B and of the guide's b/B cannot change it.
func (s *negSampler) find(r float64) int {
	cum := s.cum
	i := int(s.guide[int(r*s.buckets)])
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
	return trainSkipGram(numNodes, walks, cfg, rng, 1, nil)
}

// trainSkipGram is TrainSkipGram with workers <= 1 and TrainSkipGramParallel
// otherwise. When afterEpoch is non-nil it is handed both matrices after
// every epoch, which is how the kernel tests hold them to a reference.
func trainSkipGram(numNodes int, walks [][]int, cfg SkipGramConfig, rng *rand.Rand, workers int, afterEpoch func(in, out *tensor.Tensor)) (*tensor.Tensor, error) {
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
	var ins, outs []*tensor.Tensor // each worker's copy when workers > 1
	if workers > 1 {
		if workers > len(walks) && len(walks) > 0 {
			workers = len(walks)
		}
		ins, outs = make([]*tensor.Tensor, workers), make([]*tensor.Tensor, workers)
		for w := range ins {
			ins[w], outs[w] = tensor.New(numNodes, cfg.Dim), tensor.New(numNodes, cfg.Dim)
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - float64(float64(epoch)/float64(cfg.Epochs)*0.9))
		if ins == nil {
			trainSkipGramEpoch(in, out, walks, cfg, neg, lr, rng, nil)
		} else {
			averagedEpoch(in, out, ins, outs, walks, cfg, neg, lr, rng)
		}
		if !allFinite(in.Data) || !allFinite(out.Data) {
			return nil, fmt.Errorf("embed: skip-gram epoch %d left a non-finite embedding (LR %g too large?)", epoch, cfg.LR)
		}
		if afterEpoch != nil {
			afterEpoch(in, out)
		}
	}
	return in, nil
}

// allFinite reports whether no element of data is NaN or ±Inf.
func allFinite(data []float64) bool {
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// trainSkipGramEpoch runs one skip-gram epoch over walks, updating in/out
// in place. When shard is non-nil, only walks whose index satisfies shard
// are consumed (the data-parallel walk partition).
func trainSkipGramEpoch(in, out *tensor.Tensor, walks [][]int, cfg SkipGramConfig, neg *negSampler, lr float64, rng *rand.Rand, shard func(walkIdx int) bool) {
	gradIn := make([]float64, cfg.Dim)
	targets := make([]int, 1+cfg.Negatives)
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
				targets[0] = walk[x]
				trainPair(in.Data, out.Data, gradIn, targets, center, neg, lr, rng)
			}
		}
	}
}

// pairTargets is the target count of the interleaved pair update: the context
// and the four negatives DefaultSkipGramConfig draws.
const pairTargets = 5

// trainPair is one SGD update for a (center, context) pair, the context in
// targets[0]. It first draws one negative into each of targets[1:]; then the
// context and every negative unequal to it move their output vectors in
// target order, and the summed gradient moves the center's input vector.
// gradIn is scratch of the embedding dimension. The vectors are re-sliced to
// one length so the loops carry no bounds checks.
//
// The arithmetic and its order are the historical ones, which
// TestSkipGramGoldenBits pins: target s's dot is one ascending chain over vi
// and vo_s as the earlier targets left it, gradIn[i] reads vo_s[i] before
// vo_s[i] is updated, and vi moves once, last. No draw depends on the
// arithmetic, so drawing first changes nothing. When the five targets are
// pairwise distinct, no target's vo is touched before its own turn, so
// trainPair5 runs their dots side by side and every bit is unchanged; a
// repeated or skipped target, or another target count, takes the loop below.
func trainPair(in, out, gradIn []float64, targets []int, center int, neg *negSampler, lr float64, rng *rand.Rand) {
	context := targets[0]
	distinct := len(targets) == pairTargets
	for s := 1; s < len(targets); s++ {
		t := neg.sample(rng)
		for _, u := range targets[:s] {
			distinct = distinct && u != t
		}
		targets[s] = t
	}
	dim := len(gradIn)
	vi := in[center*dim : (center+1)*dim : (center+1)*dim]
	if distinct {
		trainPair5(vi, out, (*[pairTargets]int)(targets), lr)
		return
	}
	grad := gradIn[:len(vi)]
	clear(grad)
	for s, target := range targets {
		label := 1.0
		if s > 0 {
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

// trainPair5Go is trainPair's update for five pairwise-distinct targets,
// t[0] the context (label 1) and t[1:] negatives (label 0): five independent
// dot chains in one pass over vi, then one pass that adds g_s·vo_s[i] to the
// center's gradient in target order from zero, moves each vo_s[i] after
// reading it, and moves vi[i] last. It is trainPair5's portable body; on
// amd64 with AVX2, a width that is a multiple of 4 runs the same operations
// in assembly (pair_amd64.s).
func trainPair5Go(vi, out []float64, t *[pairTargets]int, lr float64) {
	dim := len(vi)
	vo0 := out[t[0]*dim : (t[0]+1)*dim : (t[0]+1)*dim][:len(vi)]
	vo1 := out[t[1]*dim : (t[1]+1)*dim : (t[1]+1)*dim][:len(vi)]
	vo2 := out[t[2]*dim : (t[2]+1)*dim : (t[2]+1)*dim][:len(vi)]
	vo3 := out[t[3]*dim : (t[3]+1)*dim : (t[3]+1)*dim][:len(vi)]
	vo4 := out[t[4]*dim : (t[4]+1)*dim : (t[4]+1)*dim][:len(vi)]
	var d0, d1, d2, d3, d4 float64
	for i, v := range vi {
		d0 += float64(v * vo0[i])
		d1 += float64(v * vo1[i])
		d2 += float64(v * vo2[i])
		d3 += float64(v * vo3[i])
		d4 += float64(v * vo4[i])
	}
	g0 := (sigmoidApprox(d0) - 1) * lr
	g1 := (sigmoidApprox(d1) - 0) * lr
	g2 := (sigmoidApprox(d2) - 0) * lr
	g3 := (sigmoidApprox(d3) - 0) * lr
	g4 := (sigmoidApprox(d4) - 0) * lr
	for i, v := range vi {
		a0, a1, a2, a3, a4 := vo0[i], vo1[i], vo2[i], vo3[i], vo4[i]
		grad := 0.0
		grad += float64(g0 * a0)
		grad += float64(g1 * a1)
		grad += float64(g2 * a2)
		grad += float64(g3 * a3)
		grad += float64(g4 * a4)
		vo0[i] = a0 - float64(g0*v)
		vo1[i] = a1 - float64(g1*v)
		vo2[i] = a2 - float64(g2*v)
		vo3[i] = a3 - float64(g3*v)
		vo4[i] = a4 - float64(g4*v)
		vi[i] = v - grad
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

// sigmoidApprox looks σ(x) up in sigmoidTab; small enough to inline. NaN
// gives 0, as in the assembly pair kernel, so no NaN ever indexes the table.
func sigmoidApprox(x float64) float64 {
	if x >= sigmoidBound {
		return 1
	}
	if !(x > -sigmoidBound) {
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

// Configs returns method's walk and skip-gram settings for dim-wide vectors,
// walksPerNode walks a node and epochs skip-gram epochs; the rest are the
// defaults.
//
//   - node2vec: biased walks (p=1, q=0.5) + skip-gram.
//   - deepwalk: uniform weighted walks (p=q=1) + skip-gram.
//   - line: first-order proximity — skip-gram over direct links only
//     (window 1 over length-2 walks, four times walksPerNode of them),
//     matching LINE's edge-sampling spirit.
func Configs(method Method, dim, walksPerNode, epochs int) (WalkConfig, SkipGramConfig, error) {
	wcfg := DefaultWalkConfig()
	wcfg.WalksPerNode = walksPerNode
	scfg := DefaultSkipGramConfig(dim)
	scfg.Epochs = epochs
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
		return WalkConfig{}, SkipGramConfig{}, fmt.Errorf("embed: unknown method %q", method)
	}
	return wcfg, scfg, nil
}
