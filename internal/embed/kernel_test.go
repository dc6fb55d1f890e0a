package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepod/internal/roadnet"
	"deepod/internal/tensor"
)

// refTrainSkipGramEpoch and refTrainPair are the skip-gram epoch and pair
// update as they were before the interleaved pair update, kept as its
// reference the way searchNeg is kept for the guided sampler: one target at a
// time, each negative drawn just before its update, by binary search.
func refTrainSkipGramEpoch(in, out *tensor.Tensor, walks [][]int, cfg SkipGramConfig, cum []float64, lr float64, rng *rand.Rand, shard func(walkIdx int) bool) {
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
				refTrainPair(in.Data, out.Data, gradIn, center, walk[x], cfg.Negatives, cum, lr, rng)
			}
		}
	}
}

func refTrainPair(in, out, gradIn []float64, center, context, negatives int, cum []float64, lr float64, rng *rand.Rand) {
	dim := len(gradIn)
	vi := in[center*dim : (center+1)*dim : (center+1)*dim]
	grad := gradIn[:len(vi)]
	for i := range grad {
		grad[i] = 0
	}
	for s := 0; s <= negatives; s++ {
		target, label := context, 1.0
		if s > 0 {
			target = searchNeg(cum, rng.Float64())
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

// refTrainSkipGram is TrainSkipGram (workers <= 1) and TrainSkipGramParallel
// over the reference epoch, handing both matrices to afterEpoch after every
// epoch. The workers of an averaged epoch run one after another: each trains
// its own copy from its own seed, so the order cannot matter.
func refTrainSkipGram(t *testing.T, numNodes int, walks [][]int, cfg SkipGramConfig, rng *rand.Rand, workers int, afterEpoch func(in, out *tensor.Tensor)) {
	t.Helper()
	neg, err := negTable(numNodes, walks)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(numNodes, cfg.Dim)
	out := tensor.New(numNodes, cfg.Dim)
	for i := range in.Data {
		in.Data[i] = (float64(rng.Float64()) - 0.5) / float64(cfg.Dim)
	}
	if workers > len(walks) && len(walks) > 0 {
		workers = len(walks)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - float64(float64(epoch)/float64(cfg.Epochs)*0.9))
		if workers <= 1 {
			refTrainSkipGramEpoch(in, out, walks, cfg, neg.cum, lr, rng, nil)
		} else {
			seeds := make([]int64, workers)
			for w := range seeds {
				seeds[w] = rng.Int63()
			}
			ins := make([]*tensor.Tensor, workers)
			outs := make([]*tensor.Tensor, workers)
			for w := range ins {
				ins[w], outs[w] = in.Clone(), out.Clone()
				shard := func(i int) bool { return i%workers == w }
				refTrainSkipGramEpoch(ins[w], outs[w], walks, cfg, neg.cum, lr, rand.New(rand.NewSource(seeds[w])), shard)
			}
			averageInto(in, ins)
			averageInto(out, outs)
		}
		afterEpoch(in, out)
	}
}

// newZipfGraph links node u to u+1 with weight 1 and to each of nodes 0..7
// with weight 1/(j+1), so walks keep coming back to the low nodes and the
// negative sampler's table falls off steeply.
func newZipfGraph(n int) *ringGraph {
	g := &ringGraph{n: n, adj: make([][]roadnet.WeightedLink, n)}
	for u := 0; u < n; u++ {
		g.adj[u] = append(g.adj[u], roadnet.WeightedLink{To: (u + 1) % n, Weight: 1})
		for j := 0; j < 8 && j < n; j++ {
			g.adj[u] = append(g.adj[u], roadnet.WeightedLink{To: j, Weight: 1 / float64(j+1)})
		}
	}
	return g
}

type kernelCorpus struct {
	name     string
	numNodes int
	walks    [][]int
	window   int
}

// kernelCorpora are the walk corpora the kernel is held to the reference on.
// With four negatives, the share of pairs whose five targets are pairwise
// distinct (the interleaved path) is 0 on the 2- and 3-node graphs, where
// every pair repeats a target or draws the context, about 0.6 on the
// Zipf-weighted graph and about 0.99 on the 996-node chorded ring; the last
// corpus is LINE's length-2 walks under window 1.
func kernelCorpora(t *testing.T) []kernelCorpus {
	t.Helper()
	short := DefaultWalkConfig()
	short.WalksPerNode, short.WalkLength = 1, 10
	line, lineSG, err := Configs(LINE, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cs []kernelCorpus
	for _, c := range []struct {
		name   string
		g      Graph
		wcfg   WalkConfig
		window int
	}{
		{"ring2", newRing(2), DefaultWalkConfig(), DefaultSkipGramConfig(1).Window},
		{"chorded3", newChordedRing(3), DefaultWalkConfig(), DefaultSkipGramConfig(1).Window},
		{"zipf200", newZipfGraph(200), short, DefaultSkipGramConfig(1).Window},
		{"chorded996", newChordedRing(996), short, DefaultSkipGramConfig(1).Window},
		{"line/chorded64", newChordedRing(64), line, lineSG.Window},
	} {
		walks, err := GenerateWalks(c.g, c.wcfg, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, kernelCorpus{c.name, c.g.NumNodes(), walks, c.window})
	}
	return cs
}

// checkKernelAgainstReference runs trainSkipGram on workers and the
// reference from the same seed and requires both matrices after every epoch,
// and the rng's next draw, to match at Float64bits.
func checkKernelAgainstReference(t *testing.T, workers int) {
	for _, c := range kernelCorpora(t) {
		for _, dim := range []int{1, 5, 16} {
			for _, negatives := range []int{0, 1, 4, 7} {
				cfg := DefaultSkipGramConfig(dim)
				cfg.Window, cfg.Negatives, cfg.Epochs = c.window, negatives, 2
				t.Run(fmt.Sprintf("%s/dim%d/neg%d", c.name, dim, negatives), func(t *testing.T) {
					var got, want [][]float64
					snapshot := func(dst *[][]float64) func(in, out *tensor.Tensor) {
						return func(in, out *tensor.Tensor) {
							*dst = append(*dst, append([]float64(nil), in.Data...), append([]float64(nil), out.Data...))
						}
					}
					rng := rand.New(rand.NewSource(5))
					if _, err := trainSkipGram(c.numNodes, c.walks, cfg, rng, workers, snapshot(&got)); err != nil {
						t.Fatal(err)
					}
					refRng := rand.New(rand.NewSource(5))
					refTrainSkipGram(t, c.numNodes, c.walks, cfg, refRng, workers, snapshot(&want))
					if len(got) != len(want) {
						t.Fatalf("%d snapshots, reference %d", len(got), len(want))
					}
					for k := range want {
						for i := range want[k] {
							if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
								t.Fatalf("epoch %d %s[%d]: %v, reference %v", k/2, [2]string{"in", "out"}[k%2], i, got[k][i], want[k][i])
							}
						}
					}
					if a, b := rng.Int63(), refRng.Int63(); a != b {
						t.Fatalf("next draw %d, reference %d", a, b)
					}
				})
			}
		}
	}
}

func TestSkipGramMatchesReference(t *testing.T) { checkKernelAgainstReference(t, 1) }

func TestParallelSkipGramMatchesReference(t *testing.T) { checkKernelAgainstReference(t, 2) }
