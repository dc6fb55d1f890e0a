package embed

import (
	"math/rand"
	"sync"

	"deepod/internal/tensor"
)

// GenerateWalksParallel is GenerateWalks sharded across workers goroutines.
//
// With workers <= 1 it calls GenerateWalks directly, consuming rng exactly
// as the serial path does. With more workers, each worker draws a private
// seed from rng (sequentially, so a given base seed + worker count is
// deterministic) and generates the walks whose flat index i (walk w of
// start node s ⇒ i = w·NumNodes + s) satisfies i mod workers == worker.
// Walks are assembled in flat-index order, so the corpus ordering is
// independent of goroutine scheduling.
func GenerateWalksParallel(g Graph, cfg WalkConfig, rng *rand.Rand, workers int) ([][]int, error) {
	if workers <= 1 {
		return GenerateWalks(g, cfg, rng)
	}
	if err := checkWalkConfig(cfg); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	total := cfg.WalksPerNode * n
	if workers > total {
		workers = total
	}
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}
	slots := make([][]int, total)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seeds[w]))
			for i := w; i < total; i += workers {
				slots[i] = biasedWalk(g, i%n, cfg, wrng)
			}
		}(w)
	}
	wg.Wait()
	walks := make([][]int, 0, total)
	for _, walk := range slots {
		if len(walk) >= 2 {
			walks = append(walks, walk)
		}
	}
	return walks, nil
}

// TrainSkipGramParallel is TrainSkipGram sharded across workers goroutines.
//
// With workers <= 1 it is TrainSkipGram (the serial path, bit for bit). With
// more workers, each epoch snapshots the embedding
// matrices, lets every worker train a private copy on its walk shard
// (walk i on worker i mod workers, with a per-worker rng seeded
// sequentially from the base rng), and averages the copies in fixed
// worker-index order — synchronous model averaging, deterministic for a
// given seed + worker count and race-free under the race detector.
func TrainSkipGramParallel(numNodes int, walks [][]int, cfg SkipGramConfig, rng *rand.Rand, workers int) (*tensor.Tensor, error) {
	return trainSkipGram(numNodes, walks, cfg, rng, workers, nil)
}

// averagedEpoch is one epoch of synchronous model averaging: worker w trains
// its private copy ins[w]/outs[w] of in/out on its walk shard, then in/out
// become the copies' mean.
func averagedEpoch(in, out *tensor.Tensor, ins, outs []*tensor.Tensor, walks [][]int, cfg SkipGramConfig, neg *negSampler, lr float64, rng *rand.Rand) {
	workers := len(ins)
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			copy(ins[w].Data, in.Data)
			copy(outs[w].Data, out.Data)
			wrng := rand.New(rand.NewSource(seeds[w]))
			shard := func(i int) bool { return i%workers == w }
			trainSkipGramEpoch(ins[w], outs[w], walks, cfg, neg, lr, wrng, shard)
		}(w)
	}
	wg.Wait()
	// Average in fixed worker order: sum sequentially, then scale.
	averageInto(in, ins)
	averageInto(out, outs)
}

// averageInto overwrites dst with the element-wise mean of srcs, summing in
// slice order so the result is independent of goroutine scheduling.
func averageInto(dst *tensor.Tensor, srcs []*tensor.Tensor) {
	copy(dst.Data, srcs[0].Data)
	for _, s := range srcs[1:] {
		dst.AddInPlace(s)
	}
	dst.ScaleInPlace(1 / float64(len(srcs)))
}
