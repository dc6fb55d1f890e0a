package embed

import (
	"math/rand"
	"testing"
)

// The pre-training kernels on a chorded ring with the node count of the road
// line graph in the `train` workload (996 nodes; 8 walks of 20 a node, dim 16,
// window 4, 4 negatives). Only the count is the line graph's: the ring's three
// out-links a node and near-uniform unigram are not. internal/core's
// BenchmarkPretrainEmbeddings times pre-training on a real line graph and
// temporal graph.

func BenchmarkGenerateWalks(b *testing.B) {
	g := newChordedRing(996)
	cfg := DefaultWalkConfig()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWalks(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCorpus(b *testing.B) (Graph, [][]int) {
	g := newChordedRing(996)
	walks, err := GenerateWalks(g, DefaultWalkConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return g, walks
}

// BenchmarkTrainSkipGram is one epoch over the corpus per iteration.
func BenchmarkTrainSkipGram(b *testing.B) {
	g, walks := benchCorpus(b)
	cfg := DefaultSkipGramConfig(16)
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSkipGram(g.NumNodes(), walks, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

var negSink int

func BenchmarkNegSample(b *testing.B) {
	g, walks := benchCorpus(b)
	neg, err := negTable(g.NumNodes(), walks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		negSink += neg.sample(rng)
	}
}
