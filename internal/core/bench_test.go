package core

import (
	"fmt"
	"math/rand"
	"testing"

	"deepod/internal/dataset"
	"deepod/internal/nn"
	"deepod/internal/traj"
)

// Inference benchmarks: the one eval forward at B = 1 (Estimate) and at the
// admission batch sizes a saturated engine drains. Run with -benchmem: the
// forward itself allocates nothing in steady state.

var benchSink float64

func benchModel(b *testing.B) (*Model, []traj.MatchedOD) {
	b.Helper()
	g, recs := testWorld(b, 60)
	m, err := New(tinyConfig(), g)
	if err != nil {
		b.Fatal(err)
	}
	ods := make([]traj.MatchedOD, len(recs))
	for i := range recs {
		ods[i] = recs[i].Matched
	}
	return m, ods
}

func BenchmarkEstimate(b *testing.B) {
	m, ods := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.Estimate(&ods[i%len(ods)])
	}
}

func BenchmarkEstimateBatchFused(b *testing.B) {
	m, ods := benchModel(b)
	for _, bs := range []int{1, 4, 16, 64} {
		if bs > len(ods) {
			continue
		}
		batch := ods[:bs]
		b.Run(fmt.Sprintf("B%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += m.EstimateBatchFused(batch)[0]
			}
		})
	}
}

// Traffic-code memo benchmarks: what one estimate costs when its speed
// matrix is shared with earlier ones (hit), was never seen (miss + insert —
// compare with the parent commit's Estimate, which ran the CNN always) and
// is absent, and what a batch costs when its rows share one matrix or
// carry sixteen. Matrices are beijing-s sized (18×16, gridOf); fresh ones
// are made outside the timer.

func BenchmarkEstimateTrafficCode(b *testing.B) {
	m, ods := benchModel(b)
	od := ods[0]
	b.Run("shared", func(b *testing.B) {
		od.External = gridOf(18, 16, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += m.Estimate(&od)
		}
	})
	b.Run("never-seen", func(b *testing.B) {
		// A few thousand fresh matrices, remade off the clock when used up,
		// so every estimate misses and inserts (and the memo's bounds are
		// crossed now and then, as they would be).
		fresh := make([]*traj.ExternalFeatures, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(fresh) == 0 {
				b.StopTimer()
				for j := range fresh {
					fresh[j] = gridOf(18, 16, i+j)
				}
				b.StartTimer()
			}
			od.External = fresh[i%len(fresh)]
			benchSink += m.Estimate(&od)
		}
	})
	b.Run("no-external", func(b *testing.B) {
		od.External = nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += m.Estimate(&od)
		}
	})
}

func BenchmarkEstimateBatchFusedTrafficCode(b *testing.B) {
	m, ods := benchModel(b)
	batch := append([]traj.MatchedOD(nil), ods[:16]...)
	b.Run("B16-shared", func(b *testing.B) {
		ext := gridOf(18, 16, 0)
		for i := range batch {
			batch[i].External = ext
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += m.EstimateBatchFused(batch)[0]
		}
	})
	b.Run("B16-distinct", func(b *testing.B) {
		for i := range batch {
			batch[i].External = gridOf(18, 16, i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += m.EstimateBatchFused(batch)[0]
		}
	})
}

// trainBenchWorld is the world of the training benchmarks: memoWorld's 200
// orders (speed matrices of 12×10 cells) split 6:1:1, and a SmallConfig model
// over it with its time scale set.
func trainBenchWorld(b *testing.B) (*Model, Config, []traj.TripRecord) {
	g, recs := memoWorld(b, 200)
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SmallConfig()
	m, err := New(cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := range split.Train {
		mean += split.Train[i].TravelSec
	}
	m.SetTimeScale(mean / float64(len(split.Train)))
	return m, cfg, split.Train
}

// BenchmarkPretrainEmbeddings times Algorithm 1 lines 1–4 as Train runs them:
// node2vec over the trajectory-weighted road line graph and over the weekly
// temporal graph (line graph built, walks generated, skip-gram trained), on
// trainBenchWorld with one worker. Run with -benchmem.
func BenchmarkPretrainEmbeddings(b *testing.B) {
	m, _, train := trainBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.pretrainEmbeddings(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStep times optimizer steps and nothing else: one mini-batch
// forward and backward on the worker pool, the gradient reduce, clipping and
// the Adam update. The model (trainBenchWorld) is built and its embeddings
// pre-trained once, off the clock; the batches are drawn off the clock too.
// Run with -benchmem.
func BenchmarkTrainStep(b *testing.B) {
	m, cfg, train := trainBenchWorld(b)
	if err := m.pretrainEmbeddings(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, bs := range []int{1, 8, 32} {
		batches := make([][]int, 64)
		for i := range batches {
			batches[i] = rng.Perm(len(train))[:bs]
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("B%d/workers%d", bs, workers), func(b *testing.B) {
				pool := newTrainPool(m.ps, workers)
				defer pool.close()
				opt := nn.NewAdam(cfg.LRInitial)
				loss := func(tp *nn.Tape, recs []*traj.TripRecord) *nn.Node { return m.shardLoss(tp, recs, true, cfg.AuxWeight) }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					trainStep(pool, opt, cfg.ClipNorm, train, batches[i%len(batches)], loss)
				}
			})
		}
	}
}
