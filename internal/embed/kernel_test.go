package embed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
				ins[w], outs[w] = tensor.New(in.Shape...), tensor.New(out.Shape...)
				copy(ins[w].Data, in.Data)
				copy(outs[w].Data, out.Data)
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
// and the rng's next draw, to match at Float64bits. Widths 16 (SmallConfig's)
// and 64 (PaperConfig's) run the pair update's assembly on an amd64 CPU with
// AVX2; 1, 5 and 18 are not multiples of 4 and run trainPair5Go everywhere.
func checkKernelAgainstReference(t *testing.T, workers int) {
	for _, c := range kernelCorpora(t) {
		for _, dim := range []int{1, 5, 16, 18, 64} {
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

// pairTargetRows are the rows of a seven-row out that the pair tests train:
// distinct, unsorted, and leaving rows 2 and 5 untouched.
var pairTargetRows = [pairTargets]int{3, 0, 6, 1, 4}

// checkPairKernel runs the dispatched pair update (trainPair5) and its Go
// body (trainPair5Go) on copies of vi and out and requires every element of
// both to match at Float64bits.
func checkPairKernel(t *testing.T, vi, out []float64, lr float64) {
	t.Helper()
	gotVi, gotOut := slices.Clone(vi), slices.Clone(out)
	wantVi, wantOut := slices.Clone(vi), slices.Clone(out)
	trainPair5(gotVi, gotOut, &pairTargetRows, lr)
	trainPair5Go(wantVi, wantOut, &pairTargetRows, lr)
	for _, m := range []struct {
		name      string
		got, want []float64
	}{{"vi", gotVi, wantVi}, {"out", gotOut, wantOut}} {
		for i := range m.want {
			if math.Float64bits(m.got[i]) != math.Float64bits(m.want[i]) {
				t.Fatalf("dim %d, lr %v: %s[%d] = %v (%#x), Go body %v (%#x)\nvi %v\nout %v", len(vi), lr, m.name, i,
					m.got[i], math.Float64bits(m.got[i]), m.want[i], math.Float64bits(m.want[i]), vi, out)
			}
		}
	}
}

// pairSpecials are element values the pair tests mix in: signed zeros,
// subnormals, factors whose products overflow, the edges of σ's table and a
// few plain values.
var pairSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, 1e200, -1e200,
	6, -6, math.Nextafter(6, 0), math.Nextafter(-6, 0), 7, -7, 0.5, -0.25, 1,
}

// TestPairKernelSIMDMatchesPortable sets every target's dot to each of: below
// −6, exactly −6, just inside ±6, sums of −0 and of subnormal products, 6,
// above 6, ±Inf (an overflowing product) and NaN (+Inf plus −Inf); the other
// elements come from pairSpecials, and the learning rate is a plain one and
// one whose updates overflow. Widths 5 and 18 take the Go body on every path.
func TestPairKernelSIMDMatchesPortable(t *testing.T) {
	// vi starts (2, 1e200), so a target row starting (a, b) and ±0 after
	// that has the dot 2a + 1e200·b.
	dots := [][2]float64{
		{-3.5, 0},
		{-3, 0},
		{math.Nextafter(-3, 0), 0},
		{math.Copysign(0, -1), math.Copysign(0, -1)},
		{5e-324, -5e-324},
		{0.7, 1e-201},
		{math.Nextafter(3, 0), 0},
		{3, 0},
		{3.5, 0},
		{0, 1e200},
		{0, -1e200},
		{1.5e308, -1e200},
	}
	rng := rand.New(rand.NewSource(3))
	special := func() float64 { return pairSpecials[rng.Intn(len(pairSpecials))] }
	for _, dim := range []int{4, 5, 8, 16, 18, 64} {
		for k := range dots {
			for _, lr := range []float64{0.025, 1e300} {
				vi := make([]float64, dim)
				out := make([]float64, 7*dim)
				for i := range out {
					out[i] = special()
				}
				vi[0], vi[1] = 2, 1e200
				for i := 2; i < dim; i++ {
					vi[i] = special()
				}
				for s, row := range pairTargetRows {
					vo := out[row*dim : (row+1)*dim]
					vo[0], vo[1] = dots[(k+s)%len(dots)][0], dots[(k+s)%len(dots)][1]
					for i := 2; i < dim; i++ {
						vo[i] = math.Copysign(0, special())
					}
				}
				checkPairKernel(t, vi, out, lr)
			}
		}
	}
}

// FuzzPairKernel holds the dispatched pair update against its Go body on
// widths 4 to 64 in steps of 4 (every one the assembly's on an amd64 CPU
// with AVX2). Each element of vi and of the seven rows comes from two bytes
// of data, cycled: one of pairSpecials, or k/16 for k in [−128, 127], whose
// products sum exactly, so dots land on ±6 and on every table bin. A
// non-finite learning rate is replaced: the inputs stay finite, so every
// NaN either path makes is the same default NaN.
func FuzzPairKernel(f *testing.F) {
	f.Add(uint8(3), 0.025, []byte{1, 0, 2, 0, 200, 96, 15, 1})
	f.Add(uint8(0), 1e300, []byte{5, 0, 6, 0, 7, 9})
	f.Add(uint8(15), -0.5, []byte{16, 48, 16, 144, 8, 3, 9, 0, 11, 4})
	f.Fuzz(func(t *testing.T, width uint8, lr float64, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		if math.IsNaN(lr) || math.IsInf(lr, 0) {
			lr = 0.025
		}
		dim := 4 * (1 + int(width%16))
		next := 0
		value := func() float64 {
			b0, b1 := data[next%len(data)], data[(next+1)%len(data)]
			next += 2
			if int(b0) < len(pairSpecials) {
				return pairSpecials[b0]
			}
			return float64(int8(b1)) / 16
		}
		vi := make([]float64, dim)
		for i := range vi {
			vi[i] = value()
		}
		out := make([]float64, 7*dim)
		for i := range out {
			out[i] = value()
		}
		checkPairKernel(t, vi, out, lr)
	})
}

// TestSkipGramNonFiniteError trains with a learning rate whose updates
// overflow, on a width the assembly takes and one it leaves to Go: the
// embeddings go to ±Inf and NaN, σ(NaN) is 0 on both, and trainSkipGram
// reports the epoch instead of returning the matrix (or panicking, as an
// unchecked σ(NaN) table index did).
func TestSkipGramNonFiniteError(t *testing.T) {
	g := newChordedRing(24)
	walks, err := GenerateWalks(g, DefaultWalkConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []int{5, 16} {
		for _, workers := range []int{1, 2} {
			cfg := DefaultSkipGramConfig(dim)
			cfg.LR = 1e300
			vecs, err := TrainSkipGramParallel(g.NumNodes(), walks, cfg, rand.New(rand.NewSource(2)), workers)
			if err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("dim %d, %d workers: err %v, want a non-finite embedding error", dim, workers, err)
			}
			if vecs != nil {
				t.Fatalf("dim %d, %d workers: got a matrix with the error", dim, workers)
			}
		}
	}
	if _, err := TrainSkipGram(g.NumNodes(), walks, DefaultSkipGramConfig(16), rand.New(rand.NewSource(2))); err != nil {
		t.Fatalf("default LR: %v", err)
	}
}
