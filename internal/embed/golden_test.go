package embed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// bitsChecksum is FNV-1a over the raw float bits of data, in order.
func bitsChecksum(data []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSkipGramGoldenBits pins walks and embeddings to values recorded on
// commit e0f4d6c (PR 17), before the guided negative sampler, the pair-update
// kernel and the allocation-free sampleNext existed: the same rng draws in
// the same order, and the same arithmetic in the same order, or this fails.
// The literals were recorded on amd64 and the test runs on every
// architecture: every product in the kernels is written float64(a*b), which
// forbids the compiler to fuse it into a multiply-add (scripts/fma.sh
// cross-compiles arm64, ppc64le, s390x and riscv64 and fails on any fused
// op).
func TestSkipGramGoldenBits(t *testing.T) {
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: checksum %#x, want %#x", name, got, want)
		}
	}
	for _, tc := range []struct {
		name   string
		method Method
		g      Graph
		want   uint64
	}{
		// One out-link a node: node2vec and DeepWalk walk the same ring.
		{"node2vec/ring", Node2Vec, newRing(24), 0x18bcd99e288edbc4},
		{"deepwalk/ring", DeepWalk, newRing(24), 0x18bcd99e288edbc4},
		{"line/ring", LINE, newRing(24), 0x6cbb27dc09db9231},
		{"node2vec/chorded", Node2Vec, newChordedRing(24), 0xeeb1c5d46c461507},
		{"deepwalk/chorded", DeepWalk, newChordedRing(24), 0x4e695fc9cf159c5e},
	} {
		vecs, err := Embed(tc.g, tc.method, 16, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name, bitsChecksum(vecs.Data), tc.want)
	}

	g := newChordedRing(24)
	rng := rand.New(rand.NewSource(7))
	walks, err := GenerateWalksParallel(g, DefaultWalkConfig(), rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, w := range walks {
		for _, n := range w {
			flat = append(flat, float64(n))
		}
	}
	check("walks/2 workers", bitsChecksum(flat), 0xcc76a6db879945c9)
	vecs, err := TrainSkipGramParallel(g.NumNodes(), walks, DefaultSkipGramConfig(16), rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("skipgram/2 workers", bitsChecksum(vecs.Data), 0x7924528d034ab17d)
}
