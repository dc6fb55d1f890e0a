package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"deepod/internal/nn"
)

// weightsChecksum is FNV-1a over every parameter's name and raw float bits,
// in registration order.
func weightsChecksum(ps *nn.ParamSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps.All() {
		h.Write([]byte(p.Name))
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestDeepBaselineGoldenBits pins ST-NN and MURAT training to values: the
// bits of the first test-split predictions, of one element of several named
// weights and a checksum of every weight after two epochs. A change to the
// tape ops either baseline is built from that moves one bit of a forward, a
// gradient or an Adam step fails here.
func TestDeepBaselineGoldenBits(t *testing.T) {
	g, split := world(t, 300)

	s := NewSTNN(g)
	s.Epochs = 2
	if err := s.Train(split.Train, split.Valid); err != nil {
		t.Fatal(err)
	}
	mu := NewMURAT(g)
	mu.Epochs = 2
	mu.EmbedWalks = 2
	if err := mu.Train(split.Train, split.Valid); err != nil {
		t.Fatal(err)
	}

	type weight struct {
		p    *nn.Param
		name string
		at   int
		want uint64
	}
	cases := []struct {
		est     Estimator
		ps      *nn.ParamSet
		preds   []uint64
		weights []weight
		sum     uint64
	}{
		{
			est:   s,
			ps:    s.ps,
			preds: []uint64{0x406b3c5962e5d191, 0x40652d21cb11422b, 0x4065d686de138789, 0x40624688952016a5},
			weights: []weight{
				{s.distMLP.L1.W, "stnn.dist.l1.W", 5, 0xbfcef069a41c826d},
				{s.distMLP.L2.B, "stnn.dist.l2.b", 0, 0x3fb2c9e8afa5d289},
				{s.timeMLP.L1.W, "stnn.time.l1.W", 7, 0xbf816233d1e51688},
				{s.timeMLP.L2.W, "stnn.time.l2.W", 3, 0xbfcf52a4f85d3853},
			},
			sum: 0xf8aebfe745a32110,
		},
		{
			est:   mu,
			ps:    mu.ps,
			preds: []uint64{0x40644d3a5f23cd0b, 0x4065fd84bad8f793, 0x405a5e3f4312466b, 0x405a7cf17d29f6ca},
			weights: []weight{
				{mu.roadEmb.W, "murat.Ws", 11, 0x3fd566be0fabc500},
				{mu.slotEmb.W, "murat.Wt", 13, 0x3fd80991ca970505},
				{mu.inProj.W, "murat.in.W", 17, 0x3fb1c3ddfab73b9e},
				{mu.resB[1].B, "murat.res1.b.b", 2, 0xbf8c5b02ec0628ca},
				{mu.timeHead.W, "murat.time.W", 4, 0x3fd18781099c2d74},
				{mu.distHead.B, "murat.dist.b", 0, 0x3f99c938e2e6a426},
			},
			sum: 0xab0908daa126b861,
		},
	}
	for _, c := range cases {
		name := c.est.Name()
		for i, want := range c.preds {
			if got := math.Float64bits(c.est.Estimate(&split.Test[i].Matched)); got != want {
				t.Errorf("%s test prediction %d bits %#x, want %#x", name, i, got, want)
			}
		}
		for _, w := range c.weights {
			if w.p.Name != w.name {
				t.Fatalf("%s parameter %q, want %q", name, w.p.Name, w.name)
			}
			if got := math.Float64bits(w.p.Value.Data[w.at]); got != w.want {
				t.Errorf("%s %s[%d] bits %#x, want %#x", name, w.name, w.at, got, w.want)
			}
		}
		if got := weightsChecksum(c.ps); got != c.sum {
			t.Errorf("%s weights checksum %#x, want %#x", name, got, c.sum)
		}
	}
}
