package nn

import (
	"fmt"
	"math/rand"

	"deepod/internal/tensor"
)

// Linear is a fully connected layer y = W x + b with W ∈ R^{out×in}, applied
// to every row of a batch.
type Linear struct {
	W, B *Param
	In   int
	Out  int
}

// NewLinear registers a Xavier-initialized linear layer under prefix.
func NewLinear(ps *ParamSet, rng *rand.Rand, prefix string, in, out int) *Linear {
	return &Linear{
		W:   ps.NewXavier(prefix+".W", rng, out, in),
		B:   ps.New(prefix+".b", out),
		In:  in,
		Out: out,
	}
}

// Forward applies the layer to every row of a [B, In] matrix node.
func (l *Linear) Forward(tp *Tape, x *Node) *Node {
	xv := x.Value
	if xv.Dims() != 2 || xv.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear %q expects [B, %d] inputs, got shape %v", l.W.Name, l.In, xv.Shape))
	}
	return tp.Affine(tp.Leaf(l.W), tp.Leaf(l.B), x)
}

// MLP2 is the paper's two-layer Multilayer Perceptron
// y = W² ReLU(W¹ x + b¹) + b², the building block behind Formulas 11, 17,
// 18, 19 and 20.
type MLP2 struct {
	L1, L2 *Linear
}

// NewMLP2 registers a two-layer MLP mapping in → hidden → out.
func NewMLP2(ps *ParamSet, rng *rand.Rand, prefix string, in, hidden, out int) *MLP2 {
	return &MLP2{
		L1: NewLinear(ps, rng, prefix+".l1", in, hidden),
		L2: NewLinear(ps, rng, prefix+".l2", hidden, out),
	}
}

// Forward applies both layers with a ReLU in between to every row of a
// [B, in] matrix node.
func (m *MLP2) Forward(tp *Tape, x *Node) *Node {
	return m.L2.Forward(tp, tp.ReLU(m.L1.Forward(tp, x)))
}

// ForwardBatch applies the MLP to a [B, in] matrix of raw values using the
// batched serving kernels, carving both activations out of ar. No tape, no
// gradients — inference only. The result is bit-identical to Forward on the
// same rows: both run AffineBatchInto, and ReLUInPlace matches the tape ReLU
// exactly.
func (m *MLP2) ForwardBatch(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[1] != m.L1.In {
		panic(fmt.Sprintf("nn: MLP %q ForwardBatch expects [B, %d], got %v", m.L1.W.Name, m.L1.In, x.Shape))
	}
	h := ar.New(x.Shape[0], m.L1.Out)
	tensor.AffineBatchInto(h, x, m.L1.W.Value, m.L1.B.Value)
	tensor.ReLUInPlace(h)
	y := ar.New(x.Shape[0], m.L2.Out)
	tensor.AffineBatchInto(y, h, m.L2.W.Value, m.L2.B.Value)
	return y
}

// Embedding is a learnable lookup table W ∈ R^{V×d} (Formula 1: one-hot
// codes times the embedding matrix select rows). The matrix can be
// initialized from a pre-trained graph embedding (node2vec over the road
// line graph or the temporal graph) and is fine-tuned by backpropagation.
type Embedding struct {
	W   *Param
	V   int
	Dim int
}

// NewEmbedding registers an embedding table initialized from N(0, 0.1²).
func NewEmbedding(ps *ParamSet, rng *rand.Rand, name string, vocab, dim int) *Embedding {
	return &Embedding{W: ps.NewNormal(name, rng, 0.1, vocab, dim), V: vocab, Dim: dim}
}

// Init overwrites the table with pre-trained vectors (Algorithm 1, lines
// 1–4). vectors must have shape [V, dim].
func (e *Embedding) Init(vectors *tensor.Tensor) error {
	if !vectors.SameShape(e.W.Value) {
		return fmt.Errorf("nn: embedding init shape %v != table shape %v", vectors.Shape, e.W.Value.Shape)
	}
	copy(e.W.Value.Data, vectors.Data)
	return nil
}

// LookupRows returns the embedding rows of ids as one [len(ids), Dim] node,
// row r being the row of ids[r] (the embedding lookup Dᵢ = Wᵀ Oᵢ of Formula 1
// and the time-slot embedding of Section 4.2): a batch's lookups as one
// gather, whose backward scatter-adds into the looked-up rows only. ids must
// not change until the tape is reset.
func (e *Embedding) LookupRows(tp *Tape, ids []int) *Node {
	for _, id := range ids {
		e.check(id)
	}
	return tp.GatherRows(tp.Leaf(e.W), ids)
}

// check panics on an id outside the vocabulary.
func (e *Embedding) check(id int) {
	if id < 0 || id >= e.V {
		panic(fmt.Sprintf("nn: embedding %q id %d out of range [0,%d)", e.W.Name, id, e.V))
	}
}

// Conv2DLayer is a convolution with an optional channel-norm + ReLU block,
// i.e. the Conv2d → BatchNorm2d → ReLU unit of the paper's CNN models.
type Conv2DLayer struct {
	K           *Param
	Gamma, Beta *Param // nil when Norm is false
	Norm, Act   bool
	PadH, PadW  int
	StrH, StrW  int
	OutC, InC   int
	KH, KW      int
}

// NewConv2DLayer registers a conv layer. norm adds channel normalization
// (BatchNorm with per-sample statistics, see Tape.ChannelNorm); act adds a
// trailing ReLU.
func NewConv2DLayer(ps *ParamSet, rng *rand.Rand, prefix string, inC, outC, kh, kw, padH, padW, strH, strW int, norm, act bool) *Conv2DLayer {
	l := &Conv2DLayer{
		K:    ps.NewXavier(prefix+".K", rng, outC, inC, kh, kw),
		Norm: norm, Act: act,
		PadH: padH, PadW: padW, StrH: strH, StrW: strW,
		OutC: outC, InC: inC, KH: kh, KW: kw,
	}
	if norm {
		l.Gamma = ps.New(prefix+".gamma", outC)
		l.Gamma.Value.Fill(1)
		l.Beta = ps.New(prefix+".beta", outC)
	}
	return l
}

// Forward applies conv (+ norm + ReLU) to every sample of an [N,C,H,W]
// node.
func (l *Conv2DLayer) Forward(tp *Tape, x *Node) *Node {
	y := tp.Conv2D(x, tp.Leaf(l.K), l.PadH, l.PadW, l.StrH, l.StrW)
	if l.Norm {
		y = tp.ChannelNorm(y, tp.Leaf(l.Gamma), tp.Leaf(l.Beta), 1e-5)
	}
	if l.Act {
		y = tp.ReLU(y)
	}
	return y
}
