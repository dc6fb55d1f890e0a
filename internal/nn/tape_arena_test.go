package nn

import (
	"math/rand"
	"testing"

	"deepod/internal/tensor"
)

// TestAffineMatchesComposition pins the fused bias of the affine op to the
// composition of an unbiased product and a separate Add of the bias row:
// identical forward values and identical parameter gradients, bit for bit.
// The data-parallel determinism contract depends on fused kernels never
// reordering floating-point accumulation.
func TestAffineMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := NewParamSet()
	w := ps.NewXavier("w", rng, 5, 7)
	b := ps.NewNormal("b", rng, 0.1, 5)
	x := randRows(rng, 1, 7)

	ps.ZeroGrad()
	tp := NewTape()
	yFused := tp.Affine(tp.Leaf(w), tp.Leaf(b), tp.Const(x))
	tp.Backward(tp.Sum(yFused))
	fusedW := append([]float64(nil), w.Grad.Data...)
	fusedB := append([]float64(nil), b.Grad.Data...)

	ps.ZeroGrad()
	tp2 := NewTape()
	unbiased := tp2.Affine(tp2.Leaf(w), tp2.Const(tp2.Alloc(5)), tp2.Const(x))
	yComp := tp2.Add(unbiased, tp2.Reshape(tp2.Leaf(b), 1, 5))
	tp2.Backward(tp2.Sum(yComp))

	for i := range yComp.Value.Data {
		if yFused.Value.Data[i] != yComp.Value.Data[i] {
			t.Fatalf("forward[%d]: fused %v != composed %v", i, yFused.Value.Data[i], yComp.Value.Data[i])
		}
	}
	for i := range fusedW {
		if fusedW[i] != w.Grad.Data[i] {
			t.Fatalf("dW[%d]: fused %v != composed %v", i, fusedW[i], w.Grad.Data[i])
		}
	}
	for i := range fusedB {
		if fusedB[i] != b.Grad.Data[i] {
			t.Fatalf("db[%d]: fused %v != composed %v", i, fusedB[i], b.Grad.Data[i])
		}
	}
}

// TestGradBufferRoutesAndReduces checks the two halves of the data-parallel
// gradient path: a tape with Grads set must leave the shared Param.Grad
// untouched, and reducing the buffer afterwards must reproduce the direct
// accumulation bit for bit.
func TestGradBufferRoutesAndReduces(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := NewParamSet()
	lin := NewLinear(ps, rng, "lin", 6, 4)
	x := randRows(rng, 1, 6)

	// Reference: direct accumulation into Param.Grad.
	ps.ZeroGrad()
	tp := NewTape()
	tp.Backward(weighted(tp, lin.Forward(tp, tp.Const(x))))
	wantW := append([]float64(nil), lin.W.Grad.Data...)
	wantB := append([]float64(nil), lin.B.Grad.Data...)

	// Buffered: gradients land in the private buffer only.
	ps.ZeroGrad()
	gb := ps.NewGradBuffer()
	tpb := NewTape()
	tpb.Grads = gb
	tpb.Backward(weighted(tpb, lin.Forward(tpb, tpb.Const(x))))
	for _, p := range ps.All() {
		for i, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("param %q grad[%d] = %v; buffered tape must not touch shared grads", p.Name, i, g)
			}
		}
	}

	gb.AccumulateInto(ps)
	for i := range wantW {
		if lin.W.Grad.Data[i] != wantW[i] {
			t.Fatalf("reduced dW[%d] = %v, want %v", i, lin.W.Grad.Data[i], wantW[i])
		}
	}
	for i := range wantB {
		if lin.B.Grad.Data[i] != wantB[i] {
			t.Fatalf("reduced db[%d] = %v, want %v", i, lin.B.Grad.Data[i], wantB[i])
		}
	}

	gb.Zero()
	for _, g := range gb.grads {
		for i, v := range g.Data {
			if v != 0 {
				t.Fatalf("Zero left grads[%d] = %v", i, v)
			}
		}
	}
}

// TestTapeReuseMatchesFresh runs the same model on one tape reused via Reset
// and on fresh tapes, checking losses and gradients agree exactly. This is
// the training loop's allocation-saving pattern.
func TestTapeReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "mlp", 5, 8, 1)
	inputs := make([]*tensor.Tensor, 4)
	for i := range inputs {
		inputs[i] = randRows(rng, 1, 5)
	}

	run := func(tp *Tape, x *tensor.Tensor) float64 {
		loss := weighted(tp, mlp.Forward(tp, tp.Const(x)))
		tp.Backward(loss)
		return loss.Value.Data[0]
	}

	reused := NewTape()
	var lossesReused []float64
	var gradsReused [][]float64
	for _, x := range inputs {
		ps.ZeroGrad()
		reused.Reset()
		lossesReused = append(lossesReused, run(reused, x))
		for _, p := range ps.All() {
			gradsReused = append(gradsReused, append([]float64(nil), p.Grad.Data...))
		}
	}

	gi := 0
	for si, x := range inputs {
		ps.ZeroGrad()
		loss := run(NewTape(), x)
		if loss != lossesReused[si] {
			t.Fatalf("sample %d: reused-tape loss %v != fresh-tape loss %v", si, lossesReused[si], loss)
		}
		for _, p := range ps.All() {
			for i, g := range p.Grad.Data {
				if gradsReused[gi][i] != g {
					t.Fatalf("sample %d param %q grad[%d]: reused %v != fresh %v", si, p.Name, i, gradsReused[gi][i], g)
				}
			}
			gi++
		}
	}
}

// TestTapeAllocAndConstVec covers the arena-backed inputs: a constant
// vector is a one-row Alloc wrapped by Const.
func TestTapeAllocAndConstVec(t *testing.T) {
	tp := NewTape()
	v := tp.Alloc(3, 2)
	for i, x := range v.Data {
		if x != 0 {
			t.Fatalf("Alloc[%d] = %v, want 0", i, x)
		}
	}
	r := tp.Alloc(1, 3)
	copy(r.Data, []float64{1.5, -2, 0.25})
	n := tp.Const(r)
	if n.requiresGrad || n.Grad != nil {
		t.Fatal("a Const node must not require grad")
	}
	for i, want := range []float64{1.5, -2, 0.25} {
		if n.Value.Data[i] != want {
			t.Fatalf("Const[%d] = %v, want %v", i, n.Value.Data[i], want)
		}
	}
	if tp.Len() != 0 {
		t.Fatalf("const-only tape recorded %d nodes, want 0", tp.Len())
	}
}
