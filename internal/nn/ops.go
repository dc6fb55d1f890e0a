package nn

import (
	"fmt"
	"math"

	"deepod/internal/tensor"
)

// The ops below allocate their outputs and gradients from the tape's arena
// and accumulate backward contributions in place. Activations are vectors
// (one sample) or [B, d] matrices (one row per sample of a mini-batch shard);
// every op computes a row of a matrix exactly as it computes the same row
// alone, so a batched forward is bit-identical to the single-sample one.
// Where an output element receives several backward contributions (affine
// layers, convolutions, channel norm), the per-call contribution is summed
// locally in a fixed order before the single accumulation into the
// dependency's gradient — the bit-reproducibility contract of internal/core's
// training loop depends on it. Products are written float64(a*b) so no
// architecture fuses them into a multiply-add.

// grad returns n's gradient accumulator, or nil when no gradient flows into
// n (a constant, or any node of an eval tape).
func grad(n *Node) *tensor.Tensor {
	if n == nil || !n.requiresGrad {
		return nil
	}
	return n.Grad
}

// MatVec returns W·x for a matrix node W of shape [m, n] and a vector node x
// of size n. The result is a vector node of size m.
func (tp *Tape) MatVec(w, x *Node) *Node {
	out := tp.arena.New(w.Value.Shape[0])
	tensor.MatVecInto(out, w.Value, x.Value)
	return tp.node(out, func(n *Node) {
		tensor.AffineBatchBackward(grad(w), nil, grad(x), n.Grad, x.Value, w.Value)
	}, w, x)
}

// Affine returns x·Wᵀ + b in one fused node — the hot path of every linear
// layer and LSTM gate — for W [out, in], b [out] and x either a vector of
// size in (the result is a vector of size out) or a [B, in] matrix, one
// sample a row (the result is [B, out]). Row r of a batched result is
// bit-identical to the vector case on row r (tensor.AffineBatchInto). The
// backward is three matrix products: dW += dYᵀ·X, db += Σ_rows dY and
// dX += dY·W (tensor.AffineBatchBackward).
func (tp *Tape) Affine(w, b, x *Node) *Node {
	var out *tensor.Tensor
	if x.Value.Dims() == 1 {
		out = tp.arena.New(w.Value.Shape[0])
		tensor.MatVecAddInto(out, w.Value, x.Value, b.Value)
	} else {
		out = tp.arena.New(x.Value.Shape[0], w.Value.Shape[0])
		tensor.AffineBatchInto(out, x.Value, w.Value, b.Value)
	}
	return tp.node(out, func(n *Node) {
		tensor.AffineBatchBackward(grad(w), grad(b), grad(x), n.Grad, x.Value, w.Value)
	}, w, b, x)
}

// Add returns a + b element-wise (same shape).
func (tp *Tape) Add(a, b *Node) *Node {
	av, bv := a.Value, b.Value
	if !av.SameShape(bv) {
		panic(fmt.Sprintf("nn: Add shape mismatch %v vs %v", av.Shape, bv.Shape))
	}
	out := tp.arena.New(av.Shape...)
	for i := range out.Data {
		out.Data[i] = av.Data[i] + bv.Data[i]
	}
	return tp.node(out, func(n *Node) {
		accumulate(a, n.Grad)
		accumulate(b, n.Grad)
	}, a, b)
}

// Sub returns a - b element-wise.
func (tp *Tape) Sub(a, b *Node) *Node {
	av, bv := a.Value, b.Value
	if !av.SameShape(bv) {
		panic(fmt.Sprintf("nn: Sub shape mismatch %v vs %v", av.Shape, bv.Shape))
	}
	out := tp.arena.New(av.Shape...)
	for i := range out.Data {
		out.Data[i] = av.Data[i] - bv.Data[i]
	}
	return tp.node(out, func(n *Node) {
		accumulate(a, n.Grad)
		accumulateScaled(b, n.Grad, -1)
	}, a, b)
}

// Mul returns the element-wise product a ⊗ b (paper's gate products).
func (tp *Tape) Mul(a, b *Node) *Node {
	av, bv := a.Value, b.Value
	if !av.SameShape(bv) {
		panic(fmt.Sprintf("nn: Mul shape mismatch %v vs %v", av.Shape, bv.Shape))
	}
	out := tp.arena.New(av.Shape...)
	for i := range out.Data {
		out.Data[i] = av.Data[i] * bv.Data[i]
	}
	return tp.node(out, func(n *Node) {
		accumulateMul(a, n.Grad, b.Value)
		accumulateMul(b, n.Grad, a.Value)
	}, a, b)
}

// Scale returns s·a for a constant s.
func (tp *Tape) Scale(a *Node, s float64) *Node {
	out := tp.arena.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Data[i] = s * v
	}
	return tp.node(out, func(n *Node) {
		accumulateScaled(a, n.Grad, s)
	}, a)
}

// unary applies f element-wise; df receives (x, f(x)) and returns df/dx.
func (tp *Tape) unary(a *Node, f func(float64) float64, df func(x, y float64) float64) *Node {
	out := tp.arena.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Data[i] = f(v)
	}
	return tp.node(out, func(n *Node) {
		if !a.requiresGrad || a.Grad == nil {
			return
		}
		for i := range n.Grad.Data {
			a.Grad.Data[i] += float64(n.Grad.Data[i] * df(a.Value.Data[i], out.Data[i]))
		}
	}, a)
}

// ReLU applies max(0, x) element-wise (Formula 9).
func (tp *Tape) ReLU(a *Node) *Node {
	out := tp.arena.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		if v <= 0 { // math.Max(0, v), a NaN passing through, without the call
			v = 0
		}
		out.Data[i] = v
	}
	return tp.node(out, func(n *Node) {
		g := grad(a)
		if g == nil {
			return
		}
		for i, x := range a.Value.Data {
			if x > 0 {
				g.Data[i] += n.Grad.Data[i]
			}
		}
	}, a)
}

// Sigmoid applies σ(x) = 1/(1+e⁻ˣ) element-wise.
func (tp *Tape) Sigmoid(a *Node) *Node {
	return tp.unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(_, y float64) float64 { return y * (1 - y) })
}

// Tanh applies the hyperbolic tangent element-wise.
func (tp *Tape) Tanh(a *Node) *Node {
	return tp.unary(a, math.Tanh,
		func(_, y float64) float64 { return 1 - float64(y*y) })
}

// Abs applies |x| element-wise; the subgradient at 0 is 0.
func (tp *Tape) Abs(a *Node) *Node {
	return tp.unary(a, math.Abs, absGrad)
}

// absGrad is d|x|/dx with the subgradient 0 at 0.
func absGrad(x, _ float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Square applies x² element-wise.
func (tp *Tape) Square(a *Node) *Node {
	return tp.unary(a,
		func(x float64) float64 { return x * x },
		func(x, _ float64) float64 { return 2 * x })
}

// Sum reduces all elements to a scalar node.
func (tp *Tape) Sum(a *Node) *Node {
	out := tp.arena.New(1)
	out.Data[0] = a.Value.Sum()
	return tp.node(out, func(n *Node) {
		if !a.requiresGrad || a.Grad == nil {
			return
		}
		g := n.Grad.Data[0]
		for i := range a.Grad.Data {
			a.Grad.Data[i] += g
		}
	}, a)
}

// Mean reduces all elements to their arithmetic mean.
func (tp *Tape) Mean(a *Node) *Node {
	return tp.Scale(tp.Sum(a), 1/float64(a.Value.Size()))
}

// Sqrt applies √x to a scalar node; the gradient is clamped near zero to
// keep the auxiliary Euclidean loss (Algorithm 1, line 10) stable when the
// two codes coincide.
func (tp *Tape) Sqrt(a *Node) *Node {
	return tp.unary(a, math.Sqrt,
		func(_, y float64) float64 {
			if y < 1e-8 {
				y = 1e-8
			}
			return 0.5 / y
		})
}

// Concat concatenates vector nodes into one vector node. It implements the
// paper's concat(·) used throughout Section 4.
func (tp *Tape) Concat(parts ...*Node) *Node {
	n := 0
	for _, p := range parts {
		n += p.Value.Size()
	}
	out := tp.arena.New(n)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Value.Data)
		off += p.Value.Size()
	}
	return tp.node(out, func(n *Node) {
		off := 0
		for _, p := range parts {
			sz := p.Value.Size()
			if p.requiresGrad && p.Grad != nil {
				seg := n.Grad.Data[off : off+sz]
				for i, g := range seg {
					p.Grad.Data[i] += g
				}
			}
			off += sz
		}
	}, parts...)
}

// ConcatCols concatenates [B, dᵢ] matrix nodes side by side into one
// [B, Σdᵢ] node: row r is the concat(·) of the parts' rows r, the batched
// form of Concat.
func (tp *Tape) ConcatCols(parts ...*Node) *Node {
	if len(parts) == 1 {
		return parts[0]
	}
	rows, width := parts[0].Value.Shape[0], 0
	for _, p := range parts {
		if p.Value.Dims() != 2 || p.Value.Shape[0] != rows {
			panic(fmt.Sprintf("nn: ConcatCols wants [%d, d] matrices, got %v", rows, p.Value.Shape))
		}
		width += p.Value.Shape[1]
	}
	out := tp.arena.New(rows, width)
	off := 0
	for _, p := range parts {
		d := p.Value.Shape[1]
		for r := 0; r < rows; r++ {
			copy(out.Data[r*width+off:r*width+off+d], p.Value.Data[r*d:(r+1)*d])
		}
		off += d
	}
	return tp.node(out, func(n *Node) {
		off := 0
		for _, p := range parts {
			d := p.Value.Shape[1]
			if g := grad(p); g != nil {
				for r := 0; r < rows; r++ {
					gr := g.Data[r*d : (r+1)*d]
					for j, v := range n.Grad.Data[r*width+off : r*width+off+d] {
						gr[j] += v
					}
				}
			}
			off += d
		}
	}, parts...)
}

// StackRows stacks its parts on top of each other: vectors of size d (one
// row each) and [r, d] matrices (r rows each) become one [Σr, d] matrix —
// the paper's stacking of dense time-slot vectors into Dt, and the union of
// per-group results in the batched encoders.
func (tp *Tape) StackRows(rows ...*Node) *Node {
	if len(rows) == 0 {
		panic("nn: StackRows needs at least one row")
	}
	d := rows[0].Value.Shape[rows[0].Value.Dims()-1]
	n := 0
	for i, r := range rows {
		if r.Value.Dims() > 2 || r.Value.Shape[r.Value.Dims()-1] != d {
			panic(fmt.Sprintf("nn: StackRows ragged input: row 0 has width %d, part %d has shape %v", d, i, r.Value.Shape))
		}
		n += r.Value.Size() / d
	}
	out := tp.arena.New(n, d)
	off := 0
	for _, r := range rows {
		copy(out.Data[off:], r.Value.Data)
		off += r.Value.Size()
	}
	return tp.node(out, func(n *Node) {
		off := 0
		for _, r := range rows {
			sz := r.Value.Size()
			if g := grad(r); g != nil {
				for j, v := range n.Grad.Data[off : off+sz] {
					g.Data[j] += v
				}
			}
			off += sz
		}
	}, rows...)
}

// SliceRows returns rows [lo, hi) of a matrix node as a [hi−lo, c] node that
// shares a's values — the still-active prefix of a length-sorted batch.
func (tp *Tape) SliceRows(a *Node, lo, hi int) *Node {
	av := a.Value
	if av.Dims() != 2 || lo < 0 || hi > av.Shape[0] || lo >= hi {
		panic(fmt.Sprintf("nn: SliceRows [%d, %d) of %v", lo, hi, av.Shape))
	}
	c := av.Shape[1]
	out := tp.arena.FromSlice(av.Data[lo*c:hi*c], hi-lo, c)
	return tp.node(out, func(n *Node) {
		if g := grad(a); g != nil {
			for i, v := range n.Grad.Data {
				g.Data[lo*c+i] += v
			}
		}
	}, a)
}

// GatherRows returns the [len(idx), c] matrix whose row r is row idx[r] of
// the matrix node a. It is the batched embedding lookup (Formula 1's Wᵀ Oᵢ
// for a batch of one-hot codes) and the row permutation between a batch's
// orderings; the backward scatter-adds row r's gradient into row idx[r], r
// ascending. idx must not change until the tape is reset.
func (tp *Tape) GatherRows(a *Node, idx []int) *Node {
	av := a.Value
	if av.Dims() != 2 || len(idx) == 0 {
		panic(fmt.Sprintf("nn: GatherRows of %d rows from %v", len(idx), av.Shape))
	}
	rows, c := av.Shape[0], av.Shape[1]
	out := tp.arena.New(len(idx), c)
	for r, i := range idx {
		if i < 0 || i >= rows {
			panic(fmt.Sprintf("nn: GatherRows index %d out of range [0,%d)", i, rows))
		}
		copy(out.Data[r*c:(r+1)*c], av.Data[i*c:(i+1)*c])
	}
	return tp.node(out, func(n *Node) {
		g := grad(a)
		if g == nil {
			return
		}
		for r, i := range idx {
			dst := g.Data[i*c : (i+1)*c]
			for j, v := range n.Grad.Data[r*c : (r+1)*c] {
				dst[j] += v
			}
		}
	}, a)
}

// Reshape returns a node viewing a's value with a new shape.
func (tp *Tape) Reshape(a *Node, shape ...int) *Node {
	out := tp.arena.FromSlice(a.Value.Data, shape...)
	return tp.node(out, func(n *Node) {
		if !a.requiresGrad || a.Grad == nil {
			return
		}
		// Same element layout, different shape header: accumulate flat.
		for i, g := range n.Grad.Data {
			a.Grad.Data[i] += g
		}
	}, a)
}

// MeanCols averages an [r, c] matrix node over rows into a length-c vector
// node — the average pooling of Formula 10 — or, over a batch [N, r, c],
// each sample's r rows into row n of an [N, c] node.
func (tp *Tape) MeanCols(a *Node) *Node {
	av := a.Value
	var n, r, c int
	var out *tensor.Tensor
	switch av.Dims() {
	case 2:
		n, r, c = 1, av.Shape[0], av.Shape[1]
		out = tp.arena.New(c)
	case 3:
		n, r, c = av.Shape[0], av.Shape[1], av.Shape[2]
		out = tp.arena.New(n, c)
	default:
		panic(fmt.Sprintf("nn: MeanCols wants a matrix or a batch of them, got %v", av.Shape))
	}
	inv := 1.0 / float64(r)
	for s := 0; s < n; s++ {
		o := out.Data[s*c : (s+1)*c]
		for i := 0; i < r; i++ {
			for j, v := range av.Data[(s*r+i)*c : (s*r+i+1)*c] {
				o[j] += v
			}
		}
		for j := range o {
			o[j] *= inv
		}
	}
	return tp.node(out, func(nd *Node) {
		g := grad(a)
		if g == nil {
			return
		}
		for s := 0; s < n; s++ {
			gs := nd.Grad.Data[s*c : (s+1)*c]
			for i := 0; i < r; i++ {
				for j, v := range gs {
					g.Data[(s*r+i)*c+j] += float64(v * inv)
				}
			}
		}
	}, a)
}

// Row extracts row i of a matrix node W as a vector node, with a sparse
// scatter gradient into row i. This is the embedding lookup Dᵢ = Wᵀ Oᵢ of
// Formulas 1 and the time-slot embedding of Section 4.2: multiplying the
// transposed embedding matrix by a one-hot vector selects a row.
func (tp *Tape) Row(w *Node, i int) *Node {
	if w.Value.Dims() != 2 {
		panic(fmt.Sprintf("nn: Row wants a matrix, got %v", w.Value.Shape))
	}
	c := w.Value.Shape[1]
	out := tp.arena.New(c)
	copy(out.Data, w.Value.Data[i*c:(i+1)*c])
	return tp.node(out, func(n *Node) {
		if !w.requiresGrad || w.Grad == nil {
			return
		}
		seg := w.Grad.Data[i*c : (i+1)*c]
		for j, g := range n.Grad.Data {
			seg[j] += g
		}
	}, w)
}

// Conv2D cross-correlates input x [C,H,W] — or each sample of a batch
// [N,C,H,W] — with kernel k [OC,C,KH,KW].
func (tp *Tape) Conv2D(x, k *Node, padH, padW, strideH, strideW int) *Node {
	out := tensor.Conv2DInto(&tp.arena, x.Value, k.Value, padH, padW, strideH, strideW)
	return tp.node(out, func(n *Node) {
		// The scatter pattern gives each input/kernel element several
		// contributions; sum them in scratch first (samples in order), then
		// fold the scratch into the gradients once.
		gx, gk := tensor.Conv2DBackwardInto(&tp.arena, x.Value, k.Value, n.Grad, grad(x) != nil, padH, padW, strideH, strideW)
		accumulate(x, gx)
		accumulate(k, gk)
	}, x, k)
}

// ChannelNorm normalizes a [C,H,W] node — or each sample of a batch
// [N,C,H,W] — per channel over its spatial extent, then applies learnable
// per-channel scale gamma and shift beta.
//
// It plays the role of the paper's BatchNorm layers (Formulas 5–6 and the
// traffic CNN of §4.5), with per-sample statistics: each sample's channel is
// normalized over that sample's spatial positions, never over the batch
// (DESIGN.md §4.1), so a sample's output does not depend on which shard it
// trains in, and at evaluation time the same statistics are used, so train
// and eval behaviour agree.
func (tp *Tape) ChannelNorm(x, gamma, beta *Node, eps float64) *Node {
	xv := x.Value
	nd := xv.Dims()
	if nd != 3 && nd != 4 {
		panic(fmt.Sprintf("nn: ChannelNorm wants [C,H,W] or [N,C,H,W], got %v", xv.Shape))
	}
	c, m := xv.Shape[nd-3], xv.Shape[nd-2]*xv.Shape[nd-1]
	planes := xv.Size() / m // samples × channels
	out := tp.arena.New(xv.Shape...)
	stats := tp.arena.New(planes, 2) // per plane: mean, 1/√(variance+eps)
	for p := 0; p < planes; p++ {
		seg := xv.Data[p*m : (p+1)*m]
		var s float64
		for _, v := range seg {
			s += v
		}
		mean := s / float64(m)
		var vs float64
		for _, v := range seg {
			d := v - mean
			vs += float64(d * d)
		}
		is := 1 / math.Sqrt(vs/float64(m)+eps)
		stats.Data[2*p], stats.Data[2*p+1] = mean, is
		g, b := gamma.Value.Data[p%c], beta.Value.Data[p%c]
		o := out.Data[p*m : (p+1)*m][:len(seg)]
		for i, v := range seg {
			o[i] = float64(g*((v-mean)*is)) + b
		}
	}
	return tp.node(out, func(n *Node) {
		gg, bg, xg := grad(gamma), grad(beta), grad(x)
		for p := 0; p < planes; p++ {
			ci := p % c
			mean, is := stats.Data[2*p], stats.Data[2*p+1]
			seg := xv.Data[p*m : (p+1)*m]
			gOut := n.Grad.Data[p*m : (p+1)*m][:len(seg)]
			var sumG, sumGX float64
			for i, v := range seg {
				sumG += gOut[i]
				sumGX += float64(gOut[i] * ((v - mean) * is))
			}
			if gg != nil {
				gg.Data[ci] += sumGX
			}
			if bg != nil {
				bg.Data[ci] += sumG
			}
			if xg != nil {
				// Standard batch-norm input gradient, per channel:
				// dx = gamma*invStd/m * (m*g - sum(g) - xhat*sum(g*xhat))
				coef := gamma.Value.Data[ci] * is / float64(m)
				gx := xg.Data[p*m : (p+1)*m][:len(seg)]
				for i, v := range seg {
					gx[i] += float64(coef * (float64(float64(m)*gOut[i]) - sumG - float64(((v-mean)*is)*sumGX)))
				}
			}
		}
	}, x, gamma, beta)
}

// GlobalAvgPool reduces a [C,H,W] node to a length-C vector node by
// averaging each channel (the traffic CNN's final pooling layer), or a batch
// [N,C,H,W] to an [N, C] node.
func (tp *Tape) GlobalAvgPool(x *Node) *Node {
	xv := x.Value
	var out *tensor.Tensor
	switch xv.Dims() {
	case 3:
		out = tp.arena.New(xv.Shape[0])
	case 4:
		out = tp.arena.New(xv.Shape[0], xv.Shape[1])
	default:
		panic(fmt.Sprintf("nn: GlobalAvgPool wants [C,H,W] or [N,C,H,W], got %v", xv.Shape))
	}
	m := xv.Size() / out.Size()
	for p := range out.Data {
		var s float64
		for _, v := range xv.Data[p*m : (p+1)*m] {
			s += v
		}
		out.Data[p] = s / float64(m)
	}
	return tp.node(out, func(n *Node) {
		g := grad(x)
		if g == nil {
			return
		}
		inv := 1.0 / float64(m)
		for p, gp := range n.Grad.Data {
			gv := float64(gp * inv)
			seg := g.Data[p*m : (p+1)*m]
			for i := range seg {
				seg[i] += gv
			}
		}
	}, x)
}

// L2Distance returns the scalar Euclidean distance ‖a−b‖₂, the paper's
// auxiliaryloss between code and stcode (Algorithm 1, line 10).
func (tp *Tape) L2Distance(a, b *Node) *Node {
	return tp.Sqrt(tp.Sum(tp.Square(tp.Sub(a, b))))
}

// AbsError returns |a−b| summed to a scalar; for scalar predictions this is
// the per-sample MAE term (Algorithm 1, line 11).
func (tp *Tape) AbsError(a, b *Node) *Node {
	return tp.Sum(tp.Abs(tp.Sub(a, b)))
}

// rowPair checks that a and b are equal-shaped [B, d] matrices (or vectors,
// B = 1) and returns B and d.
func rowPair(op string, a, b *Node) (rows, d int) {
	av, bv := a.Value, b.Value
	if !av.SameShape(bv) || av.Dims() > 2 {
		panic(fmt.Sprintf("nn: %s shape mismatch %v vs %v", op, av.Shape, bv.Shape))
	}
	d = av.Shape[av.Dims()-1]
	return av.Size() / d, d
}

// RowL2Distance returns the vector of row-wise Euclidean distances
// ‖a_r − b_r‖₂ of two [B, d] nodes: L2Distance for every sample of a
// shard at once, with the same gradient clamp near zero.
func (tp *Tape) RowL2Distance(a, b *Node) *Node {
	rows, d := rowPair("RowL2Distance", a, b)
	out := tp.arena.New(rows)
	diff := tp.arena.New(rows, d)
	for r := range out.Data {
		var s float64
		for j := r * d; j < (r+1)*d; j++ {
			v := a.Value.Data[j] - b.Value.Data[j]
			diff.Data[j] = v
			s += float64(v * v)
		}
		out.Data[r] = math.Sqrt(s)
	}
	return tp.node(out, func(n *Node) {
		ga, gb := grad(a), grad(b)
		for r, y := range out.Data {
			coef := n.Grad.Data[r] * (0.5 / math.Max(y, 1e-8))
			for j := r * d; j < (r+1)*d; j++ {
				g := float64(coef * float64(2*diff.Data[j]))
				if ga != nil {
					ga.Data[j] += g
				}
				if gb != nil {
					gb.Data[j] -= g
				}
			}
		}
	}, a, b)
}

// RowAbsError returns the vector of row-wise absolute errors Σ_j |a_rj − b_rj|
// of two [B, d] nodes: AbsError for every sample of a shard at once.
func (tp *Tape) RowAbsError(a, b *Node) *Node {
	rows, d := rowPair("RowAbsError", a, b)
	out := tp.arena.New(rows)
	for r := range out.Data {
		var s float64
		for j := r * d; j < (r+1)*d; j++ {
			s += math.Abs(a.Value.Data[j] - b.Value.Data[j])
		}
		out.Data[r] = s
	}
	return tp.node(out, func(n *Node) {
		ga, gb := grad(a), grad(b)
		for r, gr := range n.Grad.Data {
			for j := r * d; j < (r+1)*d; j++ {
				g := float64(gr * absGrad(a.Value.Data[j]-b.Value.Data[j], 0))
				if ga != nil {
					ga.Data[j] += g
				}
				if gb != nil {
					gb.Data[j] -= g
				}
			}
		}
	}, a, b)
}
