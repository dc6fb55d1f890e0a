package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Batched kernels over [B×d] activation matrices, one sample a row: a
// micro-batch of B requests — or a training shard of B samples — runs one
// matrix product per layer. Every forward kernel keeps the per-output-element
// summation strictly sequential over the reduction axis, so row r of a
// batched result depends on row r alone and equals the same row run as a
// batch of one, bit for bit — the contract behind core.EstimateBatchFused's
// bitwise equality with the training forward (and therefore behind
// flight-recorder replay). Products are written float64(a*b): the explicit
// conversion forbids the compiler to fuse them into the following add, so no
// architecture rounds differently from another.

// affineBlock tiles AffineBatchInto: a tile of W rows stays cache-resident
// while a tile of batch rows streams against it.
const affineBlock = 32

// AffineBatchInto computes X·Wᵀ + b into dst for X [B, in], W [out, in] and
// b [out], broadcasting the bias over the batch — the forward of every fused
// linear layer. Every element of dst is its row's dot product with a row of
// W, summed over the in axis strictly in order from zero, plus the bias: row
// r depends on X_r alone. Two batch rows by two outputs (a last odd row by
// four outputs) run at a time, each in its own accumulator, so the add chains
// overlap and no element's summation order changes.
func AffineBatchInto(dst, x, w, b *Tensor) {
	if x.Dims() != 2 || w.Dims() != 2 {
		panic(fmt.Sprintf("tensor: AffineBatch wants matrices, got x %v w %v", x.Shape, w.Shape))
	}
	bsz, in := x.Shape[0], x.Shape[1]
	out := w.Shape[0]
	if w.Shape[1] != in || b.Size() != out {
		panic(fmt.Sprintf("tensor: AffineBatch size mismatch: X is %v, W is %v, b has %d", x.Shape, w.Shape, b.Size()))
	}
	if dst.Dims() != 2 || dst.Shape[0] != bsz || dst.Shape[1] != out {
		panic(fmt.Sprintf("tensor: AffineBatchInto dst %v, want [%d %d]", dst.Shape, bsz, out))
	}
	bd := b.Data[:out]
	for rr := 0; rr < bsz; rr += affineBlock {
		rEnd := min(rr+affineBlock, bsz)
		for ii := 0; ii < out; ii += affineBlock {
			dotRows(dst.Data[rr*out:rEnd*out], out, x.Data[rr*in:rEnd*in], rEnd-rr, in, w.Data, ii, min(ii+affineBlock, out), bd)
		}
	}
}

// AffineBatchBackward accumulates the gradients of Y = X·Wᵀ + b, the forward
// of AffineBatchInto, given dY: dW += dYᵀ·X, db += Σ_rows dY and dX += dY·W,
// for X [B, in] and dY [B, out]. Any of dw, db and dx may be nil. Each
// gradient element receives exactly one addition per call: its products are
// summed in a register in a fixed order (over the rows for dW and db, over
// the outputs for dX) and that sum is then added, so the result depends on B
// and the values alone — the determinism contract of internal/core's
// training loop.
func AffineBatchBackward(dw, db, dx, dy, x, w *Tensor) {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("tensor: AffineBatchBackward wants a matrix W, got %v", w.Shape))
	}
	out, in := w.Shape[0], w.Shape[1]
	if x.Dims() != 2 || dy.Dims() != 2 || x.Shape[1] != in || dy.Shape[1] != out || dy.Shape[0] != x.Shape[0] {
		panic(fmt.Sprintf("tensor: AffineBatchBackward shape mismatch: W is %v, X is %v, dY is %v", w.Shape, x.Shape, dy.Shape))
	}
	bsz := x.Shape[0]
	if (dw != nil && dw.Size() != out*in) || (db != nil && db.Size() != out) || (dx != nil && dx.Size() != bsz*in) {
		panic(fmt.Sprintf("tensor: AffineBatchBackward gradient shapes for W %v, B = %d", w.Shape, bsz))
	}
	if db != nil {
		for i := range db.Data[:out] {
			var s float64
			for r := 0; r < bsz; r++ {
				s += dy.Data[r*out+i]
			}
			db.Data[i] += s
		}
	}
	if dw == nil && dx == nil {
		return
	}
	sp := scratchPool.Get().(*[]float64)
	if need := max(out*in, bsz*(out+in)); cap(*sp) < need {
		*sp = make([]float64, need)
	}
	buf := *sp
	if dw != nil {
		dyT, xT := buf[:out*bsz], buf[out*bsz:(out+in)*bsz]
		transposeInto(dyT, dy.Data, bsz, out)
		transposeInto(xT, x.Data, bsz, in)
		dotRows(dw.Data, in, dyT, out, bsz, xT, 0, in, nil)
	}
	if dx != nil {
		wT := buf[:in*out]
		transposeInto(wT, w.Data, out, in)
		dotRows(dx.Data, in, dy.Data, bsz, out, wT, 0, in, nil)
	}
	scratchPool.Put(sp)
}

// AddMatMulNT computes dst += A·Btᵀ for A [m, k], Bt [n, k] and dst [m, n]:
// every dst element gains the dot product of a row of A and a row of Bt,
// summed over k ascending and then added once. It is AffineBatchBackward's
// dX = dY·W with Wᵀ supplied by a caller that reuses one transpose for
// many products (the LSTM's backward through time).
func AddMatMulNT(dst, a, bt *Tensor) {
	if a.Dims() != 2 || bt.Dims() != 2 || a.Shape[1] != bt.Shape[1] {
		panic(fmt.Sprintf("tensor: AddMatMulNT shape mismatch %v x %vᵀ", a.Shape, bt.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], bt.Shape[0]
	if dst.Size() != m*n {
		panic(fmt.Sprintf("tensor: AddMatMulNT dst %v, want [%d %d]", dst.Shape, m, n))
	}
	dotRows(dst.Data, n, a.Data, m, k, bt.Data, 0, n, nil)
}

// scratchPool recycles AffineBatchBackward's transpose buffers and the
// packed panels of the SIMD dotRows.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// transposeInto writes the [m, n] row-major matrix src into dst as [n, m],
// tiled so both sides stay cache-resident on large matrices.
func transposeInto(dst, src []float64, m, n int) {
	const tile = 32
	for ii := 0; ii < m; ii += tile {
		iEnd := min(ii+tile, m)
		for jj := 0; jj < n; jj += tile {
			jEnd := min(jj+tile, n)
			for i := ii; i < iEnd; i++ {
				row := src[i*n : (i+1)*n]
				for j := jj; j < jEnd; j++ {
					dst[j*m+i] = row[j]
				}
			}
		}
	}
}

// dotRowsGo is the portable dotRows (dot_amd64.go, dot_other.go): for
// every row i of A [m, k] and every row j ∈ [j0, j1) of Bt, the dot product
// s = Σ_p A[i][p]·Bt[j][p], summed over p ascending from zero. With bias nil
// it adds s to c[i*ldc+j]; otherwise it stores s + bias[j] there. Two rows by
// two columns run at a time — four add chains sharing every load; more
// accumulators than that spill registers — and a last odd row runs four
// columns at a time. Products are float64(a*b), never fused.
func dotRowsGo(c []float64, ldc int, a []float64, m, k int, bt []float64, j0, j1 int, bias []float64) {
	put := func(i, j int, s float64) {
		if bias == nil {
			c[i*ldc+j] += s
		} else {
			c[i*ldc+j] = s + bias[j]
		}
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : (i+1)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k : (i+2)*k][:len(a0)]
		j := j0
		for ; j+2 <= j1; j += 2 {
			b0 := bt[j*k : (j+1)*k : (j+1)*k][:len(a0)]
			b1 := bt[(j+1)*k : (j+2)*k : (j+2)*k][:len(a0)]
			var s00, s01, s10, s11 float64
			for p, x0 := range a0 {
				x1, y0, y1 := a1[p], b0[p], b1[p]
				s00 += float64(x0 * y0)
				s01 += float64(x0 * y1)
				s10 += float64(x1 * y0)
				s11 += float64(x1 * y1)
			}
			put(i, j, s00)
			put(i, j+1, s01)
			put(i+1, j, s10)
			put(i+1, j+1, s11)
		}
		if j < j1 {
			b0 := bt[j*k : (j+1)*k : (j+1)*k][:len(a0)]
			var s0, s1 float64
			for p, x0 := range a0 {
				s0 += float64(x0 * b0[p])
				s1 += float64(a1[p] * b0[p])
			}
			put(i, j, s0)
			put(i+1, j, s1)
		}
	}
	if i < m {
		a0 := a[i*k : (i+1)*k : (i+1)*k]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := bt[j*k : (j+1)*k : (j+1)*k][:len(a0)]
			b1 := bt[(j+1)*k : (j+2)*k : (j+2)*k][:len(a0)]
			b2 := bt[(j+2)*k : (j+3)*k : (j+3)*k][:len(a0)]
			b3 := bt[(j+3)*k : (j+4)*k : (j+4)*k][:len(a0)]
			var s0, s1, s2, s3 float64
			for p, x0 := range a0 {
				s0 += float64(x0 * b0[p])
				s1 += float64(x0 * b1[p])
				s2 += float64(x0 * b2[p])
				s3 += float64(x0 * b3[p])
			}
			put(i, j, s0)
			put(i, j+1, s1)
			put(i, j+2, s2)
			put(i, j+3, s3)
		}
		for ; j < j1; j++ {
			b0 := bt[j*k : (j+1)*k : (j+1)*k][:len(a0)]
			var s float64
			for p, x0 := range a0 {
				s += float64(x0 * b0[p])
			}
			put(i, j, s)
		}
	}
}

// ReLUInPlace applies max(0, x) element-wise in place — the activation
// between fused affine layers. math.Max matches the tape ReLU exactly
// (including its NaN and signed-zero behaviour).
func ReLUInPlace(t *Tensor) {
	for i, v := range t.Data {
		t.Data[i] = math.Max(0, v)
	}
}
