package tensor

import (
	"fmt"
	"math"
)

// Batched serving kernels: matrix-matrix products over [B×d] activation
// matrices, so a micro-batch of B requests runs one GEMM per layer instead
// of B MatVec passes. Every kernel keeps the per-output-element summation
// strictly sequential over the reduction axis, so row r of a batched result
// is bit-identical to the per-sample kernel applied to row r alone — the
// contract behind core.EstimateBatchFused's bitwise equality with the
// per-sample path (and therefore behind flight-recorder replay).

// MatMulInto computes A·B into dst for A [m, k], B [k, n] and dst [m, n]
// without allocating beyond the Bᵀ scratch handed in by the caller via bt
// (len ≥ k·n; pass nil to allocate one). Blocked like MatMul; the inner
// reduction over k is strictly sequential, so each dst element equals the
// plain dot product bit for bit.
func MatMulInto(dst, a, b *Tensor, bt []float64) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	if bt == nil {
		bt = make([]float64, k*n)
	} else if len(bt) < k*n {
		panic(fmt.Sprintf("tensor: MatMulInto scratch has %d floats, want >= %d", len(bt), k*n))
	}
	bt = bt[:k*n]
	transposeInto(bt, b.Data, k, n)
	for ii := 0; ii < m; ii += matMulBlock {
		iEnd := min(ii+matMulBlock, m)
		for jj := 0; jj < n; jj += matMulBlock {
			jEnd := min(jj+matMulBlock, n)
			for i := ii; i < iEnd; i++ {
				arow := a.Data[i*k : (i+1)*k : (i+1)*k]
				orow := dst.Data[i*n : (i+1)*n : (i+1)*n]
				for j := jj; j < jEnd; j++ {
					bcol := bt[j*k : (j+1)*k : (j+1)*k]
					var s float64
					for p, av := range arow {
						s += av * bcol[p]
					}
					orow[j] = s
				}
			}
		}
	}
}

// affineBlock tiles AffineBatchInto: a tile of W rows stays cache-resident
// while a tile of batch rows streams against it.
const affineBlock = 32

// AffineBatchInto computes X·Wᵀ + b into dst for X [B, in], W [out, in] and
// b [out], broadcasting the bias over the batch — the batched form of
// MatVecAddInto behind every fused linear layer. Row r of dst is bit-
// identical to MatVecAddInto(dst_r, W, X_r, b): the reduction over the in
// axis is strictly sequential per output element. As there, four outputs run
// at a time, each in its own accumulator, so four add chains overlap and no
// element's summation order changes.
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
			iEnd := min(ii+affineBlock, out)
			for r := rr; r < rEnd; r++ {
				xr := x.Data[r*in : (r+1)*in : (r+1)*in]
				orow := dst.Data[r*out : (r+1)*out : (r+1)*out]
				i := ii
				for ; i+4 <= iEnd; i += 4 {
					rows := w.Data[i*in : (i+4)*in]
					w0, w1, w2, w3 := rows[:len(xr)], rows[in:][:len(xr)], rows[2*in:][:len(xr)], rows[3*in:][:len(xr)]
					var s0, s1, s2, s3 float64
					for j, xv := range xr {
						s0 += w0[j] * xv
						s1 += w1[j] * xv
						s2 += w2[j] * xv
						s3 += w3[j] * xv
					}
					orow[i], orow[i+1], orow[i+2], orow[i+3] = s0+bd[i], s1+bd[i+1], s2+bd[i+2], s3+bd[i+3]
				}
				for ; i < iEnd; i++ {
					wrow := w.Data[i*in : (i+1)*in : (i+1)*in]
					var s float64
					for j, v := range wrow {
						s += v * xr[j]
					}
					orow[i] = s + bd[i]
				}
			}
		}
	}
}

// ReLUInPlace applies max(0, x) element-wise in place — the batched
// activation between fused affine layers. math.Max matches the per-sample
// tape ReLU exactly (including its NaN and signed-zero behaviour).
func ReLUInPlace(t *Tensor) {
	for i, v := range t.Data {
		t.Data[i] = math.Max(0, v)
	}
}
