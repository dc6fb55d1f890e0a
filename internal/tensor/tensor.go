// Package tensor implements dense float64 tensors and the linear-algebra
// kernels the neural-network substrate is built on. Tensors are row-major;
// a matrix of shape [r, c] stores element (i, j) at Data[i*c+j].
//
// The package is deliberately small: it contains exactly the operations the
// DeepOD model (SIGMOD 2020) needs — matrix products, broadcast adds,
// element-wise maps, reductions, concatenation, and the 2-D convolution
// kernels used by the time-interval ResNet encoder and the traffic-condition
// CNN. Shape errors are programming errors and panic with explicit messages.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, t.Size(), len(data)))
	}
	return t
}

// Vector returns a 1-D tensor copying vals.
func Vector(vals ...float64) *Tensor {
	return FromSlice(append([]float64(nil), vals...), len(vals))
}

// Scalar returns a 1-element tensor holding v.
func Scalar(v float64) *Tensor { return FromSlice([]float64{v}, 1) }

// Size returns the number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of axes.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return v
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace accumulates o into t element-wise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// AddScaledInPlace accumulates s·o into t element-wise without allocating
// (the backward fast path of Sub/Scale nodes).
func (t *Tensor) AddScaledInPlace(o *Tensor, s float64) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaledInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += float64(s * v)
	}
}

// AddMulInPlace accumulates a ⊗ b into t element-wise without allocating
// (the backward fast path of Hadamard-product nodes).
func (t *Tensor) AddMulInPlace(a, b *Tensor) {
	if !t.SameShape(a) || !t.SameShape(b) {
		panic(fmt.Sprintf("tensor: AddMulInPlace shape mismatch %v vs %v vs %v", t.Shape, a.Shape, b.Shape))
	}
	for i := range t.Data {
		t.Data[i] += float64(a.Data[i] * b.Data[i])
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Add returns t + o element-wise.
func Add(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = s * a.Data[i]
	}
	return out
}

// Map applies f element-wise and returns a new tensor.
func Map(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// MatVec returns the matrix-vector product W x for W of shape [m, n] and x
// of shape [n] (or [n, 1]); the result has shape [m].
func MatVec(w, x *Tensor) *Tensor {
	m := w.Shape[0]
	out := New(m)
	MatVecInto(out, w, x)
	return out
}

// MatVecInto computes W x into dst without allocating. The summation order
// per output element is strictly sequential over columns, so results are
// bit-identical to the historical per-element loop (the deterministic-
// training contract of internal/core depends on this).
func MatVecInto(dst, w, x *Tensor) {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVec wants a matrix, got shape %v", w.Shape))
	}
	m, n := w.Shape[0], w.Shape[1]
	if x.Size() != n {
		panic(fmt.Sprintf("tensor: MatVec size mismatch: W is %v, x has %d elements", w.Shape, x.Size()))
	}
	if dst.Size() != m {
		panic(fmt.Sprintf("tensor: MatVecInto dst has %d elements, want %d", dst.Size(), m))
	}
	xd := x.Data[:n]
	for i := 0; i < m; i++ {
		row := w.Data[i*n : (i+1)*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += float64(v * xd[j])
		}
		dst.Data[i] = s
	}
}

// MatVecAdd returns W x + b — the fused affine kernel behind every linear
// layer and LSTM gate (one pass, one output, no intermediate W x tensor).
func MatVecAdd(w, x, b *Tensor) *Tensor {
	m := w.Shape[0]
	out := New(m)
	MatVecAddInto(out, w, x, b)
	return out
}

// MatVecAddInto computes W x + b into dst without allocating. Each output
// element is the sequential column sum plus b[i], exactly matching the
// unfused MatVec-then-Add composition bit for bit. Four rows run at a time,
// each in its own accumulator: one row's add chain waits on itself, four
// independent ones overlap, and no row's summation order changes.
func MatVecAddInto(dst, w, x, b *Tensor) {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVecAdd wants a matrix, got shape %v", w.Shape))
	}
	m, n := w.Shape[0], w.Shape[1]
	if x.Size() != n || b.Size() != m {
		panic(fmt.Sprintf("tensor: MatVecAdd size mismatch: W is %v, x has %d, b has %d", w.Shape, x.Size(), b.Size()))
	}
	if dst.Size() != m {
		panic(fmt.Sprintf("tensor: MatVecAddInto dst has %d elements, want %d", dst.Size(), m))
	}
	xd, bd, dd := x.Data[:n], b.Data[:m], dst.Data[:m]
	i := 0
	for ; i+4 <= m; i += 4 {
		rows := w.Data[i*n : (i+4)*n]
		r0, r1, r2, r3 := rows[:len(xd)], rows[n:][:len(xd)], rows[2*n:][:len(xd)], rows[3*n:][:len(xd)]
		var s0, s1, s2, s3 float64
		for j, xv := range xd {
			s0 += float64(r0[j] * xv)
			s1 += float64(r1[j] * xv)
			s2 += float64(r2[j] * xv)
			s3 += float64(r3[j] * xv)
		}
		dd[i], dd[i+1], dd[i+2], dd[i+3] = s0+bd[i], s1+bd[i+1], s2+bd[i+2], s3+bd[i+3]
	}
	for ; i < m; i++ {
		row := w.Data[i*n : (i+1)*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += float64(v * xd[j])
		}
		dd[i] = s + bd[i]
	}
}

// MatVecT returns Wᵀ y for W of shape [m, n] and y of size m; result [n].
func MatVecT(w, y *Tensor) *Tensor {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVecT wants a matrix, got shape %v", w.Shape))
	}
	m, n := w.Shape[0], w.Shape[1]
	if y.Size() != m {
		panic(fmt.Sprintf("tensor: MatVecT size mismatch: W is %v, y has %d elements", w.Shape, y.Size()))
	}
	out := New(n)
	for i := 0; i < m; i++ {
		row := w.Data[i*n : (i+1)*n]
		yi := y.Data[i]
		if yi == 0 {
			continue
		}
		for j, v := range row {
			out.Data[j] += float64(v * yi)
		}
	}
	return out
}

// Outer returns the outer product y xᵀ with shape [len(y), len(x)].
func Outer(y, x *Tensor) *Tensor {
	m, n := y.Size(), x.Size()
	out := New(m, n)
	for i := 0; i < m; i++ {
		yi := y.Data[i]
		row := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] = yi * x.Data[j]
		}
	}
	return out
}

// matMulBlock is the cache-blocking tile edge of MatMul (in elements). 64
// keeps one A tile + one Bᵀ tile comfortably inside L1 for float64.
const matMulBlock = 64

// MatMul returns A B for A [m, k] and B [k, n].
//
// The kernel transposes B once into a scratch buffer and then runs blocked
// dot products, so both operands stream sequentially through cache. Unlike
// the historical kernel there is no per-element zero-skip branch: the branch
// paid on every dense element to help only pathologically sparse inputs.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b, nil)
	return out
}

// Transpose returns the matrix transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose wants a matrix, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	transposeInto(out.Data, a.Data, m, n)
	return out
}

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

// Concat concatenates 1-D tensors into one vector.
func Concat(parts ...*Tensor) *Tensor {
	n := 0
	for _, p := range parts {
		n += p.Size()
	}
	out := New(n)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += p.Size()
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Size()) }

// Dot returns the inner product of two equal-size tensors.
func Dot(a, b *Tensor) float64 {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", a.Size(), b.Size()))
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i] * b.Data[i])
	}
	return s
}

// Norm2 returns the Euclidean norm.
func (t *Tensor) Norm2() float64 { return math.Sqrt(Dot(t, t)) }

// MeanCols averages a [r, c] matrix over rows, returning a length-c vector.
// This is the paper's average-pooling step (Formula 10).
func MeanCols(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MeanCols wants a matrix, got %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := New(c)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(r)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// Row returns row i of a matrix as a copied vector.
func (t *Tensor) Row(i int) *Tensor {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Row wants a matrix, got %v", t.Shape))
	}
	c := t.Shape[1]
	out := New(c)
	copy(out.Data, t.Data[i*c:(i+1)*c])
	return out
}

// SetRow copies v into row i of a matrix.
func (t *Tensor) SetRow(i int, v *Tensor) {
	if t.Dims() != 2 || v.Size() != t.Shape[1] {
		panic(fmt.Sprintf("tensor: SetRow shape mismatch %v row %v", t.Shape, v.Shape))
	}
	copy(t.Data[i*t.Shape[1]:(i+1)*t.Shape[1]], v.Data)
}

// ArgMax returns the index of the maximum element.
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.Shape, t.Size())
}
