// Package tensor implements dense float64 tensors and the linear-algebra
// kernels the neural-network substrate is built on. Tensors are row-major;
// a matrix of shape [r, c] stores element (i, j) at Data[i*c+j].
//
// The package is deliberately small: it contains exactly the operations the
// DeepOD model (SIGMOD 2020) needs over batches of activations [B, …], one
// sample a row — the batched affine product and its backward, in-place
// accumulation, and the 2-D convolution kernels used by the time-interval
// ResNet encoder and the traffic-condition CNN. Shape errors are programming
// errors and panic with explicit messages.
package tensor

import "fmt"

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
// (the backward of a Scale node).
func (t *Tensor) AddScaledInPlace(o *Tensor, s float64) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaledInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += float64(s * v)
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
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

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.Shape, t.Size())
}
