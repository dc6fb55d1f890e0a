package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// of wraps data (not copied) in a tensor of the given shape.
func of(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: shape, Data: data}
	if t.Size() != len(data) {
		panic("tensor test: shape does not match data")
	}
	return t
}

// clone deep-copies t.
func clone(t *Tensor) *Tensor {
	return of(append([]float64(nil), t.Data...), append([]int(nil), t.Shape...)...)
}

func TestNewShapeAndSize(t *testing.T) {
	tt := New(2, 3, 4)
	if got := tt.Size(); got != 24 {
		t.Fatalf("Size() = %d, want 24", got)
	}
	if tt.Dims() != 3 {
		t.Fatalf("Dims() = %d, want 3", tt.Dims())
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatalf("New tensor not zeroed: %v", tt.Data)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

// TestFromSliceValidatesLength: an arena view whose shape does not cover
// its data exactly is rejected.
func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	var a Arena
	a.FromSlice([]float64{1, 2, 3}, 2, 2)
}

// TestMatVec: a matrix-vector product is the affine of a batch of one row
// with a zero bias.
func TestMatVec(t *testing.T) {
	w := of([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := of([]float64{1, 0, -1}, 1, 3)
	y := New(1, 2)
	AffineBatchInto(y, x, w, New(2))
	want := []float64{1 - 3, 4 - 6}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("W·x[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

// TestMatVecTMatchesTransposeTimesVec: the input gradient of a one-row
// affine is Wᵀ·y, the explicit transpose times the vector.
func TestMatVecTMatchesTransposeTimesVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := randTensor(rng, 4, 3)
	y := randTensor(rng, 1, 4)
	got := New(1, 3)
	AffineBatchBackward(nil, nil, got, y, New(1, 3), w)
	for j := 0; j < 3; j++ {
		var want float64
		for i := 0; i < 4; i++ {
			want += w.Data[i*3+j] * y.Data[i]
		}
		if !almostEqual(got.Data[j], want, 1e-12) {
			t.Fatalf("Wᵀy mismatch at %d: %v vs %v", j, got.Data[j], want)
		}
	}
}

// TestMatMulIdentity: A·I = A through AddMatMul.
func TestMatMulIdentity(t *testing.T) {
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Data[i*3+i] = 1
	}
	a := of([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	got := New(3, 3)
	AddMatMul(got, a, id, 0)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("A·I != A at %d", i)
		}
	}
}

// TestMatMulAgainstManual: AddMatMul of a 2×2 product worked by hand.
func TestMatMulAgainstManual(t *testing.T) {
	a := of([]float64{1, 2, 3, 4}, 2, 2)
	b := of([]float64{5, 6, 7, 8}, 2, 2)
	got := New(2, 2)
	AddMatMul(got, a, b, 0)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("A·B[%d] = %v, want %v", i, got.Data[i], want[i])
		}
	}
}

// TestOuterShapeAndValues: the weight gradient of a one-row affine is the
// outer product y xᵀ.
func TestOuterShapeAndValues(t *testing.T) {
	dw := New(2, 3)
	AffineBatchBackward(dw, nil, nil, of([]float64{1, 2}, 1, 2), of([]float64{3, 4, 5}, 1, 3), New(2, 3))
	want := []float64{3, 4, 5, 6, 8, 10}
	for i := range want {
		if dw.Data[i] != want[i] {
			t.Fatalf("y xᵀ[%d] = %v, want %v", i, dw.Data[i], want[i])
		}
	}
}

// TestTransposeInvolution: PackInto at column 0 is a transpose, so packing
// the packed matrix returns the original.
func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(70), 1+rng.Intn(70)
		a := randTensor(rng, r, c)
		at, b := New(c, r), New(r, c)
		PackInto(at, a, 0)
		PackInto(b, at, 0)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] || at.Data[(i%c)*r+i/c] != a.Data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRowCopies(t *testing.T) {
	m := of([]float64{1, 2, 9, 8, 5, 6}, 3, 2)
	r := m.Row(1)
	if r.Size() != 2 || r.Data[0] != 9 || r.Data[1] != 8 {
		t.Fatalf("Row(1) = %v", r)
	}
	r.Data[0] = 0 // Row copies
	if m.Data[2] != 9 {
		t.Fatal("Row should copy, not alias")
	}
}

// TestMapAndScaleAndArith covers the in-place element-wise operations.
func TestMapAndScaleAndArith(t *testing.T) {
	a := of([]float64{1, -2, 3}, 1, 3)
	r := clone(a)
	ReLUInPlace(r)
	if r.Data[0] != 1 || r.Data[1] != 0 || r.Data[2] != 3 {
		t.Fatalf("ReLUInPlace = %v", r.Data)
	}
	s := clone(a)
	s.ScaleInPlace(2)
	if s.Data[2] != 6 {
		t.Fatalf("ScaleInPlace = %v", s.Data)
	}
	s.AddInPlace(a)
	if s.Data[0] != 3 {
		t.Fatalf("AddInPlace = %v", s.Data)
	}
	s.AddScaledInPlace(a, -3)
	if s.Sum() != 0 {
		t.Fatalf("AddScaledInPlace = %v", s.Data)
	}
}

// Property: (A B) x == A (B x) for random matrices — ties the matrix
// product (AddMatMul) to the one-row affine.
func TestMatMulMatVecAssociativity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b, x := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, 1, n)
		ab := New(m, n)
		AddMatMul(ab, a, b, 0)
		lhs, bx, rhs := New(1, m), New(1, k), New(1, m)
		AffineBatchInto(lhs, x, ab, New(m))
		AffineBatchInto(bx, x, b, New(k))
		AffineBatchInto(rhs, bx, a, New(m))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPanicBranches: every shape check rejects what it must. A one-row
// affine is the mat-vec W·x and its backward's input gradient is Wᵀ·y, so
// the MatVec cases hold AffineBatchInto and AffineBatchBackward to their
// rank and size checks; AddMatMul is the matrix product.
func TestPanicBranches(t *testing.T) {
	for name, f := range map[string]func(){
		"Add shape":               func() { New(1, 1).AddScaledInPlace(New(1, 2), 2) },
		"AddInPlace shape":        func() { New(1, 1).AddInPlace(New(1, 2)) },
		"MatVec non-mat":          func() { AffineBatchInto(New(1, 2), New(1, 1), New(1), New(2)) },
		"MatVec size":             func() { AffineBatchInto(New(1, 2), New(1, 1), New(2, 3), New(2)) },
		"MatVecT non-mat":         func() { AffineBatchBackward(nil, nil, New(1, 1), New(1, 1), New(1, 1), New(1)) },
		"MatVecT size":            func() { AffineBatchBackward(nil, nil, New(1, 3), New(2), New(1, 3), New(2, 3)) },
		"MatMul shape":            func() { AddMatMul(New(2, 2), New(2, 3), New(2, 2), 0) },
		"Row rank":                func() { New(2).Row(0) },
		"AffineBackward dW shape": func() { AffineBatchBackward(New(2, 2), nil, nil, New(1, 2), New(1, 3), New(2, 3)) },
		"AffineBackward dY size":  func() { AffineBatchBackward(nil, nil, nil, New(1, 3), New(1, 3), New(2, 3)) },
		"AffineBackward vector X": func() { AffineBatchBackward(New(2, 3), nil, nil, New(1, 2), New(3), New(2, 3)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}

func TestScaleInPlaceAndZeroAndString(t *testing.T) {
	v := of([]float64{1, 2}, 1, 2)
	v.ScaleInPlace(3)
	if v.Data[1] != 6 || v.Sum() != 9 {
		t.Fatalf("ScaleInPlace = %v", v.Data)
	}
	v.Zero()
	if v.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if s := v.String(); s == "" {
		t.Fatal("String empty for small tensor")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("String empty for large tensor")
	}
}

// TestAddHelpersMatchNaive holds the affine backward to its definition:
// every gradient element is its row-sequential (for dW, db) or
// output-sequential (for dX) sum of products, added once to what the
// accumulator held — at B = 1, where dW is the outer product y xᵀ and dX
// is Wᵀ·y, and at B > 1.
func TestAddHelpersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][3]int{{1, 4, 3}, {1, 1, 1}, {2, 5, 3}, {7, 9, 1}, {32, 67, 32}, {5, 4, 6}} {
		bsz, in, out := dims[0], dims[1], dims[2]
		xs, dys, wm := randTensor(rng, bsz, in), randTensor(rng, bsz, out), randTensor(rng, out, in)
		gw, gb, gx := randTensor(rng, out, in), randTensor(rng, out), randTensor(rng, bsz, in)
		w0, b0, x0 := clone(gw), clone(gb), clone(gx)
		AffineBatchBackward(gw, gb, gx, dys, xs, wm)
		for i := 0; i < out; i++ {
			var sb float64
			for r := 0; r < bsz; r++ {
				sb += dys.Data[r*out+i]
			}
			if got, want := gb.Data[i], b0.Data[i]+sb; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v db[%d] = %v, want %v", dims, i, got, want)
			}
			for j := 0; j < in; j++ {
				var s float64
				for r := 0; r < bsz; r++ {
					s += float64(dys.Data[r*out+i] * xs.Data[r*in+j])
				}
				if got, want := gw.Data[i*in+j], w0.Data[i*in+j]+s; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v dW[%d,%d] = %v, want %v", dims, i, j, got, want)
				}
			}
		}
		for r := 0; r < bsz; r++ {
			for j := 0; j < in; j++ {
				var s float64
				for i := 0; i < out; i++ {
					s += float64(dys.Data[r*out+i] * wm.Data[i*in+j])
				}
				if got, want := gx.Data[r*in+j], x0.Data[r*in+j]+s; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v dX[%d,%d] = %v, want %v", dims, r, j, got, want)
				}
			}
		}
	}
}
