package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

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

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(3, 4)
	m.Set(7.5, 1, 2)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Data[1*4+2]; got != 7.5 {
		t.Fatalf("row-major layout violated: Data[6] = %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := Vector(1, 2, 3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := Vector(1, 2, 3, 4, 5, 6)
	m := a.Reshape(2, 3)
	m.Set(42, 1, 2)
	if a.Data[5] != 42 {
		t.Fatal("Reshape should share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong size did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestMatVec(t *testing.T) {
	w := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := Vector(1, 0, -1)
	y := MatVec(w, x)
	want := []float64{1 - 3, 4 - 6}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("MatVec[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestMatVecTMatchesTransposeTimesVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := New(4, 3)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	y := Vector(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	got := MatVecT(w, y)
	want := MatVec(Transpose(w), y)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatVecT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(1, i, i)
	}
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	got := MatMul(a, id)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("A·I != A at %d", i)
		}
	}
}

func TestMatMulAgainstManual(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got.Data[i], want[i])
		}
	}
}

func TestOuterShapeAndValues(t *testing.T) {
	o := Outer(Vector(1, 2), Vector(3, 4, 5))
	if o.Shape[0] != 2 || o.Shape[1] != 3 {
		t.Fatalf("Outer shape %v", o.Shape)
	}
	want := []float64{3, 4, 5, 6, 8, 10}
	for i := range want {
		if o.Data[i] != want[i] {
			t.Fatalf("Outer[%d] = %v, want %v", i, o.Data[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(5), 1+rng.Intn(5)
		a := New(r, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := Transpose(Transpose(a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	c := Concat(Vector(1, 2), Vector(3), Vector(4, 5, 6))
	want := []float64{1, 2, 3, 4, 5, 6}
	if c.Size() != 6 {
		t.Fatalf("Concat size %d", c.Size())
	}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Concat[%d] = %v", i, c.Data[i])
		}
	}
}

func TestMeanCols(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 5}, 2, 2)
	mc := MeanCols(m)
	if !almostEqual(mc.Data[0], 2, 1e-12) || !almostEqual(mc.Data[1], 3.5, 1e-12) {
		t.Fatalf("MeanCols = %v", mc.Data)
	}
}

func TestSumMeanDotNorm(t *testing.T) {
	v := Vector(3, 4)
	if v.Sum() != 7 {
		t.Fatalf("Sum = %v", v.Sum())
	}
	if v.Mean() != 3.5 {
		t.Fatalf("Mean = %v", v.Mean())
	}
	if Dot(v, v) != 25 {
		t.Fatalf("Dot = %v", Dot(v, v))
	}
	if !almostEqual(v.Norm2(), 5, 1e-12) {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
}

func TestRowSetRow(t *testing.T) {
	m := New(3, 2)
	m.SetRow(1, Vector(9, 8))
	r := m.Row(1)
	if r.Data[0] != 9 || r.Data[1] != 8 {
		t.Fatalf("Row(1) = %v", r.Data)
	}
	r.Data[0] = 0 // Row copies
	if m.At(1, 0) != 9 {
		t.Fatal("Row should copy, not alias")
	}
}

func TestArgMax(t *testing.T) {
	if got := Vector(1, 5, 3).ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
}

func TestMapAndScaleAndArith(t *testing.T) {
	a := Vector(1, -2, 3)
	sq := Map(a, func(x float64) float64 { return x * x })
	if sq.Data[1] != 4 {
		t.Fatalf("Map square = %v", sq.Data)
	}
	s := Scale(a, 2)
	if s.Data[2] != 6 {
		t.Fatalf("Scale = %v", s.Data)
	}
	sum := Add(a, a)
	if sum.Data[0] != 2 {
		t.Fatalf("Add = %v", sum.Data)
	}
	diff := Sub(a, a)
	if diff.Sum() != 0 {
		t.Fatalf("Sub = %v", diff.Data)
	}
	prod := Mul(a, a)
	if prod.Data[1] != 4 {
		t.Fatalf("Mul = %v", prod.Data)
	}
}

// Property: (A B) x == A (B x) for random matrices — ties MatMul and MatVec
// together.
func TestMatMulMatVecAssociativity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b, x := New(m, k), New(k, n), New(n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		lhs := MatVec(MatMul(a, b), x)
		rhs := MatVec(a, MatVec(b, x))
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

func TestPanicBranches(t *testing.T) {
	for name, f := range map[string]func(){
		"Add shape":               func() { Add(Vector(1), Vector(1, 2)) },
		"Sub shape":               func() { Sub(Vector(1), Vector(1, 2)) },
		"Mul shape":               func() { Mul(Vector(1), Vector(1, 2)) },
		"AddInPlace shape":        func() { Vector(1).AddInPlace(Vector(1, 2)) },
		"Dot size":                func() { Dot(Vector(1), Vector(1, 2)) },
		"MatVec non-mat":          func() { MatVec(Vector(1), Vector(1)) },
		"MatVec size":             func() { MatVec(New(2, 3), Vector(1)) },
		"MatVecT non-mat":         func() { MatVecT(Vector(1), Vector(1)) },
		"MatVecT size":            func() { MatVecT(New(2, 3), Vector(1)) },
		"MatMul shape":            func() { MatMul(New(2, 3), New(2, 3)) },
		"Transpose rank":          func() { Transpose(Vector(1)) },
		"MeanCols rank":           func() { MeanCols(Vector(1)) },
		"Row rank":                func() { Vector(1, 2).Row(0) },
		"SetRow shape":            func() { New(2, 2).SetRow(0, Vector(1)) },
		"Set rank":                func() { New(2, 2).Set(1, 0) },
		"AffineBackward dW shape": func() { AffineBatchBackward(New(2, 2), nil, nil, Vector(1, 2), Vector(1, 2, 3), New(2, 3)) },
		"AffineBackward dY size":  func() { AffineBatchBackward(nil, nil, nil, Vector(1, 2, 3), Vector(1, 2, 3), New(2, 3)) },
	} {
		f := f
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
	v := Vector(1, 2)
	v.ScaleInPlace(3)
	if v.Data[1] != 6 {
		t.Fatalf("ScaleInPlace = %v", v.Data)
	}
	v.Zero()
	if v.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if s := Vector(1, 2).String(); s == "" {
		t.Fatal("String empty for small tensor")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("String empty for large tensor")
	}
	sc := Scalar(4.5)
	if sc.Size() != 1 || sc.Data[0] != 4.5 {
		t.Fatalf("Scalar = %+v", sc)
	}
}

// TestAddHelpersMatchNaive holds the affine backward to its definition: at
// B = 1 it is the outer product and Wᵀ·dy, and at B > 1 every gradient
// element is its row-sequential (for dW, db) or output-sequential (for dX)
// sum of products, added once to what the accumulator held.
func TestAddHelpersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := New(3, 4)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	y := Vector(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	x := Vector(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())

	dw, dx := New(3, 4), New(4)
	AffineBatchBackward(dw, nil, dx, y, x, w)
	want := Outer(y, x)
	for i := range want.Data {
		if !almostEqual(dw.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("B=1 dW[%d] = %v, want %v", i, dw.Data[i], want.Data[i])
		}
	}
	want2 := MatVecT(w, y)
	for i := range want2.Data {
		if !almostEqual(dx.Data[i], want2.Data[i], 1e-12) {
			t.Fatalf("B=1 dX[%d] = %v, want %v", i, dx.Data[i], want2.Data[i])
		}
	}

	for _, dims := range [][3]int{{1, 1, 1}, {2, 5, 3}, {7, 9, 1}, {32, 67, 32}, {5, 4, 6}} {
		bsz, in, out := dims[0], dims[1], dims[2]
		xs, dys, wm := randTensor(rng, bsz, in), randTensor(rng, bsz, out), randTensor(rng, out, in)
		gw, gb, gx := randTensor(rng, out, in), randTensor(rng, out), randTensor(rng, bsz, in)
		w0, b0, x0 := gw.Clone(), gb.Clone(), gx.Clone()
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
