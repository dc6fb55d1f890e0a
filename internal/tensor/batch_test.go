package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAffineBatchMatchesMatVecAdd pins the batched bit-exactness contract:
// every row of AffineBatchInto must equal MatVecAddInto on that row alone,
// compared by Float64bits. core.EstimateBatchFused's bitwise equality with
// the per-sample path — and therefore flight-recorder replay — depends on
// exactly this property.
func TestAffineBatchMatchesMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		bsz, in, out := 1+rng.Intn(70), 1+rng.Intn(90), 1+rng.Intn(90)
		x := randTensor(rng, bsz, in)
		w := randTensor(rng, out, in)
		bias := randTensor(rng, out)
		dst := New(bsz, out)
		AffineBatchInto(dst, x, w, bias)
		ref := New(out)
		for r := 0; r < bsz; r++ {
			xr := FromSlice(x.Data[r*in:(r+1)*in], in)
			MatVecAddInto(ref, w, xr, bias)
			for i := 0; i < out; i++ {
				got, want := dst.Data[r*out+i], ref.Data[i]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d [B=%d in=%d out=%d] row %d elem %d: batched %v != per-sample %v",
						trial, bsz, in, out, r, i, got, want)
				}
			}
		}
	}
}

// TestMatMulIntoMatchesMatMul covers the *Into variant on non-square shapes
// crossing block boundaries, with and without a caller-provided scratch.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []float64
	for _, dims := range [][3]int{{1, 1, 1}, {2, 7, 3}, {64, 64, 64}, {65, 33, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := MatMul(a, b)
		dst := New(m, n)
		MatMulInto(dst, a, b, nil)
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v nil-scratch elem %d: %v != %v", dims, i, dst.Data[i], want.Data[i])
			}
		}
		// Reused (and growing) caller scratch must give identical results.
		if len(scratch) < k*n {
			scratch = make([]float64, k*n)
		}
		dst.Fill(math.NaN())
		MatMulInto(dst, a, b, scratch)
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v reused-scratch elem %d: %v != %v", dims, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestBatchKernelEdgeCases covers the degenerate shapes the admission batcher
// can produce: an empty batch (no drained jobs), a single 1×1 sample, and
// shape mismatches that must panic rather than write out of bounds.
func TestBatchKernelEdgeCases(t *testing.T) {
	t.Run("EmptyBatch", func(t *testing.T) {
		// New rejects zero dims, so build the 0-row views by hand — the
		// kernels must treat them as no-ops, not index past nil Data.
		x := &Tensor{Shape: []int{0, 3}}
		dst := &Tensor{Shape: []int{0, 2}}
		AffineBatchInto(dst, x, New(2, 3), New(2))
		MatMulInto(&Tensor{Shape: []int{0, 4}}, &Tensor{Shape: []int{0, 3}}, New(3, 4), nil)
	})
	t.Run("OneByOne", func(t *testing.T) {
		x := FromSlice([]float64{3}, 1, 1)
		w := FromSlice([]float64{-2}, 1, 1)
		bias := Vector(10)
		dst := New(1, 1)
		AffineBatchInto(dst, x, w, bias)
		if dst.Data[0] != 4 {
			t.Fatalf("1x1 affine = %v, want 4", dst.Data[0])
		}
		MatMulInto(dst, x, w, nil)
		if dst.Data[0] != -6 {
			t.Fatalf("1x1 matmul = %v, want -6", dst.Data[0])
		}
	})
	for name, f := range map[string]func(){
		"AffineBatchVectorX":   func() { AffineBatchInto(New(2, 2), New(4), New(2, 2), New(2)) },
		"AffineBatchInnerDim":  func() { AffineBatchInto(New(2, 3), New(2, 5), New(3, 4), New(3)) },
		"AffineBatchBiasSize":  func() { AffineBatchInto(New(2, 3), New(2, 4), New(3, 4), New(2)) },
		"AffineBatchDstShape":  func() { AffineBatchInto(New(3, 3), New(2, 4), New(3, 4), New(3)) },
		"MatMulIntoInnerDim":   func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2), nil) },
		"MatMulIntoDstShape":   func() { MatMulInto(New(3, 2), New(2, 3), New(3, 2), nil) },
		"MatMulIntoShortScrap": func() { MatMulInto(New(2, 2), New(2, 3), New(3, 2), make([]float64, 5)) },
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

// TestReLUInPlaceMatchesTapeReLU checks the batched activation against
// math.Max(0, x) element-wise — the exact function the per-sample tape ReLU
// applies — including the NaN and signed-zero corners.
func TestReLUInPlaceMatchesTapeReLU(t *testing.T) {
	in := []float64{-1.5, 0, math.Copysign(0, -1), 2.25, math.NaN(), math.Inf(-1), math.Inf(1)}
	got := FromSlice(append([]float64(nil), in...), len(in))
	ReLUInPlace(got)
	for i, v := range in {
		want := math.Max(0, v)
		if math.Float64bits(got.Data[i]) != math.Float64bits(want) {
			t.Fatalf("elem %d (%v): ReLUInPlace %v (bits %x), want %v (bits %x)",
				i, v, got.Data[i], math.Float64bits(got.Data[i]), want, math.Float64bits(want))
		}
	}
}

// TestArenaFromSliceViews exercises arena-header row views across Reset
// cycles: views must alias the caller's data (zero copy), survive slab
// growth within a cycle, and the arena must hand out fresh headers after
// Reset without disturbing the underlying batch matrix.
func TestArenaFromSliceViews(t *testing.T) {
	var a Arena
	batch := New(4, 3)
	for i := range batch.Data {
		batch.Data[i] = float64(i)
	}
	for cycle := 0; cycle < 3; cycle++ {
		views := make([]*Tensor, 4)
		for r := 0; r < 4; r++ {
			views[r] = a.FromSlice(batch.Data[r*3:(r+1)*3], 3)
			// Interleave regular arena allocations so header slabs advance.
			a.New(16, 16)
		}
		for r, v := range views {
			if &v.Data[0] != &batch.Data[r*3] {
				t.Fatalf("cycle %d row %d: view copied instead of aliasing", cycle, r)
			}
			v.Data[0] = -1 // must write through to the batch matrix
			if batch.Data[r*3] != -1 {
				t.Fatalf("cycle %d row %d: write did not alias", cycle, r)
			}
			batch.Data[r*3] = float64(r * 3)
		}
		a.Reset()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	a.FromSlice(batch.Data, 5, 3)
}

func fusedBatchShapes() [][3]int {
	return [][3]int{{1, 67, 32}, {4, 67, 32}, {16, 67, 32}, {64, 67, 32}}
}

func BenchmarkAffineBatchInto(b *testing.B) {
	for _, dims := range fusedBatchShapes() {
		bsz, in, out := dims[0], dims[1], dims[2]
		b.Run(fmt.Sprintf("B%d_%dx%d", bsz, in, out), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, bsz, in)
			w := randTensor(rng, out, in)
			bias := randTensor(rng, out)
			dst := New(bsz, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AffineBatchInto(dst, x, w, bias)
			}
		})
	}
}

// BenchmarkAffineMatVecLoop is the per-sample baseline for the same shapes
// as BenchmarkAffineBatchInto: B independent MatVecAddInto calls.
func BenchmarkAffineMatVecLoop(b *testing.B) {
	for _, dims := range fusedBatchShapes() {
		bsz, in, out := dims[0], dims[1], dims[2]
		b.Run(fmt.Sprintf("B%d_%dx%d", bsz, in, out), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, bsz, in)
			w := randTensor(rng, out, in)
			bias := randTensor(rng, out)
			dst := New(out)
			rows := make([]*Tensor, bsz)
			for r := 0; r < bsz; r++ {
				rows[r] = FromSlice(x.Data[r*in:(r+1)*in], in)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < bsz; r++ {
					MatVecAddInto(dst, w, rows[r], bias)
				}
			}
		})
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, n, n)
			y := randTensor(rng, n, n)
			dst := New(n, n)
			scratch := make([]float64, n*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y, scratch)
			}
		})
	}
}
