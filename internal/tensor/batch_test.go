package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAffineBatchMatchesMatVecAdd pins the batched bit-exactness contract
// to its sequential-row reference: every element of AffineBatchInto must
// equal W_i·x_r + b_i with the dot product summed strictly in column order
// from zero, and row r of a batch must equal row r run as a batch of one —
// compared by Float64bits, across the kernel's 2-row, 2-output and 32-wide
// tile boundaries. core.EstimateBatchFused's bitwise equality with the
// training forward — and therefore flight-recorder replay — depends on
// exactly this property. AffinePackedInto, the same product against W
// packed by PackInto, is held to the same reference.
func TestAffineBatchMatchesMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		bsz, in, out := 1+rng.Intn(70), 1+rng.Intn(90), 1+rng.Intn(90)
		x := randTensor(rng, bsz, in)
		w := randTensor(rng, out, in)
		bias := randTensor(rng, out)
		dst, packed, wp := New(bsz, out), New(bsz, out), New(in, out)
		AffineBatchInto(dst, x, w, bias)
		PackInto(wp, w, 0)
		AffinePackedInto(packed, x, wp, bias)
		one := New(1, out)
		for r := 0; r < bsz; r++ {
			AffineBatchInto(one, of(x.Data[r*in:(r+1)*in], 1, in), w, bias)
			for i := 0; i < out; i++ {
				var s float64
				for j := 0; j < in; j++ {
					s += float64(w.Data[i*in+j] * x.Data[r*in+j])
				}
				got, want := dst.Data[r*out+i], s+bias.Data[i]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d [B=%d in=%d out=%d] row %d elem %d: batched %v != sequential row %v",
						trial, bsz, in, out, r, i, got, want)
				}
				if got := packed.Data[r*out+i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d [B=%d in=%d out=%d] row %d elem %d: packed %v != sequential row %v",
						trial, bsz, in, out, r, i, got, want)
				}
				if math.Float64bits(one.Data[i]) != math.Float64bits(want) {
					t.Fatalf("trial %d [B=%d in=%d out=%d] row %d elem %d: batch of one %v != sequential row %v",
						trial, bsz, in, out, r, i, one.Data[i], want)
				}
			}
		}
	}
}

// TestMatMulIntoMatchesMatMul: AddMatMul adds each product element to dst
// once, so accumulating into a filled dst equals the product into a zeroed
// one added afterwards, bit for bit, on non-square shapes crossing the
// kernel's tile boundaries, against a column block of a wider B.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 7, 3}, {64, 64, 64}, {65, 33, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n+3)
		prod := New(m, n)
		AddMatMul(prod, a, b, 2)
		dst := randTensor(rng, m, n)
		want := clone(dst)
		want.AddInPlace(prod)
		AddMatMul(dst, a, b, 2)
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v elem %d: %v != %v", dims, i, dst.Data[i], want.Data[i])
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
		AddMatMul(&Tensor{Shape: []int{0, 4}}, x, New(3, 4), 0)
	})
	t.Run("OneByOne", func(t *testing.T) {
		x := of([]float64{3}, 1, 1)
		w := of([]float64{-2}, 1, 1)
		dst := New(1, 1)
		AffineBatchInto(dst, x, w, of([]float64{10}, 1))
		if dst.Data[0] != 4 {
			t.Fatalf("1x1 affine = %v, want 4", dst.Data[0])
		}
		AddMatMul(dst, x, w, 0)
		if dst.Data[0] != -2 {
			t.Fatalf("1x1 matmul added to 4 = %v, want -2", dst.Data[0])
		}
	})
	for name, f := range map[string]func(){
		"AffineBatchVectorX":  func() { AffineBatchInto(New(2, 2), New(4), New(2, 2), New(2)) },
		"AffineBatchInnerDim": func() { AffineBatchInto(New(2, 3), New(2, 5), New(3, 4), New(3)) },
		"AffineBatchBiasSize": func() { AffineBatchInto(New(2, 3), New(2, 4), New(3, 4), New(2)) },
		"AffineBatchDstShape": func() { AffineBatchInto(New(3, 3), New(2, 4), New(3, 4), New(3)) },
		"MatMulIntoInnerDim":  func() { AddMatMul(New(2, 2), New(2, 3), New(4, 2), 0) },
		"MatMulIntoDstShape":  func() { AddMatMul(New(3, 2), New(2, 3), New(3, 2), 0) },
		"MatMulIntoColumns":   func() { AddMatMul(New(2, 2), New(2, 3), New(3, 3), 2) },
		"AffinePackedInner":   func() { AffinePackedInto(New(2, 3), New(2, 4), New(5, 3), New(3)) },
		"AffinePackedDst":     func() { AffinePackedInto(New(3, 3), New(2, 4), New(4, 3), New(3)) },
		"PackIntoColumns":     func() { PackInto(New(4, 5), New(3, 4), 3) },
		"PackIntoRows":        func() { PackInto(New(3, 5), New(3, 4), 0) },
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

// TestReLUInPlaceMatchesTapeReLU checks the serving activation against
// math.Max(0, x) element-wise — the exact function the tape ReLU applies —
// including the NaN and signed-zero corners.
func TestReLUInPlaceMatchesTapeReLU(t *testing.T) {
	in := []float64{-1.5, 0, math.Copysign(0, -1), 2.25, math.NaN(), math.Inf(-1), math.Inf(1)}
	got := of(append([]float64(nil), in...), 1, len(in))
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

func BenchmarkAffineBatchInto(b *testing.B) {
	for _, dims := range [][3]int{{1, 67, 32}, {4, 67, 32}, {16, 67, 32}, {64, 67, 32}} {
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
