package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatVecAddMatchesUnfused pins the bit-exactness contract of the fused
// bias: AffineBatchInto with a bias must equal the same product with a zero
// bias followed by the bias added, exactly, not just within tolerance,
// because the deterministic-training guarantee of internal/core rides on it.
func TestMatVecAddMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		bsz, m, n := 1+rng.Intn(5), 1+rng.Intn(40), 1+rng.Intn(40)
		w := randTensor(rng, m, n)
		x := randTensor(rng, bsz, n)
		b := randTensor(rng, m)
		got, want := New(bsz, m), New(bsz, m)
		AffineBatchInto(got, x, w, b)
		AffineBatchInto(want, x, w, New(m))
		for r := 0; r < bsz; r++ {
			for i := 0; i < m; i++ {
				want.Data[r*m+i] += b.Data[i]
			}
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d elem %d: fused %v != unfused %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatVecAddIntoRowExact pins the one-row affine, on both sides of the
// kernel's four-output tail, to the definition: every output is its row's
// dot product summed strictly in column order, plus its bias — and a batch
// of three rows is three batches of one.
func TestMatVecAddIntoRowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{1, 3, 4, 5, 16, 31, 32} {
		for _, n := range []int{1, 7, 64} {
			w := randTensor(rng, m, n)
			bias := randTensor(rng, m)
			xs := randTensor(rng, 3, n)
			batched := New(3, m)
			AffineBatchInto(batched, xs, w, bias)
			dst := New(1, m)
			for r := 0; r < 3; r++ {
				x := xs.Row(r)
				AffineBatchInto(dst, of(x.Data, 1, n), w, bias)
				for i := 0; i < m; i++ {
					var s float64
					for j := 0; j < n; j++ {
						s += float64(w.Data[i*n+j] * x.Data[j])
					}
					if want := s + bias.Data[i]; math.Float64bits(dst.Data[i]) != math.Float64bits(want) {
						t.Fatalf("%dx%d row %d: %v, want %v", m, n, i, dst.Data[i], want)
					}
					if got := batched.Data[r*m+i]; math.Float64bits(got) != math.Float64bits(dst.Data[i]) {
						t.Fatalf("%dx%d: batch of 3 [%d,%d] = %v, batch of one %v", m, n, r, i, got, dst.Data[i])
					}
				}
			}
		}
	}
}

// TestMatMulMatchesReference checks the matrix product AddMatMul against
// a naive triple loop on asymmetric shapes crossing its tile boundaries.
func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {63, 64, 65}, {70, 130, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := New(m, n)
		AddMatMul(got, a, b, 0)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for p := 0; p < k; p++ {
					want += a.Data[i*k+p] * b.Data[p*n+j]
				}
				if math.Abs(got.Data[i*n+j]-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("%v: out[%d,%d] = %v, want %v", dims, i, j, got.Data[i*n+j], want)
				}
			}
		}
	}
}

// TestAddScaledAndAddMulInPlace covers the two accumulate-in-place kernels:
// dst += s·o and dst += A·B.
func TestAddScaledAndAddMulInPlace(t *testing.T) {
	dst := of([]float64{1, 2, 3}, 1, 3)
	dst.AddScaledInPlace(of([]float64{10, 20, 30}, 1, 3), -0.5)
	for i, want := range []float64{-4, -8, -12} {
		if dst.Data[i] != want {
			t.Fatalf("AddScaledInPlace[%d] = %v, want %v", i, dst.Data[i], want)
		}
	}
	dst = of([]float64{1, 1, 1}, 1, 3)
	AddMatMul(dst, of([]float64{2}, 1, 1), of([]float64{5, 6, 7}, 1, 3), 0)
	for i, want := range []float64{11, 13, 15} {
		if dst.Data[i] != want {
			t.Fatalf("AddMatMul[%d] = %v, want %v", i, dst.Data[i], want)
		}
	}
}
