package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatVecAddMatchesUnfused pins the bit-exactness contract: the fused
// affine kernel must equal MatVec followed by Add exactly, not just within
// tolerance, because the deterministic-training guarantee of internal/core
// rides on it.
func TestMatVecAddMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		w := randTensor(rng, m, n)
		x := randTensor(rng, n)
		b := randTensor(rng, m)
		got := MatVecAdd(w, x, b)
		want := Add(MatVec(w, x), b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d elem %d: fused %v != unfused %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatVecAddIntoRowExact pins the four-rows-at-a-time kernel, on both
// sides of its m%4 tail, to the definition: every output is its own row's dot
// product summed strictly in column order, plus its bias — and AffineBatchInto
// row r is still that kernel on row r.
func TestMatVecAddIntoRowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{1, 3, 4, 5, 16, 31, 32} {
		for _, n := range []int{1, 7, 64} {
			w := randTensor(rng, m, n)
			bias := randTensor(rng, m)
			xs := randTensor(rng, 3, n)
			batched := New(3, m)
			AffineBatchInto(batched, xs, w, bias)
			dst := New(m)
			for r := 0; r < 3; r++ {
				x := xs.Row(r)
				MatVecAddInto(dst, w, x, bias)
				for i := 0; i < m; i++ {
					var s float64
					for j := 0; j < n; j++ {
						s += w.Data[i*n+j] * x.Data[j]
					}
					if want := s + bias.Data[i]; math.Float64bits(dst.Data[i]) != math.Float64bits(want) {
						t.Fatalf("%dx%d row %d: %v, want %v", m, n, i, dst.Data[i], want)
					}
					if got := batched.Data[r*m+i]; math.Float64bits(got) != math.Float64bits(dst.Data[i]) {
						t.Fatalf("%dx%d: AffineBatchInto[%d,%d] = %v, MatVecAddInto %v", m, n, r, i, got, dst.Data[i])
					}
				}
			}
		}
	}
}

// TestMatMulMatchesReference checks the blocked transposed-B kernel against
// a naive triple loop on asymmetric shapes crossing block boundaries.
func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {63, 64, 65}, {70, 130, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := MatMul(a, b)
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

func TestAddScaledAndAddMulInPlace(t *testing.T) {
	dst := Vector(1, 2, 3)
	dst.AddScaledInPlace(Vector(10, 20, 30), -0.5)
	for i, want := range []float64{-4, -8, -12} {
		if dst.Data[i] != want {
			t.Fatalf("AddScaledInPlace[%d] = %v, want %v", i, dst.Data[i], want)
		}
	}
	dst = Vector(1, 1, 1)
	dst.AddMulInPlace(Vector(2, 3, 4), Vector(5, 6, 7))
	for i, want := range []float64{11, 19, 29} {
		if dst.Data[i] != want {
			t.Fatalf("AddMulInPlace[%d] = %v, want %v", i, dst.Data[i], want)
		}
	}
}
