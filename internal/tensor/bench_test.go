package tensor

// Kernel microbenchmarks with allocation reporting, so regressions in the
// hot linear-algebra paths (and any reintroduced per-call allocation) are
// visible in plain `go test -bench`.

import (
	"fmt"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, n, n)
			y := randTensor(rng, n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := randTensor(rng, n, n)
			x := randTensor(rng, n)
			dst := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVecInto(dst, w, x)
			}
		})
	}
}

// BenchmarkMatVecAdd is one LSTM gate of the trajectory encoder: 32 outputs
// over the 64-wide [input, hidden] vector.
func BenchmarkMatVecAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := randTensor(rng, 32, 64)
	x := randTensor(rng, 64)
	bias := randTensor(rng, 32)
	dst := New(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecAddInto(dst, w, x, bias)
	}
}

func BenchmarkTranspose(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Transpose(x)
			}
		})
	}
}

// BenchmarkAffineBatchBackward is one training shard through an LSTM gate's
// backward: dW, db and dX of a [32×64]·Wᵀ affine with 32 outputs.
func BenchmarkAffineBatchBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, dy, w := randTensor(rng, 32, 64), randTensor(rng, 32, 32), randTensor(rng, 32, 64)
	dw, db, dx := New(32, 64), New(32), New(32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AffineBatchBackward(dw, db, dx, dy, x, w)
	}
}

func BenchmarkArenaNewReset(b *testing.B) {
	var a Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			a.New(64)
		}
		a.Reset()
	}
}
