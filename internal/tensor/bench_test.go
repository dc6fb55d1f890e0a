package tensor

// Kernel microbenchmarks with allocation reporting, so regressions in the
// hot linear-algebra paths (and any reintroduced per-call allocation) are
// visible in plain `go test -bench`.

import (
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
