package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dotSpecials are the values the exactness test mixes into its operands:
// signed zeros, infinities, the subnormal range, and magnitudes whose
// products overflow to ±Inf or underflow to a subnormal or zero.
var dotSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p600, -0x1p700, 0x1p-600, -0x1p-700,
	1, -1, 0.1, 3,
}

// dotValue draws a standard normal most of the time and a special value
// otherwise.
func dotValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return dotSpecials[rng.Intn(len(dotSpecials))]
	}
	return rng.NormFloat64()
}

// dotCase is one call of dotRows: c's rows are ldc wide, its columns
// [j0, j0+n) are computed against rows [j0, j0+n) of Bt.
type dotCase struct {
	m, k, n, j0, ldc int
	a, bt, c, bias   []float64 // bias nil: c += s
}

// checkDotRows runs dotRows and dotRowsGo on copies of the same c and fails
// on any element whose bits differ (a NaN need only be NaN on both sides).
func checkDotRows(t testing.TB, tc dotCase) {
	got, want := append([]float64(nil), tc.c...), append([]float64(nil), tc.c...)
	dotRows(got, tc.ldc, tc.a, tc.m, tc.k, tc.bt, tc.j0, tc.j0+tc.n, tc.bias)
	dotRowsGo(want, tc.ldc, tc.a, tc.m, tc.k, tc.bt, tc.j0, tc.j0+tc.n, tc.bias)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("m=%d k=%d n=%d j0=%d ldc=%d bias=%v: c[%d] (row %d col %d) = %v (%#x), portable %v (%#x)",
				tc.m, tc.k, tc.n, tc.j0, tc.ldc, tc.bias != nil, i, i/tc.ldc, i%tc.ldc,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestDotRowsSIMDMatchesPortable holds the dispatched dotRows to the
// portable kernel at Float64bits on every shape around the SIMD kernels'
// edges — m in 0..9 (single rows, no whole 4-row tile, one, two, with row
// remainders), n in 0..40 (no whole 8-column group, one to five, the
// single-row kernel's 16- and 8-column passes, with column remainders) and
// k from 0 to an LSTM dW's 433, odd and even (the single-row kernel's odd-k
// tail; 67 is the served OD encoder's input width) — with a column offset
// j0 > 0, a row stride ldc > n, bias nil and non-nil, on operands that
// include −0, ±Inf, subnormals and products that overflow or underflow.
func TestDotRowsSIMDMatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("dotRows is the portable kernel here (no AVX2, not amd64, or the purego tag): nothing to compare")
	}
	rng := rand.New(rand.NewSource(39))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = dotValue(rng)
		}
		return s
	}
	for _, k := range []int{0, 1, 2, 3, 7, 20, 64, 67, 433} {
		for m := 0; m <= 9; m++ {
			for n := 0; n <= 40; n++ {
				for _, withBias := range []bool{false, true} {
					j0 := 1 + rng.Intn(3)
					tc := dotCase{m: m, k: k, n: n, j0: j0, ldc: j0 + n + 1 + rng.Intn(3)}
					tc.a, tc.bt, tc.c = fill(m*k), fill((j0+n)*k), fill(m*tc.ldc)
					if withBias {
						tc.bias = fill(j0 + n)
					}
					checkDotRows(t, tc)
				}
			}
		}
	}
}

// FuzzDotRows is TestDotRowsSIMDMatchesPortable's property on any bytes:
// the first six choose m, n, k, j0, the row padding and the bias, the rest
// are the operands' bit patterns, 8 bytes a value (zero once exhausted).
func FuzzDotRows(f *testing.F) {
	if !useAVX2 {
		f.Skip("dotRows is the portable kernel here (no AVX2, not amd64, or the purego tag): nothing to compare")
	}
	seed := []byte{9, 17, 7, 2, 1, 1}
	for _, v := range dotSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{4, 8, 0, 0, 0, 0})
	f.Add([]byte{1, 40, 67, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		tc := dotCase{m: int(data[0] % 13), n: int(data[1] % 41), k: int(data[2] % 70), j0: int(data[3] % 4)}
		tc.ldc = tc.j0 + tc.n + int(data[4]%3)
		withBias := data[5]&1 == 1
		vals := data[6:]
		next := func() float64 {
			if len(vals) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals))
			vals = vals[8:]
			return v
		}
		fill := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = next()
			}
			return s
		}
		tc.a, tc.bt, tc.c = fill(tc.m*tc.k), fill((tc.j0+tc.n)*tc.k), fill(tc.m*tc.ldc)
		if withBias {
			tc.bias = fill(tc.j0 + tc.n)
		}
		checkDotRows(t, tc)
	})
}

// BenchmarkDotRows times the kernel behind AffineBatchInto,
// AffineBatchBackward and AddMatMulNT, portable and as dispatched, on the
// shapes a training run's profile is made of — an LSTM gate tile of a
// 32-sample shard and the packed LSTM dW, both 4-row tiles — and on the
// single-row kernel's: one served OD at B = 1 through the OD encoder's
// first layer (1×67×32), single rows at k = 2, 7, 16 and 20, which must
// not be slower dispatched, and a 3-row micro-batch.
func BenchmarkDotRows(b *testing.B) {
	kernels := []struct {
		name string
		f    func(c []float64, ldc int, a []float64, m, k int, bt []float64, j0, j1 int, bias []float64)
	}{{"portable", dotRowsGo}, {"dispatched", dotRows}}
	for _, kern := range kernels {
		for _, dims := range [][3]int{{32, 64, 32}, {128, 433, 64}, {1, 67, 32}, {1, 20, 32}, {3, 67, 32}, {1, 2, 32}, {1, 7, 32}, {1, 16, 32}} {
			m, k, n := dims[0], dims[1], dims[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, m, k, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				a, bt, c := randTensor(rng, m, k), randTensor(rng, n, k), New(m, n)
				kern.f(c.Data, n, a.Data, m, k, bt.Data, 0, n, nil) // grow the pooled panel
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kern.f(c.Data, n, a.Data, m, k, bt.Data, 0, n, nil)
				}
			})
		}
	}
}
