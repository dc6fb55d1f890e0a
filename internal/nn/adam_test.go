package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// adamSpecials are the gradients the Adam equivalence checks mix in: signed
// zeros, subnormals, magnitudes whose square overflows to +Inf or
// underflows to zero, infinities and NaN.
var adamSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060,
	1e300, -1e300, math.MaxFloat64, 1e-200, math.Inf(1), math.Inf(-1), math.NaN(), 1, -0.5,
}

// checkAdam runs steps Adam updates of one parameter through adamUpdate
// (the four-lane kernel where it applies) and adamGo, step t with the
// gradient grads[t], from the same weights and zero moments, and fails on
// any weight or moment whose bits differ (a NaN need only be NaN on both
// sides).
func checkAdam(t testing.TB, value []float64, grads [][]float64) {
	n := len(value)
	got := [3][]float64{append([]float64(nil), value...), make([]float64, n), make([]float64, n)}
	want := [3][]float64{append([]float64(nil), value...), make([]float64, n), make([]float64, n)}
	a := NewAdam(0.01)
	for step, g := range grads {
		a.t++
		k := a.coef()
		adamUpdate(got[0], got[1], got[2], g, &k)
		adamGo(want[0], want[1], want[2], g, &k)
		for s, name := range []string{"value", "m", "v"} {
			for i := range want[s] {
				p, q := got[s][i], want[s][i]
				if math.Float64bits(p) != math.Float64bits(q) && !(math.IsNaN(p) && math.IsNaN(q)) {
					t.Fatalf("n=%d step %d: %s[%d] = %v (%#x), portable %v (%#x); g = %v",
						n, step+1, name, i, p, math.Float64bits(p), q, math.Float64bits(q), g[i])
				}
			}
		}
	}
}

// TestAdamLanesMatchPortable holds Adam's update to its portable body at
// Float64bits: widths 0..13 (every n % 4 remainder), five steps (the bias
// corrections change each step), gradients that are mostly normal with
// zeros, subnormals, huge values, infinities and NaN mixed in.
func TestAdamLanesMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for n := 0; n <= 13; n++ {
		value := make([]float64, n)
		for i := range value {
			value[i] = rng.NormFloat64()
		}
		grads := make([][]float64, 5)
		for s := range grads {
			grads[s] = make([]float64, n)
			for i := range grads[s] {
				grads[s][i] = rng.NormFloat64() * 1e-3
				if rng.Intn(3) == 0 {
					grads[s][i] = adamSpecials[rng.Intn(len(adamSpecials))]
				}
			}
		}
		checkAdam(t, value, grads)
	}
}

// FuzzAdamStep is TestAdamLanesMatchPortable's property on any bytes: the
// first two choose the width (0..15) and the number of steps (1..8), the
// rest are the weights' and then each step's gradients' bit patterns, 8
// bytes a value (zero once exhausted, so a step's v can stay 0).
func FuzzAdamStep(f *testing.F) {
	seed := []byte{13, 3}
	for _, v := range adamSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{4, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{8, 7}, math.Float64bits(0x1p-1070)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, steps := int(data[0]%16), 1+int(data[1]%8)
		vals := data[2:]
		fill := func() []float64 {
			s := make([]float64, n)
			for i := range s {
				if len(vals) < 8 {
					break
				}
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals))
				vals = vals[8:]
			}
			return s
		}
		value := fill()
		grads := make([][]float64, steps)
		for s := range grads {
			grads[s] = fill()
		}
		checkAdam(t, value, grads)
	})
}
