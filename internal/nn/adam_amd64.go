//go:build amd64 && !purego

package nn

import "deepod/internal/tensor"

// adamAVX2 is adamGo in AVX2 assembly (adam_amd64.s) for n weights, n a
// multiple of 4.
//
//go:noescape
func adamAVX2(value, m, v, grad *float64, n int, k *adamCoef)

// adamUpdate is Adam's update of one parameter: four weights at a time in
// adamAVX2 on a CPU with AVX2 (tensor's probe), the rest in adamGo, every
// weight with the same operations in the same order.
func adamUpdate(value, m, v, g []float64, k *adamCoef) {
	n4 := 0
	if tensor.AVX2() {
		n4 = len(value) &^ 3
	}
	if n4 > 0 {
		// The assembly does not check bounds: a short operand panics here.
		_, _, _ = m[n4-1], v[n4-1], g[n4-1]
		adamAVX2(&value[0], &m[0], &v[0], &g[0], n4, k)
	}
	adamGo(value[n4:], m[n4:], v[n4:], g[n4:], k)
}
