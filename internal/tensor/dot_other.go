//go:build !amd64 || purego

package tensor

// useAVX2 is false off amd64 and under the purego tag: dotRows is the
// portable kernel alone.
const useAVX2 = false

// dotRows computes every dot product of rows of A and Bt (dotRowsGo).
func dotRows(c []float64, ldc int, a []float64, m, k int, bt []float64, j0, j1 int, bias []float64) {
	dotRowsGo(c, ldc, a, m, k, bt, j0, j1, bias)
}
