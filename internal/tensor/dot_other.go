//go:build !amd64 || purego

package tensor

// useAVX2 is false off amd64 and under the purego tag: dotRows and dotCols
// are the portable kernels alone.
const useAVX2 = false

// AVX2 reports whether this build dispatches to AVX2 assembly: never here.
func AVX2() bool { return useAVX2 }

// dotRows computes every dot product of rows of A and Bt (dotRowsGo).
func dotRows(c []float64, ldc int, a []float64, m, k int, bt []float64, j0, j1 int, bias []float64) {
	dotRowsGo(c, ldc, a, m, k, bt, j0, j1, bias)
}

// dotCols computes every dot product of A's rows and B's columns
// (dotColsGo).
func dotCols(c []float64, ldc int, a []float64, ai, ap, m, k int, b []float64, ldb, j0, j1 int, bias []float64) {
	dotColsGo(c, ldc, a, ai, ap, m, k, b, ldb, j0, j1, bias)
}
