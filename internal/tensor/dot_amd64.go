//go:build amd64 && !purego

package tensor

// useAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 (OSXSAVE, AVX), XGETBV's XCR0 (XMM and YMM state)
// and CPUID leaf 7 (AVX2).
var useAVX2 = hasAVX2()

// AVX2 reports whether this build dispatches to AVX2 assembly: the CPU has
// AVX2 and the build is amd64 without the purego tag. Other packages' SIMD
// kernels ask it rather than probing the CPU again.
func AVX2() bool { return useAVX2 }

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with the given leaf and subleaf (dot_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (dot_amd64.s).
func xgetbv() (eax, edx uint32)

// dotPanel4x8 is dotRows' SIMD tile (dot_amd64.s). For every row i < m of
// A [m, k] (m a multiple of 4) and every column jj < 8 it sums
// s = Σ_p A[i][p]·panel[p*8+jj] over p ascending from zero, one YMM lane per
// output element — VMULPD then VADDPD, each rounding as MULSD and ADDSD do,
// never fused — and then adds s to c[i*ldc+jj], or with bias non-nil stores
// s + bias[jj] there: the same operations in the same order as dotRowsGo.
func dotPanel4x8(c []float64, ldc int, a []float64, m, k int, panel, bias []float64)

// dotRow is dotRows' single-row SIMD kernel (dot_amd64.s). For every
// j < n (n a multiple of 8) it sums s = Σ_p a[p]·bt[j*k+p] over p ascending
// from zero, one YMM lane per output, two p a step: VMULPD then VADDPD, each
// rounding as MULSD and ADDSD do, never fused; an odd k's last p comes
// after the pairs. It then adds s to c[j], or with bias non-nil stores
// s + bias[j] there: the same operations in the same order as dotRowsGo.
// k must be at least 2.
func dotRow(c, a []float64, k int, bt []float64, n int, bias []float64)

// dotRows computes, for every row i of A [m, k] and every row j ∈ [j0, j1)
// of Bt, the dot product s = Σ_p A[i][p]·Bt[j][p], summed over p ascending
// from zero. With bias nil it adds s to c[i*ldc+j]; otherwise it stores
// s + bias[j] there. On a CPU with AVX2 every whole 4-row × 8-column tile
// runs in dotPanel4x8 against eight rows of Bt packed p-major into a panel,
// and every other row — all of them when m < 4, the m % 4 remainder
// otherwise — runs its whole 8-column groups in dotRow when k ≥ 2. The
// columns past the last multiple of 8, calls with fewer than 8 columns, and
// the remainder rows of a k < 2 call run in dotRowsGo. Each element is
// summed in one order on every path, so which path computes it never
// changes a bit.
func dotRows(c []float64, ldc int, a []float64, m, k int, bt []float64, j0, j1 int, bias []float64) {
	m4, n8 := m&^3, (j1-j0)&^7
	if !useAVX2 || m == 0 || n8 == 0 || (m4 == 0 && k < 2) {
		dotRowsGo(c, ldc, a, m, k, bt, j0, j1, bias)
		return
	}
	// The assembly does not check bounds: slice to what it reads and
	// writes first, so a short operand panics here as dotRowsGo would.
	c, a, bt = c[:(m-1)*ldc+j1], a[:m*k], bt[:j1*k]
	if bias != nil {
		bias = bias[:j1]
	}
	if m4 > 0 {
		sp := scratchPool.Get().(*[]float64)
		if cap(*sp) < 8*k {
			*sp = make([]float64, 8*k)
		}
		panel := (*sp)[:8*k]
		var bj []float64
		for j := j0; j < j0+n8; j += 8 {
			for jj, row := 0, bt[j*k:]; jj < 8; jj, row = jj+1, row[k:] {
				for p, v := range row[:k] {
					panel[p*8+jj] = v
				}
			}
			if bias != nil {
				bj = bias[j : j+8]
			}
			dotPanel4x8(c[j:], ldc, a, m4, k, panel, bj)
		}
		scratchPool.Put(sp)
	}
	if m4 < m {
		if k < 2 {
			dotRowsGo(c[m4*ldc:], ldc, a[m4*k:], m-m4, k, bt, j0, j0+n8, bias)
		} else {
			var bj []float64
			if bias != nil {
				bj = bias[j0 : j0+n8]
			}
			for i := m4; i < m; i++ {
				dotRow(c[i*ldc+j0:i*ldc+j0+n8], a[i*k:(i+1)*k], k, bt[j0*k:(j0+n8)*k], n8, bj)
			}
		}
	}
	if j0+n8 < j1 {
		dotRowsGo(c, ldc, a, m, k, bt, j0+n8, j1, bias)
	}
}
