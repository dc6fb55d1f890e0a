//go:build amd64 && !purego

package embed

import "deepod/internal/tensor"

// trainPair5AVX2 is trainPair5Go in AVX2 assembly (pair_amd64.s) for a width
// of 4n, n ≥ 1: the five dot chains, σ, g_s = (σ_s − label_s)·lr and the
// update in one call. Every element is computed with the same operations in
// the same order as trainPair5Go — VMULPD and VADDPD round as MULSD and ADDSD
// do, never fused — so which path runs never changes a bit.
//
//go:noescape
func trainPair5AVX2(vi, out *float64, t *[pairTargets]int, n int, lr float64)

// trainPair5 is trainPair's update for five pairwise-distinct targets: the
// assembly on a CPU with AVX2 (tensor's probe) when the width is a multiple
// of 4, trainPair5Go otherwise.
func trainPair5(vi, out []float64, t *[pairTargets]int, lr float64) {
	dim := len(vi)
	if !tensor.AVX2() || dim == 0 || dim%4 != 0 {
		trainPair5Go(vi, out, t, lr)
		return
	}
	// The assembly does not check bounds: touch the last element of every
	// row first, so a target outside out panics here as trainPair5Go would.
	for _, target := range t {
		_ = out[(target+1)*dim-1]
	}
	trainPair5AVX2(&vi[0], &out[0], t, dim/4, lr)
}
