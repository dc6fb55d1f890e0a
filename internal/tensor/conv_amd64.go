//go:build amd64 && !purego

package tensor

// convTapsAVX2 is convTapsLanes' loop in AVX2 assembly (conv_amd64.s), with
// its strides in bytes.
//
//go:noescape
func convTapsAVX2(gk, kt, x, gx, grad *float64, ocb, c, nky, nkx, tky, xky, tci, xci int)

// convTapsLanes is conv2DBackward at one output position whose oc channels
// (a multiple of 4) all have a non-zero gradient, g[o] for channel o: for
// every in-bounds tap (ci, ky ∈ [kyLo, kyHi), kx ∈ [kxLo, kxHi) ascending)
// of the window at input row iy0 and column ix0, gkt gains g·x in four-lane
// VMULPD+VADDPD, and with gradX non-nil the tap's input gradient gains
// s = Σ_o g·k, summed from +0 over the lanes' products, o ascending, and
// added once — the operations and order of conv2DBackward's scalar loop.
func convTapsLanes(gradX, gkt, x, kt, g []float64, oc, c, h, w, kh, kw, iy0, ix0, kyLo, kyHi, kxLo, kxHi int) {
	nky, nkx := kyHi-kyLo, kxHi-kxLo
	if c == 0 || nky <= 0 || nkx <= 0 {
		return
	}
	// The assembly does not check bounds: index the first and last element
	// of each operand here, so a short one panics as the scalar loop would.
	x0 := (iy0+kyLo)*w + ix0 + kxLo
	xl := ((c-1)*h+iy0+kyHi-1)*w + ix0 + kxHi - 1
	t0 := (kyLo*kw + kxLo) * oc
	tl := (((c-1)*kh+kyHi-1)*kw+kxHi-1)*oc + oc - 1
	_, _, _, _ = x[xl], gkt[tl], kt[tl], g[oc-1]
	var gx *float64
	if gradX != nil {
		_ = gradX[xl]
		gx = &gradX[x0]
	}
	convTapsAVX2(&gkt[t0], &kt[t0], &x[x0], gx, &g[0], oc*8, c, nky, nkx,
		(kw-nkx)*oc*8, (w-nkx)*8, (kh-nky)*kw*oc*8, (h-nky)*w*8)
}
