//go:build !amd64 || purego

package tensor

// convTapsLanes has no lane kernel off amd64 or under the purego tag:
// conv2DBackward's lanes flag is always false here (useAVX2).
func convTapsLanes(gradX, gkt, x, kt, g []float64, oc, c, h, w, kh, kw, iy0, ix0, kyLo, kyHi, kxLo, kxHi int) {
	panic("tensor: convTapsLanes without AVX2")
}
