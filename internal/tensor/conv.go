package tensor

import "fmt"

// Conv2D computes a stride-configurable 2-D cross-correlation of x by k.
//
// x has shape [C, H, W]; k has shape [OC, C, KH, KW]. The input is
// zero-padded by padH rows on top/bottom and padW columns on left/right.
// The output has shape [OC, H', W'] with H' = (H+2*padH-KH)/strideH + 1 and
// W' = (W+2*padW-KW)/strideW + 1.
//
// The DeepOD time-interval encoder uses 3×1 kernels with padH=1 (Formulas
// 5–7 of the paper); the traffic-condition CNN uses 3×3 kernels with
// stride 2.
func Conv2D(x, k *Tensor, padH, padW, strideH, strideW int) *Tensor {
	oc, oh, ow := conv2DOutShape(x, k, padH, padW, strideH, strideW)
	out := New(oc, oh, ow)
	conv2DForward(out, x, k, padH, padW, strideH, strideW)
	return out
}

// Conv2DInto is Conv2D with the output carved from an arena instead of the
// heap, for allocation-free training steps.
func Conv2DInto(a *Arena, x, k *Tensor, padH, padW, strideH, strideW int) *Tensor {
	oc, oh, ow := conv2DOutShape(x, k, padH, padW, strideH, strideW)
	out := a.New(oc, oh, ow)
	conv2DForward(out, x, k, padH, padW, strideH, strideW)
	return out
}

func conv2DOutShape(x, k *Tensor, padH, padW, strideH, strideW int) (oc, oh, ow int) {
	_, h, w := convCheck(x, k)
	kh, kw := k.Shape[2], k.Shape[3]
	oc = k.Shape[0]
	oh = (h+2*padH-kh)/strideH + 1
	ow = (w+2*padW-kw)/strideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D output would be empty (x %v, k %v, pad %d,%d stride %d,%d)",
			x.Shape, k.Shape, padH, padW, strideH, strideW))
	}
	return oc, oh, ow
}

// conv2DForward accumulates each output element over (ci, ky, kx) in
// ascending order, visiting only in-bounds taps. The valid kernel ranges are
// computed per output row/column instead of branch-testing every tap, and the
// innermost loop runs over two pre-sliced rows — the sum order (and therefore
// every output bit) is identical to the naive bounds-checked tap loop this
// replaces, which matters for checkpoint replay.
//
// Width-1 kernels over unpadded, unstrided columns (every tie.conv*) go to
// conv2DColumnForward: this loop nest would run its innermost loop over one
// element per output.
func conv2DForward(out, x, k *Tensor, padH, padW, strideH, strideW int) {
	if k.Shape[3] == 1 && strideW == 1 && padW == 0 {
		conv2DColumnForward(out, x, k, padH, strideH)
		return
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh, kw := k.Shape[0], k.Shape[2], k.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	for o := 0; o < oc; o++ {
		kbase := o * c * kh * kw
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*strideH - padH
			kyLo, kyHi := validTaps(iy0, kh, h)
			outRow := out.Data[(o*oh+oy)*ow : (o*oh+oy+1)*ow]
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*strideW - padW
				kxLo, kxHi := validTaps(ix0, kw, w)
				if kyLo >= kyHi || kxLo >= kxHi {
					outRow[ox] = 0
					continue
				}
				var s float64
				for ci := 0; ci < c; ci++ {
					xch := x.Data[ci*h*w : (ci+1)*h*w]
					kch := k.Data[kbase+ci*kh*kw : kbase+(ci+1)*kh*kw]
					for ky := kyLo; ky < kyHi; ky++ {
						xoff := (iy0+ky)*w + ix0
						xrow := xch[xoff+kxLo : xoff+kxHi]
						krow := kch[ky*kw+kxLo : ky*kw+kxHi]
						for j, kv := range krow {
							s += xrow[j] * kv
						}
					}
				}
				outRow[ox] = s
			}
		}
	}
}

// validTaps returns the kernel taps [lo, hi) of a k-tap window starting at
// input index i0 that fall inside an axis of n elements.
func validTaps(i0, k, n int) (lo, hi int) {
	hi = k
	if i0 < 0 {
		lo = -i0
	}
	if i0+hi > n {
		hi = n - i0
	}
	return lo, hi
}

// conv2DColumnForward is conv2DForward for kw == 1, strideW == 1, padW == 0,
// where an output row is a sum of scaled input rows: the column is the
// innermost loop and one kernel weight is held across it. Each output element
// still starts at zero and adds its taps in (ci, ky) ascending order, so every
// bit equals the generic kernel's.
func conv2DColumnForward(out, x, k *Tensor, padH, strideH int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh := k.Shape[0], k.Shape[2]
	oh := out.Shape[1]
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*strideH - padH
			kyLo, kyHi := validTaps(iy0, kh, h)
			outRow := out.Data[(o*oh+oy)*w : (o*oh+oy+1)*w : (o*oh+oy+1)*w]
			for j := range outRow {
				outRow[j] = 0
			}
			for ci := 0; ci < c; ci++ {
				for ky := kyLo; ky < kyHi; ky++ {
					kv := k.Data[(o*c+ci)*kh+ky]
					xoff := (ci*h + iy0 + ky) * w
					xrow := x.Data[xoff : xoff+w : xoff+w][:len(outRow)]
					for j, xv := range xrow {
						outRow[j] += xv * kv
					}
				}
			}
		}
	}
}

// Conv2DBackward returns the gradients of a Conv2D call with respect to its
// input and kernel, given the gradient of the loss with respect to the
// output. Shapes must match the corresponding forward call.
func Conv2DBackward(x, k, gradOut *Tensor, padH, padW, strideH, strideW int) (gradX, gradK *Tensor) {
	c, h, w := convCheck(x, k)
	oc, kh, kw := k.Shape[0], k.Shape[2], k.Shape[3]
	gradX = New(c, h, w)
	gradK = New(oc, c, kh, kw)
	conv2DBackward(gradX, gradK, x, k, gradOut, padH, padW, strideH, strideW)
	return gradX, gradK
}

// Conv2DBackwardInto is Conv2DBackward with the gradient scratch carved from
// an arena; the returned tensors are valid until the arena is reset.
func Conv2DBackwardInto(a *Arena, x, k, gradOut *Tensor, padH, padW, strideH, strideW int) (gradX, gradK *Tensor) {
	c, h, w := convCheck(x, k)
	oc, kh, kw := k.Shape[0], k.Shape[2], k.Shape[3]
	gradX = a.New(c, h, w)
	gradK = a.New(oc, c, kh, kw)
	conv2DBackward(gradX, gradK, x, k, gradOut, padH, padW, strideH, strideW)
	return gradX, gradK
}

// conv2DBackward mirrors conv2DForward's hoisted-range structure: the same
// in-bounds taps are visited in the same (o, oy, ox, ci, ky, kx) order as the
// naive loop, so both gradients accumulate bit-identically.
func conv2DBackward(gradX, gradK, x, k, gradOut *Tensor, padH, padW, strideH, strideW int) {
	if k.Shape[3] == 1 && strideW == 1 && padW == 0 {
		conv2DColumnBackward(gradX, gradK, x, k, gradOut, padH, strideH)
		return
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh, kw := k.Shape[0], k.Shape[2], k.Shape[3]
	oh, ow := gradOut.Shape[1], gradOut.Shape[2]
	for o := 0; o < oc; o++ {
		kbase := o * c * kh * kw
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*strideH - padH
			kyLo, kyHi := validTaps(iy0, kh, h)
			gRow := gradOut.Data[(o*oh+oy)*ow : (o*oh+oy+1)*ow]
			for ox := 0; ox < ow; ox++ {
				g := gRow[ox]
				if g == 0 {
					continue
				}
				ix0 := ox*strideW - padW
				kxLo, kxHi := validTaps(ix0, kw, w)
				if kyLo >= kyHi || kxLo >= kxHi {
					continue
				}
				for ci := 0; ci < c; ci++ {
					xch := x.Data[ci*h*w : (ci+1)*h*w]
					gxch := gradX.Data[ci*h*w : (ci+1)*h*w]
					kch := k.Data[kbase+ci*kh*kw : kbase+(ci+1)*kh*kw]
					gkch := gradK.Data[kbase+ci*kh*kw : kbase+(ci+1)*kh*kw]
					for ky := kyLo; ky < kyHi; ky++ {
						xoff := (iy0+ky)*w + ix0
						xrow := xch[xoff+kxLo : xoff+kxHi]
						gxrow := gxch[xoff+kxLo : xoff+kxHi]
						krow := kch[ky*kw+kxLo : ky*kw+kxHi]
						gkrow := gkch[ky*kw+kxLo : ky*kw+kxHi]
						for j := range krow {
							gxrow[j] += g * krow[j]
							gkrow[j] += g * xrow[j]
						}
					}
				}
			}
		}
	}
}

// conv2DColumnBackward is conv2DBackward for the shapes conv2DColumnForward
// takes. gradK[o,ci,ky] is held in a local across the output row and still
// accumulates over (oy, ox) ascending; gradX[ci,iy,ix] still accumulates over
// (o, oy, ky) ascending; zero output gradients are still skipped, not added:
// both gradients equal the generic kernel's bit for bit.
func conv2DColumnBackward(gradX, gradK, x, k, gradOut *Tensor, padH, strideH int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh := k.Shape[0], k.Shape[2]
	oh := gradOut.Shape[1]
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*strideH - padH
			kyLo, kyHi := validTaps(iy0, kh, h)
			gRow := gradOut.Data[(o*oh+oy)*w : (o*oh+oy+1)*w : (o*oh+oy+1)*w]
			for ci := 0; ci < c; ci++ {
				for ky := kyLo; ky < kyHi; ky++ {
					ki := (o*c+ci)*kh + ky
					kv, gk := k.Data[ki], gradK.Data[ki]
					xoff := (ci*h + iy0 + ky) * w
					xrow := x.Data[xoff : xoff+w : xoff+w][:len(gRow)]
					gxrow := gradX.Data[xoff : xoff+w : xoff+w][:len(gRow)]
					for j, g := range gRow {
						if g == 0 {
							continue
						}
						gxrow[j] += g * kv
						gk += g * xrow[j]
					}
					gradK.Data[ki] = gk
				}
			}
		}
	}
}

func convCheck(x, k *Tensor) (c, h, w int) {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("tensor: Conv2D input must be [C,H,W], got %v", x.Shape))
	}
	if k.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D kernel must be [OC,C,KH,KW], got %v", k.Shape))
	}
	if k.Shape[1] != x.Shape[0] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %v kernel %v", x.Shape, k.Shape))
	}
	return x.Shape[0], x.Shape[1], x.Shape[2]
}
