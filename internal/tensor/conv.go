package tensor

import "fmt"

// Conv2DInto computes a stride-configurable 2-D cross-correlation of every
// sample of x [N, C, H, W] by k [OC, C, KH, KW], carving the output
// [N, OC, H', W'] out of an arena for allocation-free training steps. Each
// sample is zero-padded by padH rows on top/bottom and padW columns on
// left/right, so H' = (H+2*padH-KH)/strideH + 1 and
// W' = (W+2*padW-KW)/strideW + 1. Samples run one after another through the
// same kernel, so sample n of the result depends on sample n alone.
//
// The DeepOD time-interval encoder uses 3×1 kernels with padH=1 (Formulas
// 5–7 of the paper); the traffic-condition CNN uses 3×3 kernels with
// stride 2.
func Conv2DInto(a *Arena, x, k *Tensor, padH, padW, strideH, strideW int) *Tensor {
	n, xs := convSample(x, k)
	oc, oh, ow := conv2DOutShape(&xs, k, padH, padW, strideH, strideW)
	out := a.New(n, oc, oh, ow)
	kt := kernelTaps(a.floats(k.Size()), k)
	osz := oc * oh * ow
	os := Tensor{Shape: out.Shape[1:]}
	for i := 0; i < n; i++ {
		xs.Data = x.Data[i*len(xs.Data) : (i+1)*len(xs.Data)]
		os.Data = out.Data[i*osz : (i+1)*osz]
		conv2DForward(&os, &xs, kt, oc, k.Shape[2], k.Shape[3], padH, padW, strideH, strideW)
	}
	return out
}

// convSample checks a conv input x [N, C, H, W] against the kernel k
// [OC, C, KH, KW] and returns N and a [C, H, W] header over sample 0.
func convSample(x, k *Tensor) (n int, sample Tensor) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D input must be [N,C,H,W], got %v", x.Shape))
	}
	if k.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D kernel must be [OC,C,KH,KW], got %v", k.Shape))
	}
	if k.Shape[1] != x.Shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %v kernel %v", x.Shape, k.Shape))
	}
	sz := x.Shape[1] * x.Shape[2] * x.Shape[3]
	return x.Shape[0], Tensor{Shape: x.Shape[1:], Data: x.Data[:sz]}
}

// conv2DOutShape returns the output shape of one sample x [C, H, W].
func conv2DOutShape(x, k *Tensor, padH, padW, strideH, strideW int) (oc, oh, ow int) {
	h, w := x.Shape[1], x.Shape[2]
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

// kernelTaps writes k [OC, C, KH, KW] into dst tap-major, [C·KH·KW, OC]:
// the OC weights one input tap meets lie side by side.
func kernelTaps(dst []float64, k *Tensor) []float64 {
	oc := k.Shape[0]
	taps := k.Size() / oc
	for o := 0; o < oc; o++ {
		for t, v := range k.Data[o*taps : (o+1)*taps] {
			dst[t*oc+o] = v
		}
	}
	return dst
}

// conv2DForward computes one sample, kt being the kernel in kernelTaps
// layout. Each output element sums its in-bounds taps over (ci, ky, kx)
// ascending from zero — the order of the naive bounds-checked tap loop, so
// every output bit matches it (checkpoint replay depends on that). The valid
// tap ranges are computed once per output position, and four output
// channels run at a time in four accumulators that share each input load.
//
// Width-1 kernels over unpadded, unstrided columns (every tie.conv*) go to
// conv2DColumnForward: this loop nest would run its innermost loop over one
// element per output.
func conv2DForward(out, x *Tensor, kt []float64, oc, kh, kw, padH, padW, strideH, strideW int) {
	if kw == 1 && strideW == 1 && padW == 0 {
		conv2DColumnForward(out, x, kt, oc, kh, padH, strideH)
		return
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := out.Shape[1], out.Shape[2]
	plane := oh * ow
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*strideH - padH
		kyLo, kyHi := validTaps(iy0, kh, h)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*strideW - padW
			kxLo, kxHi := validTaps(ix0, kw, w)
			pos := oy*ow + ox
			o := 0
			for ; o+4 <= oc; o += 4 {
				var s0, s1, s2, s3 float64
				for ci := 0; ci < c; ci++ {
					for ky := kyLo; ky < kyHi; ky++ {
						xoff := (ci*h+iy0+ky)*w + ix0
						toff := (ci*kh+ky)*kw*oc + o
						for kx := kxLo; kx < kxHi; kx++ {
							xv := x.Data[xoff+kx]
							k4 := kt[toff+kx*oc : toff+kx*oc+4 : toff+kx*oc+4]
							s0 += float64(xv * k4[0])
							s1 += float64(xv * k4[1])
							s2 += float64(xv * k4[2])
							s3 += float64(xv * k4[3])
						}
					}
				}
				out.Data[o*plane+pos] = s0
				out.Data[(o+1)*plane+pos] = s1
				out.Data[(o+2)*plane+pos] = s2
				out.Data[(o+3)*plane+pos] = s3
			}
			for ; o < oc; o++ {
				var s float64
				for ci := 0; ci < c; ci++ {
					for ky := kyLo; ky < kyHi; ky++ {
						xoff := (ci*h+iy0+ky)*w + ix0
						toff := (ci*kh+ky)*kw*oc + o
						for kx := kxLo; kx < kxHi; kx++ {
							s += float64(x.Data[xoff+kx] * kt[toff+kx*oc])
						}
					}
				}
				out.Data[o*plane+pos] = s
			}
		}
	}
}

// conv2DColumnForward is conv2DForward for kw == 1, strideW == 1, padW == 0,
// where an output row is a sum of scaled input rows: the column is the
// innermost loop and one kernel weight is held across it. Each output element
// still starts at zero and adds its taps in (ci, ky) ascending order, so every
// bit equals the generic kernel's.
func conv2DColumnForward(out, x *Tensor, kt []float64, oc, kh, padH, strideH int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
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
					kv := kt[(ci*kh+ky)*oc+o]
					xoff := (ci*h + iy0 + ky) * w
					xrow := x.Data[xoff : xoff+w : xoff+w][:len(outRow)]
					for j, xv := range xrow {
						outRow[j] += float64(xv * kv)
					}
				}
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

// Conv2DBackwardInto returns the gradients of a Conv2DInto call with respect
// to its input and kernel, given the gradient of the loss with respect to
// its output, with the gradient scratch carved from an arena; the returned
// tensors are valid until the arena is reset. gradX is per sample and gradK
// accumulates the samples in order. With wantX false gradX is nil and not
// computed (x is an input without a gradient, as the traffic CNN's speed
// matrix is).
func Conv2DBackwardInto(a *Arena, x, k, gradOut *Tensor, wantX bool, padH, padW, strideH, strideW int) (gradX, gradK *Tensor) {
	n, xs := convSample(x, k)
	gradK = a.New(k.Shape...)
	kt := kernelTaps(a.floats(k.Size()), k)
	gkt := a.floats(k.Size())
	xsz, gsz := len(xs.Data), gradOut.Size()/n
	gs := Tensor{Shape: gradOut.Shape[1:]}
	var gxs *Tensor
	if wantX {
		gradX = a.New(x.Shape...)
		gxs = &Tensor{Shape: xs.Shape}
	}
	for i := 0; i < n; i++ {
		xs.Data = x.Data[i*xsz : (i+1)*xsz]
		gs.Data = gradOut.Data[i*gsz : (i+1)*gsz]
		if gxs != nil {
			gxs.Data = gradX.Data[i*xsz : (i+1)*xsz]
		}
		conv2DBackward(gxs, gkt, &xs, kt, &gs, k.Shape[0], k.Shape[2], k.Shape[3], padH, padW, strideH, strideW, useAVX2)
	}
	tapsKernel(gradK, gkt)
	return gradX, gradK
}

// tapsKernel adds gkt, a kernel gradient in kernelTaps layout, into gradK
// [OC, C, KH, KW].
func tapsKernel(gradK *Tensor, gkt []float64) {
	oc := gradK.Shape[0]
	taps := gradK.Size() / oc
	for o := 0; o < oc; o++ {
		for t := range gradK.Data[o*taps : (o+1)*taps] {
			gradK.Data[o*taps+t] += gkt[t*oc+o]
		}
	}
}

// conv2DBackward accumulates one sample's gradients, output position by
// output position (oy, ox ascending). At each position the output channels
// with a non-zero gradient are gathered once — a zero output gradient is
// skipped, not added as 0·x, which with an infinite activation would be NaN
// — and then for every in-bounds tap (ci, ky, kx ascending) the kernel
// gradient gkt (kernelTaps layout) gains g·x per such channel, while the
// input gradient gains the tap's Σ_o g·k, summed over those channels
// ascending and added once. So a kernel-gradient element accumulates over
// (oy, ox) ascending and an input-gradient element over (oy, ox, ky, kx)
// ascending. A nil gradX skips the input gradient. With lanes set (the
// AVX2 build) and oc a multiple of 4, a position whose channels all have a
// non-zero gradient runs in convTapsLanes, in the same order; every other
// position runs the scalar loop.
func conv2DBackward(gradX *Tensor, gkt []float64, x *Tensor, kt []float64, gradOut *Tensor, oc, kh, kw, padH, padW, strideH, strideW int, lanes bool) {
	if kw == 1 && strideW == 1 && padW == 0 {
		conv2DColumnBackward(gradX, gkt, x, kt, gradOut, oc, kh, padH, strideH)
		return
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := gradOut.Shape[1], gradOut.Shape[2]
	plane := oh * ow
	lanes = lanes && oc%4 == 0
	var nzBuf [8]int
	var gBuf [8]float64
	nz, gs := nzBuf[:0], gBuf[:0]
	if oc > len(nzBuf) {
		nz, gs = make([]int, 0, oc), make([]float64, 0, oc)
	}
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*strideH - padH
		kyLo, kyHi := validTaps(iy0, kh, h)
		for ox := 0; ox < ow; ox++ {
			nz, gs = nz[:0], gs[:0]
			for o := 0; o < oc; o++ {
				if g := gradOut.Data[o*plane+oy*ow+ox]; g != 0 {
					nz, gs = append(nz, o), append(gs, g)
				}
			}
			if len(nz) == 0 {
				continue
			}
			ix0 := ox*strideW - padW
			kxLo, kxHi := validTaps(ix0, kw, w)
			if lanes && len(nz) == oc {
				var gxd []float64
				if gradX != nil {
					gxd = gradX.Data
				}
				convTapsLanes(gxd, gkt, x.Data, kt, gs, oc, c, h, w, kh, kw, iy0, ix0, kyLo, kyHi, kxLo, kxHi)
				continue
			}
			for ci := 0; ci < c; ci++ {
				for ky := kyLo; ky < kyHi; ky++ {
					xoff := (ci*h+iy0+ky)*w + ix0
					toff := (ci*kh + ky) * kw * oc
					for kx := kxLo; kx < kxHi; kx++ {
						xv := x.Data[xoff+kx]
						t0 := toff + kx*oc
						gk, kv := gkt[t0:t0+oc:t0+oc], kt[t0:t0+oc:t0+oc]
						if gradX == nil {
							for q, o := range nz {
								gk[o] += float64(gs[q] * xv)
							}
							continue
						}
						var s float64
						for q, o := range nz {
							g := gs[q]
							gk[o] += float64(g * xv)
							s += float64(g * kv[o])
						}
						gradX.Data[xoff+kx] += s
					}
				}
			}
		}
	}
}

// conv2DColumnBackward is conv2DBackward for the shapes conv2DColumnForward
// takes, in the same summation order: rows oy ascending; for each input row
// a tap reaches, the channels' g·k are summed per column (o ascending, zero
// gradients skipped) in a scratch row that is then added once; and
// gkt[ci,ky,o] is held in a local across the output row, accumulating over
// (oy, ox) ascending with zero gradients skipped. Both gradients equal the
// generic kernel's bit for bit.
func conv2DColumnBackward(gradX *Tensor, gkt []float64, x *Tensor, kt []float64, gradOut *Tensor, oc, kh, padH, strideH int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := gradOut.Shape[1]
	var accBuf [64]float64
	acc := accBuf[:0]
	if w > len(accBuf) {
		acc = make([]float64, 0, w)
	}
	acc = acc[:w]
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*strideH - padH
		kyLo, kyHi := validTaps(iy0, kh, h)
		for ci := 0; ci < c; ci++ {
			for ky := kyLo; ky < kyHi; ky++ {
				xoff := (ci*h + iy0 + ky) * w
				xrow := x.Data[xoff : xoff+w : xoff+w][:len(acc)]
				for j := range acc {
					acc[j] = 0
				}
				for o := 0; o < oc; o++ {
					gRow := gradOut.Data[(o*oh+oy)*w : (o*oh+oy+1)*w : (o*oh+oy+1)*w][:len(acc)]
					ti := (ci*kh+ky)*oc + o
					kv, gk := kt[ti], gkt[ti]
					for j, g := range gRow {
						if g == 0 {
							continue
						}
						acc[j] += float64(g * kv)
						gk += float64(g * xrow[j])
					}
					gkt[ti] = gk
				}
				if gradX != nil {
					gxrow := gradX.Data[xoff : xoff+w : xoff+w][:len(acc)]
					for j, v := range acc {
						gxrow[j] += v
					}
				}
			}
		}
	}
}
