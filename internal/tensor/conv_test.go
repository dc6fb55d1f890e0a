package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// conv runs Conv2DInto over x [N, C, H, W] on an arena of its own.
func conv(x, k *Tensor, padH, padW, strideH, strideW int) *Tensor {
	var a Arena
	return Conv2DInto(&a, x, k, padH, padW, strideH, strideW)
}

// convBackward runs Conv2DBackwardInto, input gradient included, on an arena
// of its own.
func convBackward(x, k, gradOut *Tensor, padH, padW, strideH, strideW int) (gradX, gradK *Tensor) {
	var a Arena
	return Conv2DBackwardInto(&a, x, k, gradOut, true, padH, padW, strideH, strideW)
}

func TestConv2DIdentityKernel(t *testing.T) {
	x := of([]float64{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	k := of([]float64{1}, 1, 1, 1, 1) // 1x1 identity
	y := conv(x, k, 0, 0, 1, 1)
	if !y.SameShape(x) {
		t.Fatalf("identity conv changed shape: %v", y.Shape)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed value at %d", i)
		}
	}
}

func TestConv2DSamePadding3x1(t *testing.T) {
	// The DeepOD time-interval encoder uses 3x1 kernels with padH=1 so the
	// Δd dimension is preserved (Formulas 5-6).
	x := New(1, 1, 5, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	k := New(4, 1, 3, 1)
	k.Fill(0.5)
	y := conv(x, k, 1, 0, 1, 1)
	if y.Shape[0] != 1 || y.Shape[1] != 4 || y.Shape[2] != 5 || y.Shape[3] != 4 {
		t.Fatalf("same-pad conv shape %v, want [1 4 5 4]", y.Shape)
	}
	at := func(t *Tensor, c, i, j int) float64 { return t.Data[(c*t.Shape[2]+i)*t.Shape[3]+j] }
	// Interior element (1, 2, 1): sum of x[0,1,1], x[0,2,1], x[0,3,1] times 0.5.
	want := (at(x, 0, 1, 1) + at(x, 0, 2, 1) + at(x, 0, 3, 1)) * 0.5
	if got := at(y, 1, 2, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("conv value %v, want %v", got, want)
	}
	// Top edge (any oc, 0, 1): padding row contributes zero.
	wantEdge := (at(x, 0, 0, 1) + at(x, 0, 1, 1)) * 0.5
	if got := at(y, 0, 0, 1); math.Abs(got-wantEdge) > 1e-12 {
		t.Fatalf("edge conv value %v, want %v", got, wantEdge)
	}
}

func TestConv2DStride(t *testing.T) {
	y := conv(New(3, 1, 8, 8), New(2, 1, 3, 3), 1, 1, 2, 2)
	if y.Shape[0] != 3 || y.Shape[1] != 2 || y.Shape[2] != 4 || y.Shape[3] != 4 {
		t.Fatalf("strided conv shape %v, want [3 2 4 4]", y.Shape)
	}
}

// TestConv2DPanicsOnChannelMismatch: a channel mismatch, and an input
// without the batch axis, are rejected.
func TestConv2DPanicsOnChannelMismatch(t *testing.T) {
	for name, x := range map[string]*Tensor{"channels": New(1, 2, 3, 3), "3-D input": New(3, 3, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: bad input %v accepted", name, x.Shape)
				}
			}()
			conv(x, New(1, 3, 1, 1), 0, 0, 1, 1)
		}()
	}
}

// TestConv2DBackwardFiniteDiff checks both returned gradients of a batch of
// two against central finite differences of a random scalar objective.
func TestConv2DBackwardFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randTensor(rng, 2, 2, 4, 3)
	k := randTensor(rng, 3, 2, 3, 1)
	padH, padW, sH, sW := 1, 0, 1, 1
	// objective: weighted sum of the conv output
	weights := randTensor(rng, conv(x, k, padH, padW, sH, sW).Shape...)
	obj := func() float64 {
		var s float64
		for i, v := range conv(x, k, padH, padW, sH, sW).Data {
			s += v * weights.Data[i]
		}
		return s
	}
	gx, gk := convBackward(x, k, weights, padH, padW, sH, sW)

	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		plus := obj()
		x.Data[i] = orig - h
		minus := obj()
		x.Data[i] = orig
		fd := (plus - minus) / (2 * h)
		if math.Abs(fd-gx.Data[i]) > 1e-5 {
			t.Fatalf("gradX[%d] = %v, finite diff %v", i, gx.Data[i], fd)
		}
	}
	for i := range k.Data {
		orig := k.Data[i]
		k.Data[i] = orig + h
		plus := obj()
		k.Data[i] = orig - h
		minus := obj()
		k.Data[i] = orig
		fd := (plus - minus) / (2 * h)
		if math.Abs(fd-gk.Data[i]) > 1e-5 {
			t.Fatalf("gradK[%d] = %v, finite diff %v", i, gk.Data[i], fd)
		}
	}
}

// naiveConv2D is the original bounds-checked tap loop over one sample x
// [C, H, W], kept as the bit-level reference for the forward kernel: each
// output element sums its in-bounds taps over (ci, ky, kx) ascending, so
// every output bit must match — checkpoint replay depends on it.
func naiveConv2D(x, k *Tensor, padH, padW, strideH, strideW int) *Tensor {
	oc, oh, ow := conv2DOutShape(x, k, padH, padW, strideH, strideW)
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	kh, kw := k.Shape[2], k.Shape[3]
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= w {
								continue
							}
							s += float64(x.Data[(ci*h+iy)*w+ix] * k.Data[((o*c+ci)*kh+ky)*kw+kx])
						}
					}
				}
				out.Data[(o*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

// naiveConv2DBackward is the bounds-checked reference for the backward
// kernel's summation order over one sample: output positions (oy, ox) ascending; at each,
// every in-bounds tap (ci, ky, kx) ascending; at each tap, the output
// channels with a non-zero gradient ascending — each adds g·x to its kernel
// gradient, and their Σ g·k is added once to the input gradient.
func naiveConv2DBackward(x, k, gradOut *Tensor, padH, padW, strideH, strideW int) (gradX, gradK *Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh, kw := k.Shape[0], k.Shape[2], k.Shape[3]
	oh, ow := gradOut.Shape[1], gradOut.Shape[2]
	gradX = New(c, h, w)
	gradK = New(oc, c, kh, kw)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ci := 0; ci < c; ci++ {
				for ky := 0; ky < kh; ky++ {
					iy := oy*strideH + ky - padH
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*strideW + kx - padW
						if ix < 0 || ix >= w {
							continue
						}
						var s float64
						any := false
						for o := 0; o < oc; o++ {
							g := gradOut.Data[(o*oh+oy)*ow+ox]
							if g == 0 {
								continue
							}
							any = true
							gradK.Data[((o*c+ci)*kh+ky)*kw+kx] += float64(g * x.Data[(ci*h+iy)*w+ix])
							s += float64(g * k.Data[((o*c+ci)*kh+ky)*kw+kx])
						}
						if any {
							gradX.Data[(ci*h+iy)*w+ix] += s
						}
					}
				}
			}
		}
	}
	return gradX, gradK
}

// TestConv2DMatchesNaiveBitExact sweeps shapes, paddings and strides —
// including the model's 3×3/stride-2 traffic CNN and 3×1/pad-1 time-interval
// encoder shapes, heavy padding and kernels larger than the padded overhang,
// then every width-1 shape the time-interval encoder can produce — and
// requires bitwise equality between the kernels, on a batch of one, and the
// naive reference for both the forward output and both gradients.
func TestConv2DMatchesNaiveBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type convCase struct {
		c, h, w, oc, kh, kw    int
		padH, padW, strH, strW int
	}
	cases := []convCase{
		{1, 24, 24, 4, 3, 3, 1, 1, 2, 2}, // ext.conv1 shape
		{4, 12, 12, 8, 3, 3, 1, 1, 2, 2}, // ext.conv2 shape
		{8, 6, 6, 8, 3, 3, 1, 1, 2, 2},   // ext.conv3 shape
		{1, 5, 1, 4, 3, 1, 1, 0, 1, 1},   // tie.conv 3×1 same-pad
		{4, 5, 1, 8, 3, 1, 1, 0, 1, 1},
		{8, 5, 1, 1, 1, 1, 0, 0, 1, 1}, // 1×1 projection
		{2, 4, 4, 3, 3, 3, 2, 2, 1, 1}, // padding wider than needed
		{1, 1, 1, 2, 3, 3, 1, 1, 1, 1}, // single-pixel input
		{3, 7, 5, 2, 5, 5, 2, 2, 2, 3}, // large kernel, mixed strides
		{2, 3, 3, 2, 3, 3, 3, 3, 1, 1}, // rows/cols fully in padding
		// kw == 1 with padded or strided columns.
		{4, 5, 16, 8, 3, 1, 1, 1, 1, 1},
		{4, 5, 16, 8, 3, 1, 1, 0, 1, 2},
		{1, 3, 1, 4, 3, 1, 1, 1, 2, 2},
	}
	// Width-1 kernels (kw == 1, strideW == 1, padW == 0) over every
	// combination of the shapes the time-interval encoder can produce.
	for _, h := range []int{1, 2, 3, 16} {
		for _, c := range []int{1, 4, 8} {
			for _, oc := range []int{1, 4, 8} {
				for _, kh := range []int{1, 3} {
					for _, padH := range []int{0, 1} {
						for _, strH := range []int{1, 2} {
							for _, w := range []int{1, 16} {
								if h+2*padH < kh {
									continue // empty output
								}
								cases = append(cases, convCase{c, h, w, oc, kh, 1, padH, 0, strH, 1})
							}
						}
					}
				}
			}
		}
	}
	for _, tc := range cases {
		x := randTensor(rng, 1, tc.c, tc.h, tc.w)
		k := randTensor(rng, tc.oc, tc.c, tc.kh, tc.kw)
		x1 := of(x.Data, tc.c, tc.h, tc.w)
		want := naiveConv2D(x1, k, tc.padH, tc.padW, tc.strH, tc.strW)
		got := conv(x, k, tc.padH, tc.padW, tc.strH, tc.strW)
		if got.Shape[0] != 1 || !of(got.Data, got.Shape[1:]...).SameShape(want) {
			t.Fatalf("%+v: shape %v, want [1 %v]", tc, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%+v: forward bit mismatch at %d: %v vs %v", tc, i, got.Data[i], want.Data[i])
			}
		}
		gradOut := New(want.Shape...)
		for i := range gradOut.Data {
			gradOut.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < len(gradOut.Data); i += 3 {
			gradOut.Data[i] = 0 // exercise the g==0 skip, as ReLU's backward does
		}
		wantGX, wantGK := naiveConv2DBackward(x1, k, gradOut, tc.padH, tc.padW, tc.strH, tc.strW)
		gotGX, gotGK := convBackward(x, k, of(gradOut.Data, got.Shape...), tc.padH, tc.padW, tc.strH, tc.strW)
		for i := range wantGX.Data {
			if math.Float64bits(gotGX.Data[i]) != math.Float64bits(wantGX.Data[i]) {
				t.Fatalf("%+v: gradX bit mismatch at %d", tc, i)
			}
		}
		for i := range wantGK.Data {
			if math.Float64bits(gotGK.Data[i]) != math.Float64bits(wantGK.Data[i]) {
				t.Fatalf("%+v: gradK bit mismatch at %d", tc, i)
			}
		}
	}
}

// TestConv2DBackwardSkipsZeroGradients: an output gradient of exactly zero
// contributes nothing, not 0·x — with an infinite activation or weight the
// product would be NaN — for 3×3 and width-1 kernels alike.
func TestConv2DBackwardSkipsZeroGradients(t *testing.T) {
	for _, kw := range []int{1, 3} {
		x := New(1, 2, 4, 4)
		k := New(3, 2, 3, kw)
		x.Fill(math.Inf(1))
		k.Fill(math.Inf(-1))
		gx, gk := convBackward(x, k, New(conv(x, k, 1, kw/2, 1, 1).Shape...), 1, kw/2, 1, 1)
		for _, g := range [][]float64{gx.Data, gk.Data} {
			for i, v := range g {
				if v != 0 {
					t.Fatalf("kw=%d: gradient[%d] = %v from an all-zero output gradient", kw, i, v)
				}
			}
		}
	}
}

// TestConv2DIntoBatchMatchesPerSample: over a batch [N, C, H, W] every
// sample's output and input gradient are those of the sample run as a batch
// of one, bit for bit; the kernel gradient is the per-sample kernel's
// gradients accumulated in sample order; and skipping the input gradient
// leaves the kernel gradient unchanged.
func TestConv2DIntoBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ n, c, h, w, oc, kh, kw, padH, padW, str int }{
		{3, 1, 12, 10, 4, 3, 3, 1, 1, 2}, // ext.conv1 over a 12×10 matrix
		{5, 1, 2, 16, 4, 3, 1, 1, 0, 1},  // tie.conv1 at Δd = 2
		{4, 8, 1, 16, 1, 1, 1, 0, 0, 1},  // tie.conv3 at Δd = 1
	} {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		k := randTensor(rng, tc.oc, tc.c, tc.kh, tc.kw)
		var a Arena
		y := Conv2DInto(&a, x, k, tc.padH, tc.padW, tc.str, tc.str)
		g := randTensor(rng, y.Shape...)
		gx, gk := Conv2DBackwardInto(&a, x, k, g, true, tc.padH, tc.padW, tc.str, tc.str)
		gxNil, gkOnly := Conv2DBackwardInto(&a, x, k, g, false, tc.padH, tc.padW, tc.str, tc.str)
		if gxNil != nil {
			t.Fatalf("%+v: input gradient computed with wantX false", tc)
		}
		kt, gkt := kernelTaps(make([]float64, k.Size()), k), make([]float64, k.Size())
		xsz, ysz := x.Size()/tc.n, y.Size()/tc.n
		for i := 0; i < tc.n; i++ {
			xi := of(x.Data[i*xsz:(i+1)*xsz], 1, tc.c, tc.h, tc.w)
			yi := conv(xi, k, tc.padH, tc.padW, tc.str, tc.str)
			gi := of(g.Data[i*ysz:(i+1)*ysz], yi.Shape...)
			conv2DBackward(nil, gkt, of(xi.Data, xi.Shape[1:]...), kt, of(gi.Data, gi.Shape[1:]...), tc.oc, tc.kh, tc.kw, tc.padH, tc.padW, tc.str, tc.str, false)
			wantX, _ := convBackward(xi, k, gi, tc.padH, tc.padW, tc.str, tc.str)
			for j := range yi.Data {
				if math.Float64bits(y.Data[i*ysz+j]) != math.Float64bits(yi.Data[j]) {
					t.Fatalf("%+v sample %d: output %d differs from the batch of one", tc, i, j)
				}
			}
			for j := range wantX.Data {
				if math.Float64bits(gx.Data[i*xsz+j]) != math.Float64bits(wantX.Data[j]) {
					t.Fatalf("%+v sample %d: input gradient %d differs from the batch of one", tc, i, j)
				}
			}
		}
		wantK := New(k.Shape...)
		tapsKernel(wantK, gkt)
		for j := range wantK.Data {
			if math.Float64bits(gk.Data[j]) != math.Float64bits(wantK.Data[j]) || math.Float64bits(gkOnly.Data[j]) != math.Float64bits(wantK.Data[j]) {
				t.Fatalf("%+v: kernel gradient %d = %v / %v, want %v", tc, j, gk.Data[j], gkOnly.Data[j], wantK.Data[j])
			}
		}
	}
}

// BenchmarkConv2DColumn runs the time-interval encoder's three convolutions
// (kw == 1) forward and backward over a batch of 32 trajectory steps, at one
// slot and at four: training runs each Δd group of a shard's steps as one
// such batch.
func BenchmarkConv2DColumn(b *testing.B) {
	const dt, n = 16, 32 // SmallConfig's slot-embedding width, steps per batch
	for _, span := range []int{1, 4} {
		for _, s := range []struct {
			name            string
			c, oc, kh, padH int
		}{{"tie1", 1, 4, 3, 1}, {"tie2", 4, 8, 3, 1}, {"tie3", 8, 1, 1, 0}} {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, n, s.c, span, dt)
			k := randTensor(rng, s.oc, s.c, s.kh, 1)
			gradOut := randTensor(rng, n, s.oc, span, dt)
			for i := 0; i < len(gradOut.Data); i += 2 {
				gradOut.Data[i] = 0 // what ReLU's backward hands down
			}
			var a Arena
			b.Run(fmt.Sprintf("%s_span%d/forward", s.name, span), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a.Reset()
					Conv2DInto(&a, x, k, s.padH, 0, 1, 1)
				}
			})
			b.Run(fmt.Sprintf("%s_span%d/backward", s.name, span), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a.Reset()
					Conv2DBackwardInto(&a, x, k, gradOut, true, s.padH, 0, 1, 1)
				}
			})
		}
	}
}

// BenchmarkConv2DBackward runs the traffic CNN's three 3×3 stride-2 layers
// backward over a training shard of 32 speed matrices, on a dense output
// gradient (every position takes the lane kernel where there is one); the
// first layer's input is the matrix, which has no gradient.
func BenchmarkConv2DBackward(b *testing.B) {
	const n = 32
	for _, s := range []struct {
		name        string
		c, h, w, oc int
		wantX       bool
	}{{"ext1_1x36x32", 1, 36, 32, 4, false}, {"ext2_4x18x16", 4, 18, 16, 8, true}, {"ext3_8x9x8", 8, 9, 8, 8, true}} {
		rng := rand.New(rand.NewSource(1))
		x := randTensor(rng, n, s.c, s.h, s.w)
		k := randTensor(rng, s.oc, s.c, 3, 3)
		var a Arena
		gradOut := randTensor(rng, Conv2DInto(&a, x, k, 1, 1, 2, 2).Shape...)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Reset()
				Conv2DBackwardInto(&a, x, k, gradOut, s.wantX, 1, 1, 2, 2)
			}
		})
	}
}

// BenchmarkConv2DInto runs the traffic CNN's three layer shapes on a batch
// of one — the per-sample cost the fused serving path cannot batch away, and
// the dominant term of an external-features estimate.
func BenchmarkConv2DInto(b *testing.B) {
	shapes := []struct {
		name                   string
		c, h, w, oc, kh, kw    int
		padH, padW, strH, strW int
	}{
		{"ext1_1x10x10", 1, 10, 10, 4, 3, 3, 1, 1, 2, 2},
		{"ext2_4x5x5", 4, 5, 5, 8, 3, 3, 1, 1, 2, 2},
		{"ext3_8x3x3", 8, 3, 3, 8, 3, 3, 1, 1, 2, 2},
	}
	for _, s := range shapes {
		x := New(1, s.c, s.h, s.w)
		for i := range x.Data {
			x.Data[i] = float64(i%7) * 0.25
		}
		k := New(s.oc, s.c, s.kh, s.kw)
		for i := range k.Data {
			k.Data[i] = float64(i%5) * 0.125
		}
		var a Arena
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Reset()
				Conv2DInto(&a, x, k, s.padH, s.padW, s.strH, s.strW)
			}
		})
	}
}

// convBackwardScalar is Conv2DBackwardInto on the scalar loop alone: each
// sample through conv2DBackward with lanes off, the kernel gradient
// accumulated in sample order.
func convBackwardScalar(x, k, gradOut *Tensor, wantX bool, pad, stride int) (gradX, gradK *Tensor) {
	n := x.Shape[0]
	kt, gkt := kernelTaps(make([]float64, k.Size()), k), make([]float64, k.Size())
	xsz, gsz := x.Size()/n, gradOut.Size()/n
	if wantX {
		gradX = New(x.Shape...)
	}
	for i := 0; i < n; i++ {
		var gx *Tensor
		if wantX {
			gx = of(gradX.Data[i*xsz:(i+1)*xsz], x.Shape[1:]...)
		}
		conv2DBackward(gx, gkt, of(x.Data[i*xsz:(i+1)*xsz], x.Shape[1:]...), kt,
			of(gradOut.Data[i*gsz:(i+1)*gsz], gradOut.Shape[1:]...), k.Shape[0], k.Shape[2], k.Shape[3], pad, pad, stride, stride, false)
	}
	gradK = New(k.Shape...)
	tapsKernel(gradK, gkt)
	return gradX, gradK
}

// convCase is one 3×3 backward of FuzzConvBackward and
// TestConvBackwardLanesMatchScalar.
type convCase struct {
	n, c, h, w, oc, pad, stride int
	wantX                       bool
	x, k, g                     []float64
}

// checkConvBackward runs Conv2DBackwardInto (the lane kernel where it
// applies) and convBackwardScalar on tc and fails on any gradient element
// whose bits differ (a NaN need only be NaN on both sides).
func checkConvBackward(t testing.TB, tc convCase) {
	x := of(tc.x, tc.n, tc.c, tc.h, tc.w)
	k := of(tc.k, tc.oc, tc.c, 3, 3)
	oh, ow := (tc.h+2*tc.pad-3)/tc.stride+1, (tc.w+2*tc.pad-3)/tc.stride+1
	g := of(tc.g, tc.n, tc.oc, oh, ow)
	var a Arena
	gotX, gotK := Conv2DBackwardInto(&a, x, k, g, tc.wantX, tc.pad, tc.pad, tc.stride, tc.stride)
	wantX, wantK := convBackwardScalar(x, k, g, tc.wantX, tc.pad, tc.stride)
	same := func(p, q float64) bool {
		return math.Float64bits(p) == math.Float64bits(q) || (math.IsNaN(p) && math.IsNaN(q))
	}
	shape := fmt.Sprintf("n=%d c=%d h=%d w=%d oc=%d pad=%d stride=%d wantX=%v", tc.n, tc.c, tc.h, tc.w, tc.oc, tc.pad, tc.stride, tc.wantX)
	for i := range wantK.Data {
		if !same(gotK.Data[i], wantK.Data[i]) {
			t.Fatalf("%s: gradK[%d] = %v, scalar %v", shape, i, gotK.Data[i], wantK.Data[i])
		}
	}
	if (gotX == nil) != !tc.wantX {
		t.Fatalf("%s: input gradient computed %v", shape, gotX != nil)
	}
	if tc.wantX {
		for i := range wantX.Data {
			if !same(gotX.Data[i], wantX.Data[i]) {
				t.Fatalf("%s: gradX[%d] = %v, scalar %v", shape, i, gotX.Data[i], wantX.Data[i])
			}
		}
	}
}

// TestConvBackwardLanesMatchScalar holds the 3×3 backward, lane kernel
// included, to its scalar loop at Float64bits on the traffic CNN's shapes
// and around them: 4, 8 and 5 output channels (5 never takes the lanes),
// stride 1 and 2, padding 0 and 1, with and without the input gradient, on
// operands that include −0, ±Inf, subnormals and overflowing products, and
// output gradients of which some positions are all non-zero and some hold
// a zero.
func TestConvBackwardLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	fill := func(n int, zeros bool) []float64 {
		s := make([]float64, n)
		for i := range s {
			if s[i] = dotValue(rng); zeros && rng.Intn(10) == 0 {
				s[i] = 0
			}
		}
		return s
	}
	for _, oc := range []int{4, 8, 5} {
		for _, c := range []int{1, 4, 8} {
			for _, hw := range [][2]int{{3, 3}, {5, 5}, {10, 10}, {18, 16}} {
				for _, ps := range [][2]int{{1, 2}, {0, 1}, {1, 1}} {
					for _, wantX := range []bool{true, false} {
						tc := convCase{n: 2, c: c, h: hw[0], w: hw[1], oc: oc, pad: ps[0], stride: ps[1], wantX: wantX}
						oh, ow := (tc.h+2*tc.pad-3)/tc.stride+1, (tc.w+2*tc.pad-3)/tc.stride+1
						tc.x, tc.k, tc.g = fill(tc.n*c*tc.h*tc.w, true), fill(oc*c*9, false), fill(tc.n*oc*oh*ow, true)
						checkConvBackward(t, tc)
					}
				}
			}
		}
	}
}

// FuzzConvBackward is TestConvBackwardLanesMatchScalar's property on any
// bytes: the first five choose the output channels (4, 8 or 5), the input
// channels, the height and width, padding and stride, and wantX; the rest
// are x's, k's and the output gradient's bit patterns, 8 bytes a value
// (zero once exhausted), so zero, ±0, ±Inf and NaN gradients and inputs all
// occur.
func FuzzConvBackward(f *testing.F) {
	seed := []byte{1, 1, 0x55, 3, 1}
	for _, v := range dotSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0, 0})
	nan := binary.LittleEndian.AppendUint64([]byte{2, 2, 0x33, 2, 0}, math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		tc := convCase{n: 1, oc: []int{4, 8, 5}[data[0]%3], c: 1 + int(data[1]%4),
			h: 3 + int(data[2]&7), w: 3 + int(data[2]>>4&7), pad: int(data[3] & 1), stride: 1 + int(data[3]>>1&1),
			wantX: data[4]&1 == 1}
		vals := data[5:]
		fill := func(n int) []float64 {
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
		oh, ow := (tc.h+2*tc.pad-3)/tc.stride+1, (tc.w+2*tc.pad-3)/tc.stride+1
		tc.g = fill(tc.oc * oh * ow)
		tc.k = fill(tc.oc * tc.c * 9)
		tc.x = fill(tc.c * tc.h * tc.w)
		checkConvBackward(t, tc)
	})
}
