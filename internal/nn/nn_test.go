package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepod/internal/tensor"
)

// gradCheck runs the scalar-valued model f twice per weight of every
// parameter in ps and compares the analytic gradient (one backward pass)
// against a central finite difference.
func gradCheck(t *testing.T, ps *ParamSet, f func(tp *Tape) *Node, tol float64) {
	t.Helper()
	ps.ZeroGrad()
	tp := NewTape()
	loss := f(tp)
	tp.Backward(loss)

	const h = 1e-6
	for _, p := range ps.All() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			plus := f(NewEvalTape()).Value.Data[0]
			p.Value.Data[i] = orig - h
			minus := f(NewEvalTape()).Value.Data[0]
			p.Value.Data[i] = orig
			fd := (plus - minus) / (2 * h)
			if math.Abs(fd-p.Grad.Data[i]) > tol {
				t.Fatalf("param %q[%d]: analytic %v vs finite-diff %v", p.Name, i, p.Grad.Data[i], fd)
			}
		}
	}
}

// randRows returns a [rows, cols] matrix of standard normal values.
func randRows(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	v := tensor.New(rows, cols)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	return v
}

// row returns vals as a [1, len(vals)] matrix.
func row(vals ...float64) *tensor.Tensor {
	t := tensor.New(1, len(vals))
	copy(t.Data, vals)
	return t
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := NewParamSet()
	lin := NewLinear(ps, rng, "lin", 4, 3)
	x := randRows(rng, 1, 4)
	target := randRows(rng, 1, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		y := lin.Forward(tp, tp.Const(x))
		return tp.Sum(tp.RowL2Distance(y, tp.Const(target)))
	}, 1e-4)
}

func TestMLP2Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "mlp", 3, 5, 2)
	x := randRows(rng, 1, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, mlp.Forward(tp, tp.Const(x)))
	}, 1e-4)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	p := ps.NewNormal("x", rng, 1, 2, 3)
	// Shift values away from ReLU/Abs kinks so finite differences are valid.
	for i := range p.Value.Data {
		if math.Abs(p.Value.Data[i]) < 0.05 {
			p.Value.Data[i] = 0.1
		}
	}
	for name, act := range map[string]func(tp *Tape, n *Node) *Node{
		"relu": func(tp *Tape, n *Node) *Node { return tp.ReLU(n) },
		// |x| row by row: the absolute error against zero.
		"abs": func(tp *Tape, n *Node) *Node { return tp.RowAbsError(n, tp.Const(tp.Alloc(n.Value.Shape...))) },
	} {
		t.Run(name, func(t *testing.T) {
			gradCheck(t, ps, func(tp *Tape) *Node {
				return weighted(tp, act(tp, tp.Leaf(p)))
			}, 1e-4)
		})
	}
}

func TestConcatAndStackGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := NewParamSet()
	a := ps.NewNormal("a", rng, 1, 1, 3)
	b := ps.NewNormal("b", rng, 1, 1, 2)
	gradCheck(t, ps, func(tp *Tape) *Node {
		cat := tp.ConcatCols(tp.Leaf(a), tp.Leaf(b))
		return weighted(tp, cat)
	}, 1e-4)

	ps2 := NewParamSet()
	r1 := ps2.NewNormal("r1", rng, 1, 1, 4)
	r2 := ps2.NewNormal("r2", rng, 1, 1, 4)
	gradCheck(t, ps2, func(tp *Tape) *Node {
		m := tp.StackRows(tp.Leaf(r1), tp.Leaf(r2))
		return weighted(tp, tp.MeanCols(tp.Reshape(m, 1, 2, 4)))
	}, 1e-4)
}

func TestEmbeddingLookupGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := NewParamSet()
	emb := NewEmbedding(ps, rng, "emb", 5, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		v := emb.LookupRows(tp, []int{2})
		w := emb.LookupRows(tp, []int{4})
		return weighted(tp, tp.Add(v, w))
	}, 1e-4)
	// Rows not looked up must have zero gradient.
	ps.ZeroGrad()
	tp := NewTape()
	loss := weighted(tp, emb.LookupRows(tp, []int{1}))
	tp.Backward(loss)
	for r := 0; r < 5; r++ {
		rowNorm := 0.0
		for j := 0; j < 3; j++ {
			rowNorm += math.Abs(emb.W.Grad.Data[r*3+j])
		}
		if r == 1 && rowNorm == 0 {
			t.Fatal("looked-up row has zero gradient")
		}
		if r != 1 && rowNorm != 0 {
			t.Fatalf("row %d has gradient %v without being looked up", r, rowNorm)
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := NewParamSet()
	lstm := NewLSTM(ps, rng, "lstm", 3, 4)
	x := randRows(rng, 3, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		h := lstm.ForwardPacked(tp, tp.Const(x), []int{1, 1, 1})
		return weighted(tp, h)
	}, 1e-4)
}

func TestConvLayerGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	conv := NewConv2DLayer(ps, rng, "c", 1, 2, 3, 1, 1, 0, 1, 1, false, false)
	x := tensor.New(1, 1, 4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, conv.Forward(tp, tp.Const(x)))
	}, 1e-4)
}

func TestChannelNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := NewParamSet()
	x := ps.NewNormal("x", rng, 1, 1, 2, 3, 2)
	gamma := ps.New("gamma", 2)
	gamma.Value.Fill(1.3)
	beta := ps.NewNormal("beta", rng, 0.2, 2)
	gradCheck(t, ps, func(tp *Tape) *Node {
		// weight the output so per-channel gradients differ
		return weighted(tp, tp.ChannelNorm(tp.Leaf(x), tp.Leaf(gamma), tp.Leaf(beta), 1e-5))
	}, 1e-3)
}

func TestChannelNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := NewParamSet()
	gamma := ps.New("g", 3)
	gamma.Value.Fill(1)
	beta := ps.New("b", 3)
	tp := NewEvalTape()
	x := tensor.New(1, 3, 4, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()*5 + 10
	}
	y := tp.ChannelNorm(tp.Const(x), tp.Leaf(gamma), tp.Leaf(beta), 1e-8)
	for c := 0; c < 3; c++ {
		seg := y.Value.Data[c*16 : (c+1)*16]
		var mean, vr float64
		for _, v := range seg {
			mean += v
		}
		mean /= 16
		for _, v := range seg {
			vr += (v - mean) * (v - mean)
		}
		vr /= 16
		if math.Abs(mean) > 1e-9 || math.Abs(vr-1) > 1e-6 {
			t.Fatalf("channel %d not normalized: mean %v var %v", c, mean, vr)
		}
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := NewParamSet()
	x := ps.NewNormal("x", rng, 1, 1, 2, 3, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, tp.GlobalAvgPool(tp.Leaf(x)))
	}, 1e-4)
}

// TestL2DistanceAndAbsError checks the two losses of Algorithm 1 on one
// row: the auxiliary L2 distance against finite differences, and both
// values worked by hand.
func TestL2DistanceAndAbsError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := NewParamSet()
	a := ps.NewNormal("a", rng, 1, 1, 4)
	b := row(0.5, -1, 2, 0.25)
	gradCheck(t, ps, func(tp *Tape) *Node {
		return tp.Sum(tp.RowL2Distance(tp.Leaf(a), tp.Const(b)))
	}, 1e-4)

	tp := NewEvalTape()
	d := tp.RowL2Distance(tp.Const(row(3, 0)), tp.Const(row(0, 4)))
	if d.Value.Size() != 1 || math.Abs(d.Value.Data[0]-5) > 1e-12 {
		t.Fatalf("RowL2Distance = %v, want [5]", d.Value)
	}
	e := tp.RowAbsError(tp.Const(row(3)), tp.Const(row(7.5)))
	if e.Value.Size() != 1 || math.Abs(e.Value.Data[0]-4.5) > 1e-12 {
		t.Fatalf("RowAbsError = %v, want [4.5]", e.Value)
	}
}

func TestReshapeGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := NewParamSet()
	x := ps.NewNormal("x", rng, 1, 6)
	gradCheck(t, ps, func(tp *Tape) *Node {
		m := tp.Reshape(tp.Leaf(x), 2, 3)
		return tp.Sum(tp.RowL2Distance(m, tp.Const(tp.Alloc(2, 3))))
	}, 1e-4)
}

func TestEvalTapeRecordsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "mlp", 3, 4, 2)
	tp := NewEvalTape()
	y := mlp.Forward(tp, tp.Const(randRows(rng, 1, 3)))
	if tp.Len() != 0 {
		t.Fatalf("eval tape recorded %d nodes", tp.Len())
	}
	if y.requiresGrad {
		t.Fatal("eval output requires grad")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on eval tape did not panic")
		}
	}()
	tp.Backward(tp.Sum(y))
}

func TestBackwardRequiresScalar(t *testing.T) {
	ps := NewParamSet()
	rng := rand.New(rand.NewSource(14))
	p := ps.NewNormal("p", rng, 1, 1, 3)
	tp := NewTape()
	y := tp.Scale(tp.Leaf(p), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar did not panic")
		}
	}()
	tp.Backward(y)
}

func TestGradientAccumulationAcrossSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ps := NewParamSet()
	lin := NewLinear(ps, rng, "l", 2, 1)
	x1, x2 := row(1, 0), row(0, 1)
	run := func(x *tensor.Tensor) {
		tp := NewTape()
		tp.Backward(tp.Sum(lin.Forward(tp, tp.Const(x))))
	}
	run(x1)
	g1 := append([]float64(nil), lin.W.Grad.Data...)
	run(x2)
	// After two samples the gradient should be the sum of both.
	if lin.W.Grad.Data[0] != g1[0]+0 || lin.W.Grad.Data[1] != g1[1]+1 {
		t.Fatalf("gradients did not accumulate: first %v then %v", g1, lin.W.Grad.Data)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "m", 1, 8, 1)
	opt := NewAdam(0.01)
	// Fit y = 2x + 1 on a few points, one sample a row.
	xs := []float64{-1, -0.5, 0, 0.5, 1}
	ys := make([]float64, len(xs))
	for i, xv := range xs {
		ys[i] = 2*xv + 1
	}
	x, y := tensor.New(len(xs), 1), tensor.New(len(ys), 1)
	copy(x.Data, xs)
	copy(y.Data, ys)
	loss := func(record bool) float64 {
		tp := NewEvalTape()
		if record {
			tp = NewTape()
		}
		l := tp.Sum(tp.RowAbsError(mlp.Forward(tp, tp.Const(x)), tp.Const(y)))
		if record {
			tp.Backward(l)
		}
		return l.Value.Data[0] / float64(len(xs))
	}
	before := loss(false)
	for i := 0; i < 200; i++ {
		ps.ZeroGrad()
		loss(true)
		ps.ScaleGrads(1 / float64(len(xs)))
		opt.Step(ps)
	}
	after := loss(false)
	if after > before/10 {
		t.Fatalf("Adam failed to fit: before %v after %v", before, after)
	}
}

// TestStepDecaySchedule: the paper's "reduced by 1/5 every 2 epochs"
// starting from 0.01.
func TestStepDecaySchedule(t *testing.T) {
	s := StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: 2}
	if s.At(0) != 0.01 || s.At(1) != 0.01 {
		t.Fatalf("epochs 0-1 should use initial rate, got %v %v", s.At(0), s.At(1))
	}
	if math.Abs(s.At(2)-0.002) > 1e-12 {
		t.Fatalf("epoch 2 rate = %v, want 0.002", s.At(2))
	}
	if math.Abs(s.At(5)-0.01*0.2*0.2) > 1e-15 {
		t.Fatalf("epoch 5 rate = %v", s.At(5))
	}
}

func TestClipGradNorm(t *testing.T) {
	ps := NewParamSet()
	p := ps.New("p", 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4
	norm := ClipGradNorm(ps, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if math.Abs(ps.GradNorm()-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v", ps.GradNorm())
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "m", 2, 3, 1)
	snap := ps.Save()

	ps2 := NewParamSet()
	mlp2 := NewMLP2(ps2, rand.New(rand.NewSource(99)), "m", 2, 3, 1)
	if err := ps2.Load(snap); err != nil {
		t.Fatal(err)
	}
	x := row(0.3, -0.7)
	tp := NewEvalTape()
	y1 := mlp.Forward(tp, tp.Const(x)).Value.Data[0]
	y2 := mlp2.Forward(tp, tp.Const(x)).Value.Data[0]
	if y1 != y2 {
		t.Fatalf("loaded model differs: %v vs %v", y1, y2)
	}

	// Missing parameter must error.
	ps3 := NewParamSet()
	ps3.New("other", 2)
	if err := ps3.Load(snap); err == nil {
		t.Fatal("Load with missing param should error")
	}
	// Wrong size must error.
	bad := Snapshot{}
	for k, v := range snap {
		bad[k] = v
	}
	bad["m.l1.W"] = []float64{1}
	if err := ps2.Load(bad); err == nil {
		t.Fatal("Load with wrong size should error")
	}
	// A non-finite weight must error, naming its parameter, and leave every
	// parameter as it was.
	before := ps2.Save()
	bad["m.l1.W"] = append([]float64(nil), snap["m.l1.W"]...)
	bad["m.l2.b"] = []float64{math.Inf(1)}
	bad["m.l1.W"][0] = 42
	if err := ps2.Load(bad); err == nil || !strings.Contains(err.Error(), `"m.l2.b"`) {
		t.Fatalf("Load with an infinite weight: error %v, want one naming m.l2.b", err)
	}
	for name, vals := range ps2.Save() {
		for i, v := range vals {
			if v != before[name][i] {
				t.Fatalf("failed Load changed %s[%d] from %v to %v", name, i, before[name][i], v)
			}
		}
	}
}

// A constructor run in a shape set allocates nothing however large its
// shapes, and Load holds those shapes to a snapshot without overflowing.
func TestShapeSetChecksBeforeAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	real := NewParamSet()
	NewMLP2(real, rng, "m", 2, 3, 1)
	snap := real.Save()

	fits := NewShapeSet()
	NewMLP2(fits, rng, "m", 2, 3, 1)
	if err := fits.Load(snap); err != nil {
		t.Fatalf("matching shapes refused: %v", err)
	}
	for _, dims := range [][3]int{{2, 4, 1}, {1 << 40, 1 << 40, 1}, {1 << 32, 1 << 32, 1}} {
		ps := NewShapeSet()
		NewMLP2(ps, rng, "m", dims[0], dims[1], dims[2])
		if err := ps.Load(snap); err == nil {
			t.Errorf("MLP %v accepted for a 2-3-1 snapshot", dims)
		}
	}
}

func TestParamSetBookkeeping(t *testing.T) {
	ps := NewParamSet()
	a := ps.New("a", 2, 3)
	b := ps.New("b", 4)
	if ps.NumWeights() != 10 {
		t.Fatalf("NumWeights = %d", ps.NumWeights())
	}
	if ps.SizeBytes() != 80 {
		t.Fatalf("SizeBytes = %d", ps.SizeBytes())
	}
	if all := ps.All(); len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("All = %v, want registration order", all)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	ps.New("a", 1)
}
