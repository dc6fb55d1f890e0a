package nn

import (
	"math"
	"math/rand"
	"testing"
)

// weighted returns Σ w ⊗ y for fixed pseudo-random weights, so every output
// element gets its own gradient (a plain sum would hide transposed indices):
// y flattened to one row, times the weights as a one-output affine.
func weighted(tp *Tape, y *Node) *Node {
	n := y.Value.Size()
	w := tp.Alloc(1, n)
	for i := range w.Data {
		w.Data[i] = float64(i%7) - 2.5
	}
	return tp.Sum(tp.Affine(tp.Const(w), tp.Const(tp.Alloc(1)), tp.Reshape(y, 1, n)))
}

// TestBatchedAffineGradients checks the batched affine backward (dW += dYᵀ·X,
// db += Σ_rows dY, dX += dY·W) against finite differences at B = 1 and
// B > 1, with the input itself a parameter so dX is checked too.
func TestBatchedAffineGradients(t *testing.T) {
	for _, shape := range [][]int{{1, 5}, {7, 5}} {
		rng := rand.New(rand.NewSource(31))
		ps := NewParamSet()
		lin := NewLinear(ps, rng, "lin", 5, 6)
		x := ps.NewNormal("x", rng, 1, shape...)
		gradCheck(t, ps, func(tp *Tape) *Node {
			return weighted(tp, lin.Forward(tp, tp.Leaf(x)))
		}, 1e-6)
	}
}

// TestBatchedAffineRowsMatchVector: row r of a batched MLP is row r run as a
// batch of one, bit for bit.
func TestBatchedAffineRowsMatchVector(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ps := NewParamSet()
	mlp := NewMLP2(ps, rng, "mlp", 9, 13, 5)
	x := randRows(rng, 4, 9)
	tp := NewEvalTape()
	y := mlp.Forward(tp, tp.Const(x))
	for r := 0; r < 4; r++ {
		yr := mlp.Forward(tp, tp.Const(row(x.Data[r*9:(r+1)*9]...)))
		for j, v := range yr.Value.Data {
			if math.Float64bits(y.Value.Data[r*5+j]) != math.Float64bits(v) {
				t.Fatalf("row %d col %d: batched %v, batch of one %v", r, j, y.Value.Data[r*5+j], v)
			}
		}
	}
}

// packedLengths are ragged sequence lengths, longest first, with a length-1
// sequence and a tie.
var packedLengths = []int{4, 3, 3, 1}

// packedBatchSizes returns ForwardPacked's batch sizes for sequences of the
// given lengths (longest first) and, per sequence, the indices of its rows
// in the time-major packed input.
func packedBatchSizes(lengths []int) (sizes []int, rowsOf [][]int) {
	rowsOf = make([][]int, len(lengths))
	row := 0
	for t := 0; t < lengths[0]; t++ {
		n := 0
		for b, l := range lengths {
			if l > t {
				rowsOf[b] = append(rowsOf[b], row)
				row++
				n++
			}
		}
		sizes = append(sizes, n)
	}
	return sizes, rowsOf
}

// TestPackedLSTMGradients checks the length-packed LSTM — prefix slices of
// h and c, the per-step gate affines, the latest-first stacking of finished
// sequences — against finite differences over every weight and every packed
// input, on ragged lengths including 1.
func TestPackedLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ps := NewParamSet()
	lstm := NewLSTM(ps, rng, "lstm", 3, 4)
	sizes, _ := packedBatchSizes(packedLengths)
	total := 0
	for _, l := range packedLengths {
		total += l
	}
	x := ps.NewNormal("x", rng, 1, total, 3)
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, lstm.ForwardPacked(tp, tp.Leaf(x), sizes))
	}, 1e-6)
}

// TestPackedLSTMMatchesEachSequence: row b of the packed result is the
// final hidden state of sequence b run alone as a batch of one, bit for bit.
func TestPackedLSTMMatchesEachSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ps := NewParamSet()
	lstm := NewLSTM(ps, rng, "lstm", 3, 4)
	sizes, rowsOf := packedBatchSizes(packedLengths)
	x := randRows(rng, 11, 3)
	tp := NewEvalTape()
	h := lstm.ForwardPacked(tp, tp.Const(x), sizes)
	if h.Value.Shape[0] != len(packedLengths) || h.Value.Shape[1] != 4 {
		t.Fatalf("packed result shape %v", h.Value.Shape)
	}
	for b, rows := range rowsOf {
		seq := make([]*Node, len(rows))
		for i, r := range rows {
			seq[i] = tp.Const(row(x.Data[r*3 : (r+1)*3]...))
		}
		alone := forwardOne(lstm, tp, seq)
		for j, v := range alone.Value.Data {
			if math.Float64bits(h.Value.Data[b*4+j]) != math.Float64bits(v) {
				t.Fatalf("sequence %d (length %d) h[%d]: packed %v, alone %v", b, len(rows), j, h.Value.Data[b*4+j], v)
			}
		}
	}
	for name, bad := range map[string][]int{"growing": {2, 3}, "short": {4, 3}, "long": {4, 4, 2, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("batch sizes %s %v accepted", name, bad)
				}
			}()
			lstm.ForwardPacked(tp, tp.Const(x), bad)
		}()
	}
}

// TestBatchedConvChannelNormGradients checks conv + per-sample ChannelNorm
// over a batch [N, C, H, W] against finite differences: the
// time-interval encoder's 3×1 column conv at Δd = 1 and Δd = 2, and the
// traffic CNN's 3×3 stride-2 conv on a 12×10 matrix, with the input a
// parameter so the per-sample input gradients are checked too.
func TestBatchedConvChannelNormGradients(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		n, h, w, kh, kw, padW, str int
	}{
		{"tie/span1", 3, 1, 6, 3, 1, 0, 1},
		{"tie/span2", 3, 2, 6, 3, 1, 0, 1},
		{"ext/12x10", 2, 12, 10, 3, 3, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(35))
			ps := NewParamSet()
			conv := NewConv2DLayer(ps, rng, "c", 1, 3, tc.kh, tc.kw, 1, tc.padW, tc.str, tc.str, true, false)
			conv.Beta.Value.Data[1] = 0.3
			x := ps.NewNormal("x", rng, 1, tc.n, 1, tc.h, tc.w)
			gradCheck(t, ps, func(tp *Tape) *Node {
				return weighted(tp, conv.Forward(tp, tp.Leaf(x)))
			}, 1e-5)
		})
	}
}

// TestBatchedConvChannelNormMatchesPerSample: sample n of the batched conv
// + ChannelNorm + ReLU + GlobalAvgPool is sample n run as a batch of one,
// bit for bit — the norm's statistics are per sample, never over the batch.
func TestBatchedConvChannelNormMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ps := NewParamSet()
	conv := NewConv2DLayer(ps, rng, "c", 1, 4, 3, 3, 1, 1, 2, 2, true, true)
	const n, h, w = 3, 12, 10
	x := randRows(rng, n, h*w)
	tp := NewEvalTape()
	y := tp.GlobalAvgPool(conv.Forward(tp, tp.Reshape(tp.Const(x), n, 1, h, w)))
	for s := 0; s < n; s++ {
		xs := tp.Reshape(tp.Const(row(x.Data[s*h*w:(s+1)*h*w]...)), 1, 1, h, w)
		ys := tp.GlobalAvgPool(conv.Forward(tp, xs))
		for j, v := range ys.Value.Data {
			if math.Float64bits(y.Value.Data[s*4+j]) != math.Float64bits(v) {
				t.Fatalf("sample %d channel %d: batched %v, alone %v", s, j, y.Value.Data[s*4+j], v)
			}
		}
	}
}

// TestRowLossGradients checks the row-wise L2 distance and absolute error
// against finite differences with both operands parameters, and their
// values against each row run as a batch of one.
func TestRowLossGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ps := NewParamSet()
	a := ps.NewNormal("a", rng, 1, 4, 3)
	b := ps.NewNormal("b", rng, 1, 4, 3)
	for i := range a.Value.Data { // keep |a−b| away from the kink at 0
		if math.Abs(a.Value.Data[i]-b.Value.Data[i]) < 0.05 {
			a.Value.Data[i] += 0.2
		}
	}
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, tp.RowL2Distance(tp.Leaf(a), tp.Leaf(b)))
	}, 1e-6)
	gradCheck(t, ps, func(tp *Tape) *Node {
		return weighted(tp, tp.RowAbsError(tp.Leaf(a), tp.Leaf(b)))
	}, 1e-6)

	tp := NewEvalTape()
	l2 := tp.RowL2Distance(tp.Leaf(a), tp.Leaf(b))
	ae := tp.RowAbsError(tp.Leaf(a), tp.Leaf(b))
	for r := 0; r < 4; r++ {
		ar, br := tp.Const(row(a.Value.Data[r*3:(r+1)*3]...)), tp.Const(row(b.Value.Data[r*3:(r+1)*3]...))
		if got, want := l2.Value.Data[r], tp.RowL2Distance(ar, br).Value.Data[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: RowL2Distance %v, as a batch of one %v", r, got, want)
		}
		if got, want := ae.Value.Data[r], tp.RowAbsError(ar, br).Value.Data[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: RowAbsError %v, as a batch of one %v", r, got, want)
		}
	}
}

// TestRowOpGradients checks the batch plumbing ops — GatherRows with a
// repeated row, ConcatCols, StackRows of a one-row and a two-row matrix,
// and the batched MeanCols and GlobalAvgPool — against finite differences.
func TestRowOpGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ps := NewParamSet()
	m := ps.NewNormal("m", rng, 1, 5, 3)
	v := ps.NewNormal("v", rng, 1, 1, 3)
	p := ps.NewNormal("p", rng, 1, 2, 2, 3, 2)
	gradCheck(t, ps, func(tp *Tape) *Node {
		g := tp.GatherRows(tp.Leaf(m), []int{4, 0, 4, 2})                      // [4, 3]
		s := tp.GatherRows(tp.Leaf(m), []int{1, 2, 3, 4})                      // [4, 3]
		cc := tp.ConcatCols(g, s)                                              // [4, 6]
		st := tp.StackRows(tp.Leaf(v), tp.GatherRows(tp.Leaf(m), []int{0, 1})) // [3, 3]
		mc := tp.MeanCols(tp.Reshape(tp.Leaf(p), 4, 3, 2))                     // [4, 2]
		gp := tp.GlobalAvgPool(tp.Leaf(p))                                     // [2, 2]
		return tp.Add(tp.Add(weighted(tp, cc), weighted(tp, st)), tp.Add(weighted(tp, mc), weighted(tp, gp)))
	}, 1e-6)
}
