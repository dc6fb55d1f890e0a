package nn

import (
	"fmt"
	"math"
	"math/rand"

	"deepod/internal/tensor"
)

// LSTM is a single-layer LSTM over sequences of input vectors, following
// Formulas 12–16: shared gate weights W_f, W_i, W_o, W_c ∈ R^{dh×(in+dh)}
// acting on the concatenation [x_j, h_{j-1}], with c₀ = h₀ = 0.
type LSTM struct {
	Wf, Wi, Wo, Wc *Param
	Bf, Bi, Bo, Bc *Param
	In, Hidden     int
}

// NewLSTM registers an LSTM with input size in and state size hidden. The
// forget-gate bias starts at 1 (standard practice for gradient flow).
func NewLSTM(ps *ParamSet, rng *rand.Rand, prefix string, in, hidden int) *LSTM {
	l := &LSTM{
		Wf: ps.NewXavier(prefix+".Wf", rng, hidden, in+hidden),
		Wi: ps.NewXavier(prefix+".Wi", rng, hidden, in+hidden),
		Wo: ps.NewXavier(prefix+".Wo", rng, hidden, in+hidden),
		Wc: ps.NewXavier(prefix+".Wc", rng, hidden, in+hidden),
		Bf: ps.New(prefix+".bf", hidden),
		Bi: ps.New(prefix+".bi", hidden),
		Bo: ps.New(prefix+".bo", hidden),
		Bc: ps.New(prefix+".bc", hidden),
		In: in, Hidden: hidden,
	}
	l.Bf.Value.Fill(1)
	return l
}

// ForwardPacked runs the LSTM over a batch of sequences packed time-major,
// the shape of PyTorch's pack_padded_sequence: the sequences are sorted by
// length, longest first, batchSizes[t] is how many are longer than t (so it
// never increases), and x is [Σ_t batchSizes[t], In] holding step t of
// sequences 0..batchSizes[t]−1 after the rows of step t−1. Time step t is
// then one [batchSizes[t], In+Hidden] affine over the four gates' stacked
// weights for the still-active prefix of the batch, with no padding. The
// result is [batchSizes[0], Hidden]: row b is sequence b's final hidden
// state h_n, computed exactly as the sequence alone would compute it.
//
// The whole recurrence is one tape node. Its backward runs back through
// time with one [batchSizes[t], 4·Hidden]·W_h product per step for the
// state gradient, then forms the input gradient and the weight gradient of
// all steps at once, as dY·W_x and dYᵀ·[x, h] over every packed row.
func (l *LSTM) ForwardPacked(tp *Tape, x *Node, batchSizes []int) *Node {
	if len(batchSizes) == 0 || batchSizes[0] < 1 {
		panic("nn: LSTM got an empty sequence")
	}
	in, hd := l.In, l.Hidden
	xv := x.Value
	if xv.Dims() != 2 || xv.Shape[1] != in {
		panic(fmt.Sprintf("nn: LSTM %q expects [steps, %d] inputs, got %v", l.Wf.Name, in, xv.Shape))
	}
	rows := xv.Shape[0]
	offs := make([]int, len(batchSizes)+1) // step t's rows are [offs[t], offs[t+1])
	for t, bt := range batchSizes {
		if bt < 1 || bt > batchSizes[max(t-1, 0)] {
			panic(fmt.Sprintf("nn: LSTM batch sizes %v are not non-increasing and positive", batchSizes))
		}
		offs[t+1] = offs[t] + bt
	}
	if offs[len(batchSizes)] != rows {
		panic(fmt.Sprintf("nn: LSTM batch sizes %v do not pack %v", batchSizes, xv.Shape))
	}
	leaves := []*Node{tp.Leaf(l.Wf), tp.Leaf(l.Wi), tp.Leaf(l.Wo), tp.Leaf(l.Wc),
		tp.Leaf(l.Bf), tp.Leaf(l.Bi), tp.Leaf(l.Bo), tp.Leaf(l.Bc)}

	// The gates f, i, o of Formulas 12–14 and the cell input g, stacked in
	// that order into one [4·hd, in+hd] weight and one bias. The forward
	// reads the weight packed ([in+hd, 4·hd], packed once here); the
	// backward reads the stacked rows in place.
	wd := in + hd
	w := tp.arena.New(4*hd, wd)
	wp := tp.arena.New(wd, 4*hd)
	b := tp.arena.New(4 * hd)
	for k := 0; k < 4; k++ {
		copy(w.Data[k*hd*wd:(k+1)*hd*wd], leaves[k].Value.Data)
		tensor.PackInto(wp, leaves[k].Value, k*hd)
		copy(b.Data[k*hd:(k+1)*hd], leaves[4+k].Value.Data)
	}
	xh := tp.arena.New(rows, wd)    // [x_t, h_{t-1}] per packed row
	act := tp.arena.New(rows, 4*hd) // gate pre-activations, then f, i, o, g
	cs := tp.arena.New(rows, hd)    // c_t
	tc := tp.arena.New(rows, hd)    // tanh(c_t)
	out := tp.arena.New(batchSizes[0], hd)
	for t, bt := range batchSizes {
		o0 := offs[t]
		for r := 0; r < bt; r++ {
			row := xh.Data[(o0+r)*wd : (o0+r+1)*wd]
			copy(row[:in], xv.Data[(o0+r)*in:(o0+r+1)*in])
			if t > 0 {
				prev := offs[t-1] + r
				for j := 0; j < hd; j++ { // h_{t-1} = o ⊗ tanh(c_{t-1}), Formula 16
					row[in+j] = act.Data[prev*4*hd+2*hd+j] * tc.Data[prev*hd+j]
				}
			}
		}
		gates := act.Data[o0*4*hd : (o0+bt)*4*hd]
		tensor.AffinePackedInto(tp.arena.FromSlice(gates, bt, 4*hd), tp.arena.FromSlice(xh.Data[o0*wd:(o0+bt)*wd], bt, wd), wp, b)
		for r := 0; r < bt; r++ {
			a := gates[r*4*hd : (r+1)*4*hd]
			for j := 0; j < hd; j++ {
				f := 1 / (1 + math.Exp(-a[j]))      // Formula 12
				i := 1 / (1 + math.Exp(-a[hd+j]))   // Formula 13
				o := 1 / (1 + math.Exp(-a[2*hd+j])) // Formula 14
				g := math.Tanh(a[3*hd+j])
				var cprev float64 // c₀ = 0
				if t > 0 {
					cprev = cs.Data[(offs[t-1]+r)*hd+j]
				}
				c := float64(f*cprev) + float64(i*g) // Formula 15
				a[j], a[hd+j], a[2*hd+j], a[3*hd+j] = f, i, o, g
				cs.Data[(o0+r)*hd+j] = c
				tc.Data[(o0+r)*hd+j] = math.Tanh(c)
			}
		}
		// Sequences whose last step is t leave h_t = o ⊗ tanh(c_t) in out.
		next := 0
		if t+1 < len(batchSizes) {
			next = batchSizes[t+1]
		}
		for r := next; r < bt; r++ {
			for j := 0; j < hd; j++ {
				out.Data[r*hd+j] = act.Data[(o0+r)*4*hd+2*hd+j] * tc.Data[(o0+r)*hd+j]
			}
		}
	}

	deps := append([]*Node{x}, leaves...)
	return tp.node(out, func(n *Node) {
		dy := tp.arena.New(rows, 4*hd)        // gate pre-activation gradients
		dh := tp.arena.New(batchSizes[0], hd) // ∂loss/∂h_t of the active rows
		dc := tp.arena.New(batchSizes[0], hd) // ∂loss/∂c_t through c_{t+1}
		// W = [W_x, W_h]: the recurrence needs dY_t·W_h at every step, the
		// input gradient dY·W_x once for all steps; both read W's columns
		// where they lie.
		for t := len(batchSizes) - 1; t >= 0; t-- {
			bt, o0 := batchSizes[t], offs[t]
			next := 0
			if t+1 < len(batchSizes) {
				next = batchSizes[t+1]
			}
			for r := next; r < bt; r++ { // rows ending here start from the output gradient
				copy(dh.Data[r*hd:(r+1)*hd], n.Grad.Data[r*hd:(r+1)*hd])
			}
			for r := 0; r < bt; r++ {
				a := act.Data[(o0+r)*4*hd : (o0+r+1)*4*hd]
				d := dy.Data[(o0+r)*4*hd : (o0+r+1)*4*hd]
				for j := 0; j < hd; j++ {
					f, i, o, g := a[j], a[hd+j], a[2*hd+j], a[3*hd+j]
					th := tc.Data[(o0+r)*hd+j]
					dhv := dh.Data[r*hd+j]
					dcv := dc.Data[r*hd+j] + float64(float64(dhv*o)*(1-float64(th*th)))
					var cprev float64
					if t > 0 {
						cprev = cs.Data[(offs[t-1]+r)*hd+j]
					}
					d[j] = float64(dcv*cprev) * float64(f*(1-f))
					d[hd+j] = float64(dcv*g) * float64(i*(1-i))
					d[2*hd+j] = float64(dhv*th) * float64(o*(1-o))
					d[3*hd+j] = float64(dcv*i) * (1 - float64(g*g))
					dc.Data[r*hd+j] = dcv * f
				}
			}
			if t > 0 { // ∂h_{t-1} = dY_t · W_h; h_{-1} is the constant 0
				dht := dh.Data[:bt*hd]
				for k := range dht {
					dht[k] = 0
				}
				tensor.AddMatMul(tp.arena.FromSlice(dht, bt, hd), tp.arena.FromSlice(dy.Data[o0*4*hd:(o0+bt)*4*hd], bt, 4*hd), w, in)
			}
		}
		if gx := grad(x); gx != nil {
			tensor.AddMatMul(gx, dy, w, 0)
		}
		// Every step's weight and bias gradient in one product over all rows.
		gw, gb := tp.arena.New(4*hd, wd), tp.arena.New(4*hd)
		tensor.AffineBatchBackward(gw, gb, nil, dy, xh, w)
		for k := 0; k < 4; k++ {
			if g := grad(leaves[k]); g != nil {
				for e, v := range gw.Data[k*hd*wd : (k+1)*hd*wd] {
					g.Data[e] += v
				}
			}
			if g := grad(leaves[4+k]); g != nil {
				for e, v := range gb.Data[k*hd : (k+1)*hd] {
					g.Data[e] += v
				}
			}
		}
	}, deps...)
}
