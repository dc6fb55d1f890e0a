package nn

import (
	"math"
	"math/rand"
	"testing"
)

// forwardOne runs one sequence, a [1, In] node a step, through the LSTM as
// a packed batch of one and returns its final hidden state h_n as a
// [1, Hidden] node.
func forwardOne(l *LSTM, tp *Tape, xs []*Node) *Node {
	steps := make([]int, len(xs))
	for i := range steps {
		steps[i] = 1
	}
	return l.ForwardPacked(tp, tp.StackRows(xs...), steps)
}

// TestLSTMMatchesHandRolledFormulas recomputes Formulas 12–16 with plain
// loops and checks the layer agrees step by step.
func TestLSTMMatchesHandRolledFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ps := NewParamSet()
	const in, hidden = 3, 4
	l := NewLSTM(ps, rng, "l", in, hidden)
	xs := [][]float64{
		{0.5, -1, 0.25},
		{1, 0.1, -0.4},
	}

	sigmoid := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	gate := func(w *Param, b *Param, xh []float64) []float64 {
		out := make([]float64, hidden)
		for i := 0; i < hidden; i++ {
			s := b.Value.Data[i]
			for j, v := range xh {
				s += w.Value.Data[i*len(xh)+j] * v
			}
			out[i] = s
		}
		return out
	}
	h := make([]float64, hidden)
	c := make([]float64, hidden)
	for _, x := range xs {
		xh := append(append([]float64{}, x...), h...)
		f := gate(l.Wf, l.Bf, xh)
		i := gate(l.Wi, l.Bi, xh)
		o := gate(l.Wo, l.Bo, xh)
		g := gate(l.Wc, l.Bc, xh)
		for k := 0; k < hidden; k++ {
			c[k] = sigmoid(f[k])*c[k] + sigmoid(i[k])*math.Tanh(g[k]) // Formula 15
			h[k] = sigmoid(o[k]) * math.Tanh(c[k])                    // Formula 16
		}
	}

	tp := NewEvalTape()
	seq := make([]*Node, len(xs))
	for i, x := range xs {
		seq[i] = tp.Const(row(x...))
	}
	got := forwardOne(l, tp, seq)
	for k := 0; k < hidden; k++ {
		if math.Abs(got.Value.Data[k]-h[k]) > 1e-12 {
			t.Fatalf("h[%d] = %v, hand-rolled %v", k, got.Value.Data[k], h[k])
		}
	}
}

// TestLSTMRejectsBadInput covers the defensive panics.
func TestLSTMRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ps := NewParamSet()
	l := NewLSTM(ps, rng, "l", 3, 4)
	tp := NewTape()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty sequence accepted")
			}
		}()
		l.ForwardPacked(tp, tp.Const(row(1, 2, 3)), nil)
	}()
	for name, x := range map[string]*Node{"wrong width": tp.Const(row(1, 2)), "vector": tp.Const(row(1, 2, 3).Row(0))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s input accepted", name)
				}
			}()
			l.ForwardPacked(tp, x, []int{1})
		}()
	}
}

// TestAdamStepMatchesReference checks one Adam update against the published
// update rule.
func TestAdamStepMatchesReference(t *testing.T) {
	ps := NewParamSet()
	p := ps.New("p", 1)
	p.Value.Data[0] = 0.5
	p.Grad.Data[0] = 0.2

	a := NewAdam(0.1)
	a.Step(ps)

	// t=1: m = 0.1*0.2*... with β1=0.9: m = 0.02, v = 0.001*0.04 → 4e-5
	m := (1 - 0.9) * 0.2
	v := (1 - 0.999) * 0.2 * 0.2
	mHat := m / (1 - 0.9)
	vHat := v / (1 - 0.999)
	want := 0.5 - 0.1*mHat/(math.Sqrt(vHat)+1e-8)
	if math.Abs(p.Value.Data[0]-want) > 1e-12 {
		t.Fatalf("Adam step = %v, want %v", p.Value.Data[0], want)
	}
	if p.Grad.Data[0] != 0.2 {
		t.Fatal("Adam changed the gradient: clearing it is the training step's job")
	}
}
