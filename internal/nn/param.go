package nn

import (
	"fmt"
	"math"
	"math/rand"

	"deepod/internal/tensor"
)

// Param is a trainable tensor with an accumulated gradient and Adam moment
// state. Params are created through a ParamSet so they can be enumerated by
// optimizers and serialized deterministically.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	m, v *tensor.Tensor // Adam first/second moment estimates
	idx  int            // registration index; GradBuffer slots key on it
}

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.Value.Size() }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ParamSet owns all parameters of a model. Registration order is the
// optimizer's iteration order.
type ParamSet struct {
	params []*Param
	byName map[string]*Param
	// shapesOnly makes New record each parameter's shape and allocate no
	// weights (NewShapeSet).
	shapesOnly bool
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// NewShapeSet returns an empty parameter set whose parameters have their
// shapes and no weights. A model's constructor run in it costs nothing
// however large the shapes, and Load then checks them against a snapshot:
// a checkpoint's configuration is checked before a real constructor
// allocates what it asks for.
func NewShapeSet() *ParamSet {
	ps := NewParamSet()
	ps.shapesOnly = true
	return ps
}

// New registers a zero-initialized parameter of the given shape.
func (ps *ParamSet) New(name string, shape ...int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter name %q", name))
	}
	var p *Param
	if ps.shapesOnly {
		p = &Param{Name: name, Value: &tensor.Tensor{Shape: append([]int(nil), shape...)}, idx: len(ps.params)}
	} else {
		p = &Param{
			Name:  name,
			Value: tensor.New(shape...),
			Grad:  tensor.New(shape...),
			m:     tensor.New(shape...),
			v:     tensor.New(shape...),
			idx:   len(ps.params),
		}
	}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// NewNormal registers a parameter initialized from N(0, std²) — the paper
// initializes all non-embedding parameters from a normal distribution
// (Algorithm 1, line 5).
func (ps *ParamSet) NewNormal(name string, rng *rand.Rand, std float64, shape ...int) *Param {
	p := ps.New(name, shape...)
	for i := range p.Value.Data {
		p.Value.Data[i] = rng.NormFloat64() * std
	}
	return p
}

// NewXavier registers a matrix parameter with Glorot-uniform initialization
// scaled by its fan-in/fan-out; used for weight matrices of linear layers
// and LSTM gates.
func (ps *ParamSet) NewXavier(name string, rng *rand.Rand, shape ...int) *Param {
	p := ps.New(name, shape...)
	fanIn, fanOut := shape[len(shape)-1], shape[0]
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = (float64(2*float64(rng.Float64())) - 1) * limit
	}
	return p
}

// All returns the parameters in registration order.
func (ps *ParamSet) All() []*Param { return ps.params }

// ZeroGrad clears all gradients.
func (ps *ParamSet) ZeroGrad() {
	for _, p := range ps.params {
		p.ZeroGrad()
	}
}

// GradBuffer is a private set of gradient accumulators parallel to a
// ParamSet — the per-worker half of data-parallel training. Each worker
// records backward passes into its own buffer (Tape.Grads), and the
// coordinator folds the buffers into the shared parameter gradients in
// fixed worker-index order, so a given seed + worker count always reduces
// in the same floating-point order (see internal/core's deterministic-
// training contract).
type GradBuffer struct {
	ps    *ParamSet
	grads []*tensor.Tensor
}

// NewGradBuffer returns a zeroed gradient buffer shaped like ps. The
// buffer is bound to ps's registration order; registering more parameters
// afterwards invalidates it.
func (ps *ParamSet) NewGradBuffer() *GradBuffer {
	gb := &GradBuffer{ps: ps, grads: make([]*tensor.Tensor, len(ps.params))}
	for i, p := range ps.params {
		gb.grads[i] = tensor.New(p.Value.Shape...)
	}
	return gb
}

// Grad returns the buffer's accumulator for p.
func (gb *GradBuffer) Grad(p *Param) *tensor.Tensor { return gb.grads[p.idx] }

// Zero clears every accumulator.
func (gb *GradBuffer) Zero() {
	for _, g := range gb.grads {
		g.Zero()
	}
}

// AccumulateInto adds the buffered gradients into ps's parameter gradients
// (the reduction step). Element order within each parameter is preserved,
// so reducing a single buffer is bit-identical to having accumulated
// directly into the parameter gradients.
func (gb *GradBuffer) AccumulateInto(ps *ParamSet) {
	if ps != gb.ps {
		panic("nn: GradBuffer.AccumulateInto called with a different ParamSet")
	}
	for i, p := range ps.params {
		p.Grad.AddInPlace(gb.grads[i])
	}
}

// ScaleGrads multiplies all gradients by s (used to average accumulated
// per-sample gradients over a mini-batch).
func (ps *ParamSet) ScaleGrads(s float64) {
	for _, p := range ps.params {
		p.Grad.ScaleInPlace(s)
	}
}

// NumWeights returns the total number of scalar weights.
func (ps *ParamSet) NumWeights() int {
	n := 0
	for _, p := range ps.params {
		n += p.Size()
	}
	return n
}

// SizeBytes returns the serialized model size in bytes (8 bytes per weight),
// the quantity reported in the paper's Table 5.
func (ps *ParamSet) SizeBytes() int { return ps.NumWeights() * 8 }

// GradNorm returns the Euclidean norm of the concatenated gradient; useful
// for tests and for diagnosing divergence.
func (ps *ParamSet) GradNorm() float64 {
	var s float64
	for _, p := range ps.params {
		for _, g := range p.Grad.Data {
			s += float64(g * g)
		}
	}
	return math.Sqrt(s)
}

// Snapshot is a serializable copy of all parameter values, keyed by name.
// It is the on-disk model format used by cmd/ttetrain (via encoding/gob).
type Snapshot map[string][]float64

// Save copies all parameter values into a Snapshot.
func (ps *ParamSet) Save() Snapshot {
	s := make(Snapshot, len(ps.params))
	for _, p := range ps.params {
		s[p.Name] = append([]float64(nil), p.Value.Data...)
	}
	return s
}

// Load restores parameter values from a Snapshot. Every registered
// parameter must be present with a matching size and finite weights; on an
// error no parameter is changed.
func (ps *ParamSet) Load(s Snapshot) error {
	for _, p := range ps.params {
		vals, ok := s[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot is missing parameter %q", p.Name)
		}
		if !holds(p.Value.Shape, len(vals)) {
			return fmt.Errorf("nn: snapshot parameter %q has %d weights, model wants shape %v",
				p.Name, len(vals), p.Value.Shape)
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: snapshot parameter %q has the non-finite weight %v at %d", p.Name, v, i)
			}
		}
	}
	for _, p := range ps.params {
		copy(p.Value.Data, s[p.Name])
	}
	return nil
}

// holds reports whether shape has exactly n elements, without overflowing
// on a shape far larger than n.
func holds(shape []int, n int) bool {
	size := 1
	for _, d := range shape {
		if d <= 0 || size > n/d {
			return false
		}
		size *= d
	}
	return size == n
}
