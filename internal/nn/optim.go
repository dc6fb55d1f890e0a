package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2014), the optimizer the
// paper uses for all deep models (Algorithm 1, line 13).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// WeightDecay applies decoupled L2 shrinkage when non-zero.
	WeightDecay float64

	t int // step counter for bias correction
}

// NewAdam returns an Adam optimizer with the usual defaults and the given
// learning rate (the paper starts at 0.01).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update to every parameter from its accumulated gradient,
// then clears the gradients.
func (a *Adam) Step(ps *ParamSet) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range ps.All() {
		for i, g := range p.Grad.Data {
			if a.WeightDecay != 0 {
				p.Value.Data[i] *= 1 - float64(a.LR*a.WeightDecay)
			}
			p.m.Data[i] = float64(a.Beta1*p.m.Data[i]) + float64((1-a.Beta1)*g)
			p.v.Data[i] = float64(a.Beta2*p.v.Data[i]) + float64((1-a.Beta2)*g*g)
			mHat := p.m.Data[i] / bc1
			vHat := p.v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
		p.Grad.Zero()
	}
}

// Steps returns the number of optimizer steps taken so far.
func (a *Adam) Steps() int { return a.t }

// SGD is a plain stochastic-gradient-descent optimizer, used by the
// skip-gram graph-embedding pre-training and as a baseline optimizer.
type SGD struct {
	LR float64
}

// Step applies one SGD update and clears the gradients.
func (s *SGD) Step(ps *ParamSet) {
	for _, p := range ps.All() {
		for i, g := range p.Grad.Data {
			p.Value.Data[i] -= float64(s.LR * g)
		}
		p.Grad.Zero()
	}
}

// StepDecaySchedule reproduces the paper's learning-rate schedule: the
// initial rate is multiplied by Factor every Every epochs ("reduced by 1/5
// every 2 epochs", §6.1).
type StepDecaySchedule struct {
	Initial float64
	Factor  float64
	Every   int
}

// PaperSchedule returns the schedule used in the paper's experiments.
func PaperSchedule() StepDecaySchedule {
	return StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: 2}
}

// At returns the learning rate for a zero-based epoch index.
func (s StepDecaySchedule) At(epoch int) float64 {
	if s.Every <= 0 {
		return s.Initial
	}
	return s.Initial * math.Pow(s.Factor, float64(epoch/s.Every))
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm; returns the pre-clip norm. A guard against exploding LSTM
// gradients on long spatio-temporal paths.
func ClipGradNorm(ps *ParamSet, maxNorm float64) float64 {
	norm := ps.GradNorm()
	if norm > maxNorm && norm > 0 {
		ps.ScaleGrads(maxNorm / norm)
	}
	return norm
}
