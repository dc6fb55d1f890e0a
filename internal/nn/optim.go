package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2014), the optimizer the
// paper uses for all deep models (Algorithm 1, line 13).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int // step counter for bias correction
}

// NewAdam returns an Adam optimizer with the usual defaults and the given
// learning rate (the paper starts at 0.01).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// adamCoef is one step's coefficients, in the order adamAVX2 loads them.
type adamCoef struct {
	beta1, oneMinusBeta1, beta2, oneMinusBeta2 float64
	bc1, bc2                                   float64 // bias corrections 1 − βᵗ
	lr, eps                                    float64
}

// Step applies one update to every parameter from its accumulated gradient.
// It leaves the gradients as they are: the training step clears them once,
// before its batch (core's trainStep calls ParamSet.ZeroGrad).
func (a *Adam) Step(ps *ParamSet) {
	a.t++
	k := a.coef()
	for _, p := range ps.All() {
		adamUpdate(p.Value.Data, p.m.Data, p.v.Data, p.Grad.Data, &k)
	}
}

// coef returns the coefficients of step a.t.
func (a *Adam) coef() adamCoef {
	return adamCoef{
		beta1: a.Beta1, oneMinusBeta1: 1 - a.Beta1,
		beta2: a.Beta2, oneMinusBeta2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.t)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr:  a.LR, eps: a.Epsilon,
	}
}

// adamGo is the portable update of adamUpdate: for every weight,
// m ← β1·m + (1−β1)·g, v ← β2·v + ((1−β2)·g)·g, and
// value ← value − (lr·(m/bc1)) / (√(v/bc2) + ε), each product and quotient
// rounded on its own, never fused.
func adamGo(value, m, v, g []float64, k *adamCoef) {
	m, v, g = m[:len(value)], v[:len(value)], g[:len(value)]
	for i, gi := range g {
		m[i] = float64(k.beta1*m[i]) + float64(k.oneMinusBeta1*gi)
		v[i] = float64(k.beta2*v[i]) + float64(float64(k.oneMinusBeta2*gi)*gi)
		mHat := m[i] / k.bc1
		vHat := v[i] / k.bc2
		value[i] -= float64(k.lr*mHat) / (math.Sqrt(vHat) + k.eps)
	}
}

// StepDecaySchedule reproduces the paper's learning-rate schedule: the
// initial rate is multiplied by Factor every Every epochs ("reduced by 1/5
// every 2 epochs", §6.1, is Initial 0.01, Factor 0.2, Every 2).
type StepDecaySchedule struct {
	Initial float64
	Factor  float64
	Every   int
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
