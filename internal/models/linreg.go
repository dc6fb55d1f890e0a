package models

import (
	"fmt"
	"math"
	"time"

	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// LinReg is the LR baseline: ordinary least squares (with a small ridge
// term for conditioning) over the basic OD features (raw coordinates and
// time features — the paper's LR is a basic learning method), fit in closed
// form by solving the normal equations.
type LinReg struct {
	feat *Featurizer
	// Lambda is the ridge regularizer.
	Lambda float64

	weights   []float64 // NumFeatures + 1 (intercept first)
	trainTime time.Duration
}

// NewLinReg builds an untrained linear-regression baseline.
func NewLinReg(g *roadnet.Graph) *LinReg {
	return &LinReg{feat: NewFeaturizer(g), Lambda: 1e-6}
}

// Name implements Estimator.
func (l *LinReg) Name() string { return "LR" }

// Train solves (XᵀX + λI) w = Xᵀy.
func (l *LinReg) Train(train, _ []traj.TripRecord) error {
	if len(train) < NumBasicFeatures+1 {
		return fmt.Errorf("models: LR needs at least %d records, got %d", NumBasicFeatures+1, len(train))
	}
	start := time.Now()
	p := NumBasicFeatures + 1
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	row := make([]float64, p)
	for i := range train {
		fs := l.feat.BasicFeatures(&train[i].Matched)
		row[0] = 1
		copy(row[1:], fs)
		y := train[i].TravelSec
		for a := 0; a < p; a++ {
			xty[a] += float64(row[a] * y)
			for b := a; b < p; b++ {
				xtx[a][b] += float64(row[a] * row[b])
			}
		}
	}
	for a := 0; a < p; a++ {
		xtx[a][a] += l.Lambda
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
	}
	w, err := solveSPD(xtx, xty)
	if err != nil {
		return fmt.Errorf("models: LR normal equations: %w", err)
	}
	l.weights = w
	l.trainTime = time.Since(start)
	return nil
}

// Estimate implements Estimator.
func (l *LinReg) Estimate(od *traj.MatchedOD) float64 {
	if l.weights == nil {
		panic("models: LR used before Train")
	}
	fs := l.feat.BasicFeatures(od)
	y := l.weights[0]
	for i, v := range fs {
		y += float64(l.weights[i+1] * v)
	}
	if y < 0 {
		y = 0
	}
	return y
}

// SizeBytes implements Trainable.
func (l *LinReg) SizeBytes() int { return len(l.weights) * 8 }

// TrainTime implements Trainable.
func (l *LinReg) TrainTime() time.Duration { return l.trainTime }

// solveSPD solves A x = b by Gaussian elimination with partial pivoting.
// A is destroyed.
func solveSPD(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// pivot
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		x[col], x[pivot] = x[pivot], x[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			x[r] -= float64(f * x[col])
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= float64(a[col][c] * x[c])
		}
		x[col] = s / a[col][col]
	}
	return x, nil
}
