package models

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepod/internal/dataset"
	"deepod/internal/metrics"
	"deepod/internal/nn"
	"deepod/internal/traj"
)

// StepPoint is one validation measurement during deep-baseline training.
type StepPoint struct {
	Step   int
	ValMAE float64
}

// DeepStats summarizes a deep baseline's training run (Table 3 and
// Figure 10 report these for STNN and MURAT alongside DeepOD).
type DeepStats struct {
	Curve         []StepPoint
	Steps         int
	Elapsed       time.Duration
	ConvergedStep int
	ConvergedAt   time.Duration
	FinalValMAE   float64
}

// deepTrainOpts configures the shared mini-batch trainer.
type deepTrainOpts struct {
	batchSize int
	epochs    int
	schedule  nn.StepDecaySchedule
	clipNorm  float64
	evalEvery int
	valSample int
	seed      int64
}

// deepTrain runs mini-batch gradient-accumulation training of an arbitrary
// per-sample loss, mirroring the paper's training protocol (Adam, step
// decay). recordLoss must build the loss for record rec on tape tp;
// estimate must predict seconds for validation measurement.
func deepTrain(ps *nn.ParamSet, train, valid []traj.TripRecord, opts deepTrainOpts,
	recordLoss func(tp *nn.Tape, rec *traj.TripRecord) *nn.Node,
	estimate func(od *traj.MatchedOD) float64) (*DeepStats, error) {

	if len(train) == 0 {
		return nil, fmt.Errorf("models: no training records")
	}
	stats := &DeepStats{}
	start := time.Now()
	opt := nn.NewAdam(opts.schedule.Initial)
	rng := rand.New(rand.NewSource(opts.seed))

	evaluate := func() float64 {
		if len(valid) == 0 {
			return math.NaN()
		}
		n := len(valid)
		if opts.valSample > 0 && opts.valSample < n {
			n = opts.valSample
		}
		actual := make([]float64, n)
		pred := make([]float64, n)
		for i := 0; i < n; i++ {
			actual[i] = valid[i].TravelSec
			pred[i] = estimate(&valid[i].Matched)
		}
		return metrics.MAE(actual, pred)
	}

	step := 0
	for epoch := 0; epoch < opts.epochs; epoch++ {
		opt.LR = opts.schedule.At(epoch)
		err := dataset.Batches(len(train), opts.batchSize, rng, true, func(batch []int) error {
			ps.ZeroGrad()
			for _, bi := range batch {
				tp := nn.NewTape()
				loss := recordLoss(tp, &train[bi])
				tp.Backward(loss)
			}
			ps.ScaleGrads(1 / float64(len(batch)))
			if opts.clipNorm > 0 {
				nn.ClipGradNorm(ps, opts.clipNorm)
			}
			opt.Step(ps)
			step++
			if opts.evalEvery > 0 && step%opts.evalEvery == 0 {
				stats.Curve = append(stats.Curve, StepPoint{Step: step, ValMAE: evaluate()})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		stats.Curve = append(stats.Curve, StepPoint{Step: step, ValMAE: evaluate()})
	}
	stats.Steps = step
	stats.Elapsed = time.Since(start)
	if len(stats.Curve) > 0 {
		stats.FinalValMAE = stats.Curve[len(stats.Curve)-1].ValMAE
		best := math.Inf(1)
		for _, p := range stats.Curve {
			if p.ValMAE < best {
				best = p.ValMAE
			}
		}
		for _, p := range stats.Curve {
			if p.ValMAE <= best*1.02 {
				stats.ConvergedStep = p.Step
				break
			}
		}
		if stats.Steps > 0 {
			stats.ConvergedAt = time.Duration(float64(stats.ConvergedStep) / float64(stats.Steps) * float64(stats.Elapsed))
		}
	}
	return stats, nil
}

// meanTravel returns the mean travel time of records (target scaling).
func meanTravel(records []traj.TripRecord) float64 {
	var s float64
	for i := range records {
		s += records[i].TravelSec
	}
	return s / float64(len(records))
}

// lrEveryOr returns every when positive, else the paper default of 2.
func lrEveryOr(every int) int {
	if every > 0 {
		return every
	}
	return 2
}
