package models

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepod/internal/nn"
	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// STNN is the Spatial Temporal deep Neural Network baseline (Jindal et al.):
// a first MLP predicts the travel distance from the raw origin/destination
// coordinates; a second MLP combines the predicted distance with the
// departure-time features to predict the travel time. It deliberately
// ignores the road network (the paper's explanation for STNN's weakness).
type STNN struct {
	feat *Featurizer

	Hidden    int
	BatchSize int
	Epochs    int
	LREvery   int
	EvalEvery int
	ValSample int
	Seed      int64

	ps        *nn.ParamSet
	distMLP   *nn.MLP2
	timeMLP   *nn.MLP2
	distScale float64
	timeScale float64
	stats     *DeepStats
	trainTime time.Duration
	g         *roadnet.Graph
}

// NewSTNN builds an untrained STNN baseline.
func NewSTNN(g *roadnet.Graph) *STNN {
	return &STNN{
		feat: NewFeaturizer(g), g: g,
		Hidden: 32, BatchSize: 64, Epochs: 4, EvalEvery: 0, Seed: 7,
	}
}

// Name implements Estimator.
func (s *STNN) Name() string { return "STNN" }

// build constructs the two MLPs.
func (s *STNN) build() {
	rng := rand.New(rand.NewSource(s.Seed))
	s.ps = nn.NewParamSet()
	// distance head: [ox, oy, dx, dy] -> distance
	s.distMLP = nn.NewMLP2(s.ps, rng, "stnn.dist", 4, s.Hidden, 1)
	// time head: [predicted distance, hourSin, hourCos, day, weekend] -> time
	s.timeMLP = nn.NewMLP2(s.ps, rng, "stnn.time", 5, s.Hidden, 1)
}

// forward runs both heads; returns (distNode, timeNode), each [1, 1], in
// normalized units.
func (s *STNN) forward(tp *nn.Tape, od *traj.MatchedOD) (*nn.Node, *nn.Node) {
	fs := s.feat.Features(od)
	dist := s.distMLP.Forward(tp, rowConst(tp, fs[0], fs[1], fs[2], fs[3]))
	timeIn := tp.ConcatCols(dist, rowConst(tp, fs[6], fs[7], fs[8], fs[9]))
	t := s.timeMLP.Forward(tp, timeIn)
	return dist, t
}

// Train fits both heads jointly: loss = MAE(time) + 0.5·MAE(distance), the
// multi-objective of the original STNN.
func (s *STNN) Train(train, valid []traj.TripRecord) error {
	if len(train) == 0 {
		return fmt.Errorf("models: STNN needs training records")
	}
	start := time.Now()
	s.build()
	s.timeScale = meanTravel(train)
	var meanDist float64
	for i := range train {
		meanDist += train[i].Trajectory.Length(s.g)
	}
	s.distScale = math.Max(1, meanDist/float64(len(train)))

	stats, err := deepTrain(s.ps, train, valid, deepTrainOpts{
		batchSize: s.BatchSize, epochs: s.Epochs,
		schedule: nn.StepDecaySchedule{Initial: 0.01, Factor: 0.2, Every: s.lrEvery()},
		clipNorm: 5, evalEvery: s.EvalEvery, valSample: s.ValSample, seed: s.Seed + 1,
	}, func(tp *nn.Tape, rec *traj.TripRecord) *nn.Node {
		dist, t := s.forward(tp, &rec.Matched)
		distTgt := rowConst(tp, rec.Trajectory.Length(s.g)/s.distScale)
		timeTgt := rowConst(tp, rec.TravelSec/s.timeScale)
		return tp.Add(tp.RowAbsError(t, timeTgt), tp.Scale(tp.RowAbsError(dist, distTgt), 0.5))
	}, s.Estimate)
	if err != nil {
		return err
	}
	s.stats = stats
	s.trainTime = time.Since(start)
	return nil
}

// Estimate implements Estimator.
func (s *STNN) Estimate(od *traj.MatchedOD) float64 {
	if s.ps == nil {
		panic("models: STNN used before Train")
	}
	tp := nn.NewEvalTape()
	_, t := s.forward(tp, od)
	return math.Max(0, t.Value.Data[0]*s.timeScale)
}

// Stats returns the training curve (nil before Train).
func (s *STNN) Stats() *DeepStats { return s.stats }

// SizeBytes implements Trainable.
func (s *STNN) SizeBytes() int {
	if s.ps == nil {
		return 0
	}
	return s.ps.SizeBytes()
}

// TrainTime implements Trainable.
func (s *STNN) TrainTime() time.Duration { return s.trainTime }

// lrEvery returns the LR-decay period in epochs (default 2).
func (s *STNN) lrEvery() int { return lrEveryOr(s.LREvery) }
